// Fixture: RQS002 through a using-directive — no `std::` spelling anywhere,
// so a line regex cannot see this one; only the token-level pass with
// alias resolution catches it.
#include <random>

using namespace std;

int roll_unqualified() {
  mt19937 gen(7);
  return static_cast<int>(gen());
}
