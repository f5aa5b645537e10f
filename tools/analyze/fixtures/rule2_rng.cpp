// Fixture: RQS002 — std RNG construction outside common/rng, in the
// qualified spelling a line regex also catches.
#include <random>

int roll_qualified() {
  std::mt19937 gen(42);
  return static_cast<int>(gen());
}

double roll_libc() {
  return drand48();
}
