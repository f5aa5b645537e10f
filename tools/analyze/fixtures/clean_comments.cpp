// Fixture: zero diagnostics — every banned spelling below sits in a
// comment or a string literal, where the token-level lexer must not see it
// (a line regex's weak spot: it only strips `//` comments).
/* A block comment mentioning std::mt19937, new Amp[4], malloc(64),
   std::thread, steady_clock and ::socket(2, 1, 0) is documentation. */
const char* kDoc =
    "std::thread and steady_clock in a string literal are data, not code";
const char* kRaw = R"doc(drand48() and ::connect(fd, addr, len) and
StateVector copy = other; all inert inside a raw string)doc";
