// a*b ± c with the floating-point contraction written out explicitly.
//
// Under implicit contraction (GCC's default `-ffp-contract=fast`) whether
// `acc += a * b` rounds once (an FMA) or twice is the compiler's choice at
// each site: a vectorized loop body and its scalar tail may choose
// differently, and so may a sanitizer-instrumented build and a plain one.
// Spelling the fma in source pins one rounding per result in every code
// path and every build. On targets without hardware FMA nothing is
// contracted anywhere, so the plain two-rounding form is equally
// deterministic (and avoids the libm software-fma call).
#pragma once

namespace rqsim {

#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
inline double mul_add(double a, double b, double c) { return __builtin_fma(a, b, c); }
inline double mul_sub(double a, double b, double c) { return __builtin_fma(a, b, -c); }
#else
inline double mul_add(double a, double b, double c) { return a * b + c; }
inline double mul_sub(double a, double b, double c) { return a * b - c; }
#endif

}  // namespace rqsim
