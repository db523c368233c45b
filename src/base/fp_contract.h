/**
 * @file
 * The floating-point rules of the byte contract (docs/CORRECTNESS.md):
 * every `a*b + c` rounds twice, as ISO C++ evaluates it, never once as
 * a fused multiply-add. GCC fuses it on any target with FMA unless told
 * `-ffp-contract=off`, which the top-level CMakeLists.txt passes to
 * every target. Fast-math breaks the contract in more ways, so a
 * priced translation unit refuses to compile under it.
 */
#ifndef FSMOE_BASE_FP_CONTRACT_H
#define FSMOE_BASE_FP_CONTRACT_H

#ifdef __FAST_MATH__
#error "fsmoe's byte-identical outputs need IEEE arithmetic: build without -ffast-math"
#endif

namespace fsmoe {

/**
 * `x*y + z` as this build compiles it, on inputs read through
 * `volatile` so that nothing folds at compile time. Its own
 * translation unit; the canary test checks that it rounds twice.
 */
double multiplyAdd(double x, double y, double z);

} // namespace fsmoe

#endif // FSMOE_BASE_FP_CONTRACT_H
