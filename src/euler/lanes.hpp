// Lane types for kernels that evaluate several faces at once.
//
// A lane-generic kernel (euler/lane_kernels.inc) is a template over its
// lane type V. V = real_t is one lane: the scalar code every solver
// calls. V = Lanes4 is four doubles in one AVX2 register (a GCC vector
// type), one face per lane. One source serves both because the built-in
// operators mean the same thing per lane: + - * / are lane-wise IEEE
// operations, a comparison gives a bool or a lane mask, and `c ? a : b`
// is a branch for one lane and a per-lane select over values computed
// for every lane for four. Only splat, abs and sqrt need overloads here.
//
// The four-lane code is compiled for AVX2 only (target attribute or a
// `#pragma GCC target("avx2")` region), never with FMA: the build is ISO
// C++ (CMAKE_CXX_EXTENSIONS OFF), so no multiply-add is contracted and
// each lane rounds exactly as the scalar code does. Callers pick the
// instantiation once per call with lanes4_supported(); the one-lane
// instantiation is the fallback on CPUs without AVX2 and on other
// architectures.
#pragma once

#include <cmath>

#include "support/types.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define COLUMBIA_LANES4 1
#include <immintrin.h>
#else
#define COLUMBIA_LANES4 0
#endif

namespace columbia::euler {

/// Every lane set to `x`.
template <class V>
V splat(real_t x);

template <>
inline real_t splat<real_t>(real_t x) {
  return x;
}

/// |x| as a sign-bit clear (also for -0 and NaN).
inline real_t lane_abs(real_t x) { return std::abs(x); }
inline real_t lane_sqrt(real_t x) { return std::sqrt(x); }

#if COLUMBIA_LANES4
#define COLUMBIA_AVX2_TARGET __attribute__((target("avx2")))

/// Four doubles, one per lane (`__m256d` without its may_alias attribute,
/// which a template argument would drop).
typedef double Lanes4 __attribute__((vector_size(32)));

template <>
COLUMBIA_AVX2_TARGET inline Lanes4 splat<Lanes4>(real_t x) {
  return _mm256_set1_pd(x);
}

/// Sign-bit clear (andnot -0.0), as std::abs does per lane: a compare-and-
/// negate would keep -0.
COLUMBIA_AVX2_TARGET inline Lanes4 lane_abs(Lanes4 x) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

COLUMBIA_AVX2_TARGET inline Lanes4 lane_sqrt(Lanes4 x) {
  return _mm256_sqrt_pd(x);
}
#undef COLUMBIA_AVX2_TARGET

/// True when this CPU runs the four-lane (AVX2) instantiations; checked
/// once per process.
inline bool lanes4_supported() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return bool(__builtin_cpu_supports("avx2"));
  }();
  return ok;
}
#else
inline bool lanes4_supported() { return false; }
#endif

/// The instruction set the dispatched lane kernels run on: "avx2" or
/// "scalar". Benchmarks record it with their timings.
inline const char* lanes_isa() {
  return lanes4_supported() ? "avx2" : "scalar";
}

}  // namespace columbia::euler
