// Runtime AVX2 dispatch for the TTF pool's batched evaluation kernel
// (graph/ttf_pool.cpp).
//
// AVX2 bodies are compiled with a per-function target attribute, so their
// translation units need no -mavx2; the dispatch is a cached cpuid check.
// Anything non-x86 (or a compiler without the attribute) keeps the scalar
// path, and setting PCONN_NO_AVX2 in the environment forces it for A/B
// measurement.
#pragma once

#include <cstdlib>

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PCONN_HAVE_AVX2_DISPATCH 1
#include <immintrin.h>
#else
#define PCONN_HAVE_AVX2_DISPATCH 0
#endif

namespace pconn {

#if PCONN_HAVE_AVX2_DISPATCH

inline bool cpu_has_avx2() {
  static const bool supported = [] {
    if (std::getenv("PCONN_NO_AVX2") != nullptr) return false;
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported;
}

#endif  // PCONN_HAVE_AVX2_DISPATCH

}  // namespace pconn
