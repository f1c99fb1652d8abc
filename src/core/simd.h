#ifndef HBTREE_CORE_SIMD_H_
#define HBTREE_CORE_SIMD_H_

#include <cstdint>

#include "core/types.h"

#if defined(__AVX2__)
#include <immintrin.h>
#define HBTREE_HAVE_AVX2 1
#else
#define HBTREE_HAVE_AVX2 0
#endif

namespace hbtree {

/// Intra-node search algorithms evaluated in Section 4.2 / Appendix A.
/// All of them compute, for one cache line of sorted keys, the number of
/// keys strictly smaller than the query — i.e. the minimum index i such
/// that `query <= keys[i]`, which is also the index of the child to follow.
enum class NodeSearchAlgo {
  kSequential,       // scalar loop, the paper's baseline
  kLinearSimd,       // Snippet 1: two full-width vector compares
  kHierarchicalSimd  // Snippet 2: boundary compare, then one refinement
};

// ---------------------------------------------------------------------------
// Scalar reference / baseline implementations.
// ---------------------------------------------------------------------------

/// Scalar early-exit loop over `count` sorted keys; the "sequential"
/// baseline of Figure 8. Returns #{i : keys[i] < query}.
template <typename K>
inline int SearchLineSequential(const K* keys, int count, K query) {
  int i = 0;
  while (i < count && keys[i] < query) ++i;
  return i;
}

/// Branchless scalar lower bound over one cache line; used as the fallback
/// body of the SIMD entry points on non-AVX2 builds.
template <typename K>
inline int SearchLineBranchless(const K* keys, int count, K query) {
  int result = 0;
  for (int i = 0; i < count; ++i) result += keys[i] < query ? 1 : 0;
  return result;
}

// ---------------------------------------------------------------------------
// 64-bit key line search (8 keys per cache line).
// ---------------------------------------------------------------------------

#if HBTREE_HAVE_AVX2
namespace simd_internal {

/// AVX2 offers only signed 64-bit compares; flipping the sign bit maps
/// unsigned order onto signed order.
inline __m256i FlipSign64(__m256i v) {
  return _mm256_xor_si256(v, _mm256_set1_epi64x(
                                 static_cast<long long>(0x8000000000000000ull)));
}

inline __m256i FlipSign32(__m256i v) {
  return _mm256_xor_si256(v, _mm256_set1_epi32(
                                 static_cast<int>(0x80000000u)));
}

/// Number of lanes (of four 64-bit keys) strictly smaller than the query.
inline int CountLess4x64(const std::uint64_t* keys, __m256i vquery_flipped) {
  __m256i vec = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys));
  __m256i cmp = _mm256_cmpgt_epi64(vquery_flipped, FlipSign64(vec));
  int mask = _mm256_movemask_pd(_mm256_castsi256_pd(cmp));
  return __builtin_popcount(static_cast<unsigned>(mask));
}

/// Number of lanes (of eight 32-bit keys) strictly smaller than the query.
inline int CountLess8x32(const std::uint32_t* keys, __m256i vquery_flipped) {
  __m256i vec = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys));
  __m256i cmp = _mm256_cmpgt_epi32(vquery_flipped, FlipSign32(vec));
  int mask = _mm256_movemask_ps(_mm256_castsi256_ps(cmp));
  return __builtin_popcount(static_cast<unsigned>(mask));
}

}  // namespace simd_internal
#endif  // HBTREE_HAVE_AVX2

/// Linear AVX search over 8 sorted 64-bit keys (paper Snippet 1): both
/// half-lines are compared unconditionally, so the code is free of control
/// dependencies.
inline int SearchLine64LinearAvx(const std::uint64_t* keys,
                                 std::uint64_t query) {
#if HBTREE_HAVE_AVX2
  __m256i vquery = simd_internal::FlipSign64(
      _mm256_set1_epi64x(static_cast<long long>(query)));
  return simd_internal::CountLess4x64(keys, vquery) +
         simd_internal::CountLess4x64(keys + 4, vquery);
#else
  return SearchLineBranchless(keys, 8, query);
#endif
}

/// Hierarchical AVX search over 8 sorted 64-bit keys (paper Snippet 2):
/// boundary keys keys[2] and keys[5] pick one of three 3-key thirds; one
/// more two-key compare finishes the search. Loads less data than the
/// linear variant at the price of a control dependency.
inline int SearchLine64HierarchicalAvx(const std::uint64_t* keys,
                                       std::uint64_t query) {
#if HBTREE_HAVE_AVX2
  const __m128i sign = _mm_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  __m128i vquery =
      _mm_xor_si128(_mm_set1_epi64x(static_cast<long long>(query)), sign);
  // Boundary keys keys[2] and keys[5] select one of the three thirds.
  __m128i bounds = _mm_xor_si128(
      _mm_set_epi64x(static_cast<long long>(keys[5]),
                     static_cast<long long>(keys[2])),
      sign);
  __m128i cmp = _mm_cmpgt_epi64(vquery, bounds);
  int mask = _mm_movemask_pd(_mm_castsi128_pd(cmp));
  int base = 3 * __builtin_popcount(static_cast<unsigned>(mask));
  // One more two-key compare inside the selected third finishes the search.
  __m128i pair = _mm_xor_si128(
      _mm_set_epi64x(static_cast<long long>(keys[base + 1]),
                     static_cast<long long>(keys[base])),
      sign);
  cmp = _mm_cmpgt_epi64(vquery, pair);
  mask = _mm_movemask_pd(_mm_castsi128_pd(cmp));
  return base + __builtin_popcount(static_cast<unsigned>(mask));
#else
  return SearchLineBranchless(keys, 8, query);
#endif
}

/// Dispatch helper for a full 8-key 64-bit line.
inline int SearchLine64(const std::uint64_t* keys, std::uint64_t query,
                        NodeSearchAlgo algo) {
  switch (algo) {
    case NodeSearchAlgo::kSequential:
      return SearchLineSequential(keys, 8, query);
    case NodeSearchAlgo::kLinearSimd:
      return SearchLine64LinearAvx(keys, query);
    case NodeSearchAlgo::kHierarchicalSimd:
      return SearchLine64HierarchicalAvx(keys, query);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// 32-bit key line search (16 keys per cache line).
// ---------------------------------------------------------------------------

/// Linear AVX search over 16 sorted 32-bit keys: two 8-wide compares.
inline int SearchLine32LinearAvx(const std::uint32_t* keys,
                                 std::uint32_t query) {
#if HBTREE_HAVE_AVX2
  __m256i vquery = simd_internal::FlipSign32(
      _mm256_set1_epi32(static_cast<int>(query)));
  return simd_internal::CountLess8x32(keys, vquery) +
         simd_internal::CountLess8x32(keys + 8, vquery);
#else
  return SearchLineBranchless(keys, 16, query);
#endif
}

/// Hierarchical search over 16 sorted 32-bit keys: one 8-wide compare of
/// the odd-position keys narrows the answer to two candidates; a single
/// scalar compare resolves it.
inline int SearchLine32HierarchicalAvx(const std::uint32_t* keys,
                                       std::uint32_t query) {
#if HBTREE_HAVE_AVX2
  alignas(32) std::uint32_t odd[8] = {keys[1], keys[3],  keys[5],  keys[7],
                                      keys[9], keys[11], keys[13], keys[15]};
  __m256i vquery = simd_internal::FlipSign32(
      _mm256_set1_epi32(static_cast<int>(query)));
  int c = simd_internal::CountLess8x32(odd, vquery);
  // keys[2c-1] < query <= keys[2c+1]; the answer is 2c or 2c+1.
  if (c == 8) return 16;
  return 2 * c + (keys[2 * c] < query ? 1 : 0);
#else
  return SearchLineBranchless(keys, 16, query);
#endif
}

/// Dispatch helper for a full 16-key 32-bit line.
inline int SearchLine32(const std::uint32_t* keys, std::uint32_t query,
                        NodeSearchAlgo algo) {
  switch (algo) {
    case NodeSearchAlgo::kSequential:
      return SearchLineSequential(keys, 16, query);
    case NodeSearchAlgo::kLinearSimd:
      return SearchLine32LinearAvx(keys, query);
    case NodeSearchAlgo::kHierarchicalSimd:
      return SearchLine32HierarchicalAvx(keys, query);
  }
  return 0;
}

/// Width-generic dispatch over one full cache line of keys.
template <typename K>
inline int SearchCacheLine(const K* keys, K query, NodeSearchAlgo algo) {
  if constexpr (sizeof(K) == 8) {
    return SearchLine64(keys, query, algo);
  } else {
    return SearchLine32(keys, query, algo);
  }
}

}  // namespace hbtree

#endif  // HBTREE_CORE_SIMD_H_
