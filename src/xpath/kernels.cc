// Copyright (c) mhxq authors. Licensed under the MIT license.

#include "xpath/kernels.h"

#include <atomic>
#include <climits>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mhx::xpath {

namespace {

using goddag::NodeId;
using goddag::RangeSoA;
using goddag::kNoNameKey;

std::atomic<uint64_t> g_simd_dispatch{0};

// --- portable scalar core --------------------------------------------------
//
// Branch-light on purpose: the inner loops write one byte of match flag per
// element with no data-dependent control flow, which gcc and clang
// autovectorize; the conversion pass then walks the flags. Early exits and
// push_back inside the compare loop would both defeat that.

constexpr size_t kBlock = 4096;

template <typename Pred>
void ScalarScan(const RangeSoA& soa, size_t start, Pred pred,
                uint32_t name_key, NodeId exclude, std::vector<NodeId>* out) {
  const uint32_t* b = soa.begin.data();
  const uint32_t* e = soa.end.data();
  const uint32_t* k = soa.name_key.data();
  const NodeId* ids = soa.id.data();
  const size_t n = soa.id.size();
  unsigned char match[kBlock];
  for (size_t base = start; base < n; base += kBlock) {
    const size_t m = (n - base < kBlock) ? n - base : kBlock;
    if (name_key == kNoNameKey) {
      for (size_t i = 0; i < m; ++i) {
        match[i] = pred(b[base + i], e[base + i]);
      }
    } else {
      for (size_t i = 0; i < m; ++i) {
        match[i] = pred(b[base + i], e[base + i]) &
                   static_cast<unsigned char>(k[base + i] == name_key);
      }
    }
    for (size_t i = 0; i < m; ++i) {
      if (match[i] && ids[base + i] != exclude) {
        out->push_back(ids[base + i]);
      }
    }
  }
}

// Runs the scalar core with the per-axis Definition-1 predicate
// (ExtendedAxisMatches, specialised to flat uint32 operands) over the
// elements from index `start` on: the whole SoA for the scalar path, the
// remainder a SIMD loop left behind otherwise.
void ScalarScanAxis(const RangeSoA& soa, size_t start, Axis axis, uint32_t cb,
                    uint32_t ce, uint32_t name_key, NodeId exclude,
                    std::vector<NodeId>* out) {
  switch (axis) {
    case Axis::kXAncestor:
      ScalarScan(
          soa, start,
          [cb, ce](uint32_t b, uint32_t e) {
            return static_cast<unsigned char>((b <= cb) & (ce <= e));
          },
          name_key, exclude, out);
      return;
    case Axis::kXDescendant:
      ScalarScan(
          soa, start,
          [cb, ce](uint32_t b, uint32_t e) {
            return static_cast<unsigned char>((cb <= b) & (e <= ce));
          },
          name_key, exclude, out);
      return;
    case Axis::kOverlapping:
      // Intersects (both non-empty, ranges cross) and neither contains the
      // other; the context's own non-emptiness is checked by the caller.
      ScalarScan(
          soa, start,
          [cb, ce](uint32_t b, uint32_t e) {
            const unsigned char intersects =
                (b < e) & (cb < e) & (b < ce);
            const unsigned char ctx_contains = (cb <= b) & (e <= ce);
            const unsigned char cand_contains = (b <= cb) & (ce <= e);
            return static_cast<unsigned char>(
                intersects & static_cast<unsigned char>(1 - ctx_contains) &
                static_cast<unsigned char>(1 - cand_contains));
          },
          name_key, exclude, out);
      return;
    case Axis::kXFollowing:
      ScalarScan(
          soa, start,
          [ce](uint32_t b, uint32_t e) {
            (void)e;
            return static_cast<unsigned char>(b >= ce);
          },
          name_key, exclude, out);
      return;
    case Axis::kXPreceding:
      ScalarScan(
          soa, start,
          [cb](uint32_t b, uint32_t e) {
            (void)b;
            return static_cast<unsigned char>(e <= cb);
          },
          name_key, exclude, out);
      return;
    default:
      return;
  }
}

#if defined(__x86_64__)

// --- explicit SIMD paths ---------------------------------------------------
//
// Offsets compare as signed int32 lanes (no unsigned compare below AVX-512),
// so both operands are biased in-register first: x ^ 0x80000000 flips the
// sign bit, and signed order of the biased values equals unsigned order of
// the raw ones across the whole uint32 range. Each block produces a
// per-lane match mask (one bit per element via movemask) that the tail of
// the loop converts to NodeIds — the "bitset to node list in one pass" step.

// One bit per 32-bit lane of a 128-bit compare result.
inline uint32_t LaneMask128(__m128i v) {
  return static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(v)));
}

// The 4-lane match mask of one SSE2 block for `axis` (lane bits set =
// match). `cb`/`ce` are the context bounds splatted across lanes.
inline uint32_t Sse2AxisMask(Axis axis, __m128i cb, __m128i ce, __m128i vb,
                             __m128i ve) {
  switch (axis) {
    case Axis::kXAncestor:
      // b <= cb && ce <= e  ==  !(b > cb) && !(ce > e)
      return (LaneMask128(_mm_cmpgt_epi32(vb, cb)) |
              LaneMask128(_mm_cmpgt_epi32(ce, ve))) ^
             0xfu;
    case Axis::kXDescendant:
      return (LaneMask128(_mm_cmpgt_epi32(cb, vb)) |
              LaneMask128(_mm_cmpgt_epi32(ve, ce))) ^
             0xfu;
    case Axis::kOverlapping: {
      // intersects && !ctx_contains && !cand_contains, combined entirely in
      // the vector domain so one movemask covers all seven compares:
      // !contains == (strictly-starts-before || strictly-ends-after).
      const __m128i intersects = _mm_and_si128(
          _mm_cmpgt_epi32(ve, vb), _mm_and_si128(_mm_cmpgt_epi32(ve, cb),
                                                 _mm_cmpgt_epi32(ce, vb)));
      const __m128i not_ctx_contains = _mm_or_si128(
          _mm_cmpgt_epi32(cb, vb), _mm_cmpgt_epi32(ve, ce));
      const __m128i not_cand_contains = _mm_or_si128(
          _mm_cmpgt_epi32(vb, cb), _mm_cmpgt_epi32(ce, ve));
      return LaneMask128(_mm_and_si128(
          intersects, _mm_and_si128(not_ctx_contains, not_cand_contains)));
    }
    case Axis::kXFollowing:
      // b >= ce  ==  !(ce > b)
      return LaneMask128(_mm_cmpgt_epi32(ce, vb)) ^ 0xfu;
    case Axis::kXPreceding:
      // e <= cb  ==  !(e > cb)
      return LaneMask128(_mm_cmpgt_epi32(ve, cb)) ^ 0xfu;
    default:
      return 0;
  }
}

// SSE2 is the x86_64 baseline: no target attribute needed. Emission goes
// through a raw cursor into pre-grown storage (no per-hit capacity check),
// and the context node is dropped by folding an id-equality compare into
// the lane mask instead of branching per hit.
size_t Sse2Scan(const RangeSoA& soa, Axis axis, uint32_t ctx_begin,
                uint32_t ctx_end, uint32_t name_key, NodeId exclude,
                std::vector<NodeId>* out) {
  const uint32_t* b = soa.begin.data();
  const uint32_t* e = soa.end.data();
  const uint32_t* k = soa.name_key.data();
  const NodeId* ids = soa.id.data();
  const size_t n = soa.id.size();
  const __m128i bias = _mm_set1_epi32(INT_MIN);
  const __m128i cb =
      _mm_xor_si128(_mm_set1_epi32(static_cast<int>(ctx_begin)), bias);
  const __m128i ce =
      _mm_xor_si128(_mm_set1_epi32(static_cast<int>(ctx_end)), bias);
  const __m128i key = _mm_set1_epi32(static_cast<int>(name_key));
  const __m128i excl = _mm_set1_epi32(static_cast<int>(exclude));
  constexpr size_t kBufCap = 256;
  NodeId buf[kBufCap + 4];  // +4: one block may land past the flush line
  NodeId* dst = buf;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vb = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)), bias);
    const __m128i ve = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(e + i)), bias);
    uint32_t mask = Sse2AxisMask(axis, cb, ce, vb, ve);
    if (name_key != kNoNameKey) {
      const __m128i vk =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(k + i));
      mask &= LaneMask128(_mm_cmpeq_epi32(vk, key));
    }
    // Interval queries leave long all-zero (and all-one) mask runs, so this
    // branch predicts well and skips the emission work on sparse axes.
    if (mask == 0) continue;
    const __m128i vid =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
    mask &= ~LaneMask128(_mm_cmpeq_epi32(vid, excl)) & 0xfu;
    while (mask != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(mask));
      mask &= mask - 1;
      *dst++ = ids[i + lane];
    }
    if (static_cast<size_t>(dst - buf) >= kBufCap) {
      out->insert(out->end(), buf, dst);
      dst = buf;
    }
  }
  out->insert(out->end(), buf, dst);
  return i;  // elements consumed; the caller scalar-scans the remainder
}

// 8-lane left-pack shuffles for _mm256_permutevar8x32_epi32: entry m lists
// the set-bit lanes of mask m in ascending order, so one permute + store
// emits a block's matching ids with no per-lane branches — dense masks
// (the ordering axes match ~half the document) cost the same as sparse.
struct CompressLut {
  alignas(32) uint32_t idx[256][8];
  constexpr CompressLut() : idx() {
    for (int m = 0; m < 256; ++m) {
      int packed = 0;
      for (int lane = 0; lane < 8; ++lane) {
        if ((m >> lane) & 1) idx[m][packed++] = static_cast<uint32_t>(lane);
      }
      for (; packed < 8; ++packed) idx[m][packed] = 0;
    }
  }
};
constexpr CompressLut kCompressLut{};

// One bit per 32-bit lane of a 256-bit compare result.
__attribute__((target("avx2"))) inline uint32_t LaneMask256(__m256i v) {
  return static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(v)));
}

// The 8-lane match mask of one AVX2 block for `axis`.
__attribute__((target("avx2"))) inline uint32_t Avx2AxisMask(
    Axis axis, __m256i cb, __m256i ce, __m256i vb, __m256i ve) {
  switch (axis) {
    case Axis::kXAncestor:
      return (LaneMask256(_mm256_cmpgt_epi32(vb, cb)) |
              LaneMask256(_mm256_cmpgt_epi32(ce, ve))) ^
             0xffu;
    case Axis::kXDescendant:
      return (LaneMask256(_mm256_cmpgt_epi32(cb, vb)) |
              LaneMask256(_mm256_cmpgt_epi32(ve, ce))) ^
             0xffu;
    case Axis::kOverlapping: {
      // Same vector-domain combine as the SSE2 mask: seven compares, six
      // and/or folds, a single movemask at the end.
      const __m256i intersects = _mm256_and_si256(
          _mm256_cmpgt_epi32(ve, vb),
          _mm256_and_si256(_mm256_cmpgt_epi32(ve, cb),
                           _mm256_cmpgt_epi32(ce, vb)));
      const __m256i not_ctx_contains = _mm256_or_si256(
          _mm256_cmpgt_epi32(cb, vb), _mm256_cmpgt_epi32(ve, ce));
      const __m256i not_cand_contains = _mm256_or_si256(
          _mm256_cmpgt_epi32(vb, cb), _mm256_cmpgt_epi32(ce, ve));
      return LaneMask256(_mm256_and_si256(
          intersects,
          _mm256_and_si256(not_ctx_contains, not_cand_contains)));
    }
    case Axis::kXFollowing:
      return LaneMask256(_mm256_cmpgt_epi32(ce, vb)) ^ 0xffu;
    case Axis::kXPreceding:
      return LaneMask256(_mm256_cmpgt_epi32(ve, cb)) ^ 0xffu;
    default:
      return 0;
  }
}

// Non-empty blocks emit branchlessly: one permutevar8x32 through
// kCompressLut left-packs the matching ids, a full 8-lane store writes
// them into the stack chunk, and the cursor advances by popcount — dense
// masks (the ordering axes match ~half the document) cost the same as a
// single hit. All-zero blocks skip emission entirely; interval masks run
// in long same-value stretches, so that branch predicts well.
__attribute__((target("avx2"))) size_t Avx2Scan(
    const RangeSoA& soa, Axis axis, uint32_t ctx_begin, uint32_t ctx_end,
    uint32_t name_key, NodeId exclude, std::vector<NodeId>* out) {
  const uint32_t* b = soa.begin.data();
  const uint32_t* e = soa.end.data();
  const uint32_t* k = soa.name_key.data();
  const NodeId* ids = soa.id.data();
  const size_t n = soa.id.size();
  const __m256i bias = _mm256_set1_epi32(INT_MIN);
  const __m256i cb =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(ctx_begin)), bias);
  const __m256i ce =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(ctx_end)), bias);
  const __m256i key = _mm256_set1_epi32(static_cast<int>(name_key));
  const __m256i excl = _mm256_set1_epi32(static_cast<int>(exclude));
  constexpr size_t kBufCap = 256;
  // +8: the full-width store may write past the flush line; the cursor
  // only advances by popcount, so at most 8 lanes of slack are needed.
  alignas(32) NodeId buf[kBufCap + 8];
  NodeId* dst = buf;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vb = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)), bias);
    const __m256i ve = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(e + i)), bias);
    uint32_t mask = Avx2AxisMask(axis, cb, ce, vb, ve);
    if (name_key != kNoNameKey) {
      const __m256i vk =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k + i));
      mask &= LaneMask256(_mm256_cmpeq_epi32(vk, key));
    }
    if (mask == 0) continue;
    const __m256i vid =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    mask &= ~LaneMask256(_mm256_cmpeq_epi32(vid, excl)) & 0xffu;
    const __m256i shuffle = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kCompressLut.idx[mask]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                        _mm256_permutevar8x32_epi32(vid, shuffle));
    dst += __builtin_popcount(mask);
    if (static_cast<size_t>(dst - buf) >= kBufCap) {
      out->insert(out->end(), buf, dst);
      dst = buf;
    }
  }
  out->insert(out->end(), buf, dst);
  return i;
}

#endif  // defined(__x86_64__)

}  // namespace

std::string_view KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAuto:
      return "auto";
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kSse2:
      return "sse2";
    case KernelIsa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

KernelIsa DispatchedKernelIsa() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  static const KernelIsa isa =
      __builtin_cpu_supports("avx2") ? KernelIsa::kAvx2 : KernelIsa::kSse2;
  return isa;
#else
  return KernelIsa::kScalar;
#endif
}

void ScanExtendedAxis(const RangeSoA& soa, Axis axis,
                      const TextRange& context, NodeId exclude,
                      uint32_t name_key, KernelIsa isa,
                      std::vector<NodeId>* out) {
  if (axis == Axis::kOverlapping && context.empty()) {
    // An empty range intersects nothing, so `overlapping` is empty; the
    // kernels' lane predicates assume a non-empty context.
    return;
  }
  const uint32_t cb = static_cast<uint32_t>(context.begin);
  const uint32_t ce = static_cast<uint32_t>(context.end);
  KernelIsa resolved = isa == KernelIsa::kAuto ? DispatchedKernelIsa() : isa;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (resolved == KernelIsa::kAvx2 && !__builtin_cpu_supports("avx2")) {
    resolved = KernelIsa::kSse2;  // explicit request clamps, never faults
  }
#else
  resolved = KernelIsa::kScalar;
#endif
  size_t done = 0;
#if defined(__x86_64__)
  if (resolved == KernelIsa::kAvx2) {
    g_simd_dispatch.fetch_add(1, std::memory_order_relaxed);
    done = Avx2Scan(soa, axis, cb, ce, name_key, exclude, out);
  } else if (resolved == KernelIsa::kSse2) {
    g_simd_dispatch.fetch_add(1, std::memory_order_relaxed);
    done = Sse2Scan(soa, axis, cb, ce, name_key, exclude, out);
  }
#endif
  ScalarScanAxis(soa, done, axis, cb, ce, name_key, exclude, out);
}

uint64_t simd_dispatch_count() {
  return g_simd_dispatch.load(std::memory_order_relaxed);
}

}  // namespace mhx::xpath
