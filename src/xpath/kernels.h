// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Vectorized extended-axis scan kernels over goddag::RangeSoA — the fast
// half of the "full scan" physical plan. The Definition-1 extended axes are
// pure interval arithmetic over (begin, end) pairs, so a scan over the
// snapshot's flat begin[]/end[] arrays replaces the per-GNode node-table
// walk (strings and child vectors dragged through cache) with branch-light
// packed compares:
//
//   * a portable scalar core written so gcc/clang autovectorize it (one
//     byte of match flag per element, no early exits), and
//   * explicit SSE2 / AVX2 paths (8/16 int32 lanes per iteration via the
//     two arrays) selected once per process by runtime CPU dispatch.
//
// Every path evaluates exactly ExtendedAxisMatches (xpath/axes.h) — tests
// hold every ISA to it byte for byte — and emits matches
// into a bitset that one conversion pass turns into a NodeId list. SSE2 and
// AVX2 have no unsigned 32-bit compare, so the SIMD paths XOR both operands
// with 0x80000000 in-register and compare signed lanes: that order equals
// unsigned order over every uint32 offset, and the SoA itself stays
// unbiased. The SIMD remainder runs through the scalar core. An optional
// interned name key (pushdown, goddag::kNoNameKey = off) folds the
// element-name test into the same scan.
//
// Thread-safety: kernels are pure functions over immutable snapshot state;
// the only shared mutation is the relaxed dispatch counter.

#ifndef MHX_XPATH_KERNELS_H_
#define MHX_XPATH_KERNELS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "goddag/stats.h"
#include "xpath/axes.h"

namespace mhx::xpath {

// The instruction sets a kernel invocation can run on. kAuto resolves to
// the widest path the CPU supports, probed once per process.
enum class KernelIsa {
  kAuto,
  kScalar,
  kSse2,
  kAvx2,
};

std::string_view KernelIsaName(KernelIsa isa);

// The ISA kAuto resolves to on this machine (never kAuto itself).
KernelIsa DispatchedKernelIsa();

// Scans `soa` for elements matching `axis` against `context`
// (ExtendedAxisMatches semantics), appending matching NodeIds to `out` in
// soa order (== NodeId order). `exclude` (the context node, or
// goddag::kInvalidNode) is dropped; `name_key` != goddag::kNoNameKey
// additionally requires the element's interned name to equal it. `context`
// lies within the base text, so its offsets fit uint32 (Builder::Build
// rejects longer texts). `isa` selects the code path (kAuto = runtime
// dispatch); wider requests than the CPU supports clamp down, never fault.
void ScanExtendedAxis(const goddag::RangeSoA& soa, Axis axis,
                      const TextRange& context, goddag::NodeId exclude,
                      uint32_t name_key, KernelIsa isa,
                      std::vector<goddag::NodeId>* out);

// Kernel invocations that ran an explicit SIMD path (SSE2 or AVX2), for
// the mhx_kernel_simd_dispatch_total metric. Relaxed monotonic,
// process-wide.
uint64_t simd_dispatch_count();

}  // namespace mhx::xpath

#endif  // MHX_XPATH_KERNELS_H_
