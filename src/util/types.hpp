// Fundamental vocabulary types shared by every module.
//
// All identifiers are strong-ish typedefs (plain integers, but named) so that
// signatures read as architecture statements: a function taking (CoreId,
// Addr) cannot be confused with one taking (ThreadId, Cycle).  We keep them
// as plain integers (rather than wrapper classes) because they index into
// dense vectors on hot simulation paths.
#pragma once

#include <cstdint>
#include <limits>

namespace em2 {

/// Index of a processor core (tile) in the mesh, row-major.
using CoreId = std::int32_t;

/// Index of a software thread.  In EM2 every thread has a *native* core
/// (where its native hardware context and stack memory live); in the
/// evaluated configurations thread i's native core is core i.
using ThreadId = std::int32_t;

/// Byte address in the simulated shared address space.
using Addr = std::uint64_t;

/// Simulation time in cycles.
using Cycle = std::uint64_t;

/// Abstract cost in the analytical model (paper Section 3): network cycles.
/// 64-bit because DP sums over multi-million-access traces.
using Cost = std::uint64_t;

/// Sentinel for "no core" / "not yet placed".
inline constexpr CoreId kNoCore = -1;

/// Sentinel for "no thread".
inline constexpr ThreadId kNoThread = -1;

/// Sentinel cost used as +infinity in dynamic programs.  Chosen so that
/// kInfiniteCost + any realistic cost does not overflow.
inline constexpr Cost kInfiniteCost = std::numeric_limits<Cost>::max() / 4;

/// Forces inlining of a protocol hot-path body into its caller's loop.
/// The engines' per-access bodies sit right at the compiler's -O2 size
/// heuristics: left to its own devices GCC keeps e.g. Em2Machine::access
/// out of line inside the EM2-RA specializations, re-introducing a call
/// per access that the sealed-dispatch design exists to remove.  Use
/// sparingly — only on bodies measured to matter.
#if defined(__GNUC__) || defined(__clang__)
#define EM2_ALWAYS_INLINE inline __attribute__((always_inline))
/// The opposite: keeps a cold leg (evictions, modelled caches) from being
/// re-inlined by LTO into the per-access loops it was deliberately
/// extracted from.
#define EM2_NOINLINE __attribute__((noinline))
/// EM2_ALWAYS_INLINE for a lambda's call operator, which takes no
/// `inline`: the per-access lambdas the trace engines hand the
/// round-robin driver.  Left to GCC, a step stayed out of line (a call
/// per access), or was inlined so late that small helpers on the
/// migrate path (Mesh::hops, CostModel::migration_native) no longer fit
/// the loop's inlining budget.
#define EM2_ALWAYS_INLINE_LAMBDA __attribute__((always_inline))
#else
#define EM2_ALWAYS_INLINE inline
#define EM2_NOINLINE
#define EM2_ALWAYS_INLINE_LAMBDA
#endif

/// Kind of memory operation carried by a trace record.
enum class MemOp : std::uint8_t {
  kRead = 0,
  kWrite = 1,
};

/// Returns a short human-readable name ("R"/"W").
constexpr const char* to_string(MemOp op) noexcept {
  return op == MemOp::kRead ? "R" : "W";
}

}  // namespace em2
