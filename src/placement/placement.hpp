// Data placement: the address -> home-core assignment d(.) of the paper.
//
// Under EM2 every cache block is cacheable at exactly one core (its home);
// "a good data placement method (one which keeps a thread's private data
// assigned to that thread's native core, and allocates shared data among
// the sharers) is critical" (paper, Section 2).  The paper's evaluation
// uses first-touch placement; we provide that plus ablation alternatives.
//
// Placement operates on *blocks* (cache lines): block = addr >> log2(block
// size), matching TraceSource::block_of.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/page_table.hpp"
#include "util/types.hpp"

namespace em2 {

/// The address-to-home-core map: a table of explicit block homes over a
/// fallback rule for the blocks the table leaves unassigned.  Every
/// scheme is one of these.  Striped and hashed are an empty table over
/// their fallback; first-touch and profile-greedy fill the table from a
/// trace and fall back to striping.
///
/// The table is a flat PageTable of 16 homes per page (kNoCore =
/// unassigned), so the lookup every trace engine makes per access is one
/// direct call: one multiply, one slot read and one page read.
class Placement {
 public:
  /// An empty table over striping, named "table"; fill it with assign().
  explicit Placement(std::int32_t num_cores)
      : Placement(num_cores, Fallback::kStriped, "table") {}

  /// Blocks striped round-robin across cores ("striped").
  static Placement striped(std::int32_t num_cores) {
    return {num_cores, Fallback::kStriped, "striped"};
  }
  /// Blocks placed by a hash of the block index ("hashed").
  static Placement hashed(std::int32_t num_cores) {
    return {num_cores, Fallback::kHashed, "hashed"};
  }

  /// First-touch placement — what the paper's evaluation uses.  The
  /// first thread to touch a block becomes its home (at that thread's
  /// native core).  "First" is defined by the round-robin interleave the
  /// trace-mode engines replay (trace/round_robin.hpp): one access per
  /// thread per round, so within a round the lower thread id touches
  /// first.  This mirrors how first-touch behaves when all threads start
  /// together, and makes runs reproducible.
  static Placement first_touch(const TraceSource& traces,
                               std::int32_t num_cores);

  /// Profile-greedy placement: each block goes to the native core of the
  /// thread that accesses it most (ties to the lower core id).  The
  /// strongest static placement a profile-driven system could pick, used
  /// as the "good placement" pole in ablations.
  static Placement profile_greedy(const TraceSource& traces,
                                  std::int32_t num_cores);

  /// Home core of placement block `block` (NOT a byte address).
  CoreId home_of_block(Addr block) const;

  /// Short scheme name for reports ("first-touch", "striped", ...).
  const std::string& name() const noexcept { return name_; }

  /// Assigns (or reassigns) a block's home.
  void assign(Addr block, CoreId home);

  /// Blocks with an explicit table entry.
  std::size_t assigned_blocks() const noexcept { return assigned_; }

  /// Per-core count of assigned blocks (placement balance metric).
  std::vector<std::uint64_t> blocks_per_core() const;

 private:
  /// Home rule for blocks with no table entry.
  enum class Fallback : std::uint8_t {
    /// Block b -> b mod P.  The placement-oblivious baseline: spreads
    /// load but ignores locality.
    kStriped,
    /// Block b -> splitmix64(b) mod P.  Destroys both locality and
    /// structure: the worst reasonable placement, the "bad placement"
    /// pole in ablations.
    kHashed,
  };

  struct HomePage {
    HomePage() { core.fill(kNoCore); }
    std::array<CoreId, 16> core;
  };

  Placement(std::int32_t num_cores, Fallback fallback, std::string name);

  /// The home of `block`, kNoCore while unassigned.  Whoever stores a
  /// home into a kNoCore cell bumps assigned_.  The reference is valid
  /// until the next home_cell call.
  CoreId& home_cell(Addr block) {
    return table_.get(block >> 4).core[block & 15];
  }

  std::int32_t num_cores_;
  Fallback fallback_;
  std::size_t assigned_ = 0;
  PageTable<HomePage> table_;
  std::string name_;
};

/// Computes the per-access home-core sequence d(m_1..m_N) for a thread —
/// the input to run-length analysis and to the DP optimal solver.
std::vector<CoreId> home_sequence(const ThreadTrace& thread,
                                  const TraceSet& traces,
                                  const Placement& placement);

/// Factory by name ("striped" | "hashed" | "first-touch" |
/// "profile-greedy"); returns nullptr for unknown names.  Trace-derived
/// schemes stream the trace through cursors, so they also build
/// out-of-core.
std::unique_ptr<Placement> make_placement(const std::string& scheme,
                                          const TraceSource& traces,
                                          std::int32_t num_cores);

/// The scheme names make_placement understands, for CLI help and
/// fail-fast error messages.
std::vector<std::string> placement_names();

}  // namespace em2
