// Data placement: the address -> home-core assignment d(.) of the paper.
//
// Under EM2 every cache block is cacheable at exactly one core (its home);
// "a good data placement method (one which keeps a thread's private data
// assigned to that thread's native core, and allocates shared data among
// the sharers) is critical" (paper, Section 2).  The paper's evaluation
// uses first-touch placement; we provide that plus ablation alternatives.
//
// Placement operates on *blocks* (cache lines): block = addr >> log2(block
// size), matching TraceSet::block_of.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/stream/source.hpp"
#include "trace/trace.hpp"
#include "util/page_table.hpp"
#include "util/types.hpp"

namespace em2 {

/// Abstract address-to-home-core map.
class Placement {
 public:
  virtual ~Placement() = default;

  /// Home core of placement block `block` (NOT a byte address).
  virtual CoreId home_of_block(Addr block) const = 0;

  /// Short scheme name for reports ("first-touch", "striped", ...).
  virtual std::string name() const = 0;

  /// Convenience: home core of byte address `addr` for a given block size
  /// bookkeeping object.
  CoreId home_of(Addr addr, const TraceSet& traces) const {
    return home_of_block(traces.block_of(addr));
  }
};

/// Blocks striped round-robin across cores: block b -> b mod P.
/// The placement-oblivious baseline: spreads load but ignores locality.
class StripedPlacement final : public Placement {
 public:
  explicit StripedPlacement(std::int32_t num_cores);
  CoreId home_of_block(Addr block) const override;
  std::string name() const override { return "striped"; }

 private:
  std::int32_t num_cores_;
};

/// Blocks placed by a splitmix64 hash of the block index: destroys both
/// locality and structure (worst reasonable placement; used as the "bad
/// placement" pole in ablations).
class HashedPlacement final : public Placement {
 public:
  HashedPlacement(std::int32_t num_cores, std::uint64_t salt = 0);
  CoreId home_of_block(Addr block) const override;
  std::string name() const override { return "hashed"; }

 private:
  std::int32_t num_cores_;
  std::uint64_t salt_;
};

/// An explicit block -> core table with a fallback for unmapped blocks.
/// Base class for trace-derived placements; also usable directly.
///
/// The table is a flat PageTable of 16 homes per page (kNoCore =
/// unassigned), so a lookup of an assigned block is one multiply, one
/// slot read and one page read.
class TablePlacement : public Placement {
 public:
  explicit TablePlacement(std::int32_t num_cores);

  CoreId home_of_block(Addr block) const override;
  std::string name() const override { return "table"; }

  /// Assigns (or reassigns) a block's home.
  void assign(Addr block, CoreId home);

  /// Blocks with no explicit assignment fall back to striping.
  std::size_t assigned_blocks() const noexcept { return assigned_; }

  /// Per-core count of assigned blocks (placement balance metric).
  std::vector<std::uint64_t> blocks_per_core() const;

 protected:
  /// The home of `block`, kNoCore while unassigned.  Whoever stores a
  /// home into a kNoCore cell bumps assigned_.  The reference is valid
  /// until the next home_cell call.
  CoreId& home_cell(Addr block) {
    return table_.get(block >> 4).core[block & 15];
  }

  std::int32_t num_cores_;
  std::size_t assigned_ = 0;

 private:
  struct HomePage {
    HomePage() { core.fill(kNoCore); }
    std::array<CoreId, 16> core;
  };
  PageTable<HomePage> table_;
};

/// First-touch placement — what the paper's evaluation uses.  The first
/// thread to touch a block becomes its home (at that thread's native
/// core).  "First" is defined by the round-robin interleave the trace-mode
/// engines replay (trace/round_robin.hpp): one access per thread per
/// round, so within a round the lower thread id touches first.  This
/// mirrors how first-touch behaves when all threads start together, and
/// makes runs reproducible.
class FirstTouchPlacement final : public TablePlacement {
 public:
  FirstTouchPlacement(const TraceSource& traces, std::int32_t num_cores);
  FirstTouchPlacement(const TraceSet& traces, std::int32_t num_cores)
      : FirstTouchPlacement(MemoryTraceSource(traces), num_cores) {}
  std::string name() const override { return "first-touch"; }
};

/// Profile-greedy placement: each block goes to the native core of the
/// thread that accesses it most (ties to the lower core id).  This is the
/// strongest static placement a profile-driven system could pick, used as
/// the "good placement" pole in ablations.
class ProfileGreedyPlacement final : public TablePlacement {
 public:
  ProfileGreedyPlacement(const TraceSource& traces, std::int32_t num_cores);
  ProfileGreedyPlacement(const TraceSet& traces, std::int32_t num_cores)
      : ProfileGreedyPlacement(MemoryTraceSource(traces), num_cores) {}
  std::string name() const override { return "profile-greedy"; }
};

/// Computes the per-access home-core sequence d(m_1..m_N) for a thread —
/// the input to run-length analysis and to the DP optimal solver.
std::vector<CoreId> home_sequence(const ThreadTrace& thread,
                                  const TraceSet& traces,
                                  const Placement& placement);

/// Factory by name ("striped" | "hashed" | "first-touch" |
/// "profile-greedy"); returns nullptr for unknown names.  The
/// TraceSource form streams the trace through cursors, so trace-derived
/// schemes also build out-of-core.
std::unique_ptr<Placement> make_placement(const std::string& scheme,
                                          const TraceSource& traces,
                                          std::int32_t num_cores);
std::unique_ptr<Placement> make_placement(const std::string& scheme,
                                          const TraceSet& traces,
                                          std::int32_t num_cores);

/// The scheme names make_placement understands, for CLI help and
/// fail-fast error messages.
std::vector<std::string> placement_names();

}  // namespace em2
