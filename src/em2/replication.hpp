// Program-level read-only replication for EM2.
//
// The paper (Section 2) notes that "EM2-specific program-level replication
// techniques have also been explored [12]" (Shim et al., CAOS 2011) as the
// complement to data placement.  The idea: data that is never written
// after initialization cannot violate the single-writer reasoning, so it
// may be *replicated* into any core's cache and read locally — eliminating
// migrations for hot read-only structures (lookup tables, program
// constants) while preserving sequential consistency trivially (all copies
// are forever identical).
//
// We implement the profile-driven variant: classify blocks by their
// whole-trace write count (<= max_writes means "written only during
// initialization"), then run EM2 with reads of replicable blocks served
// locally.  Writes are never replicated; a write to a "replicable" block
// would be a classification bug, so the simulator asserts it cannot occur
// under the classifier's own definition.
#pragma once

#include <unordered_set>

#include "em2/trace_sim.hpp"

namespace em2 {

/// Profiles a trace and returns the blocks that no WORD written more than
/// `max_writes` times across all threads overlaps (default 1: each word
/// written only by its initialization; a block smaller than a word is
/// disqualified with the word).  Write-once-then-read
/// data — lookup tables, program constants — classifies as replicable;
/// anything iteratively updated does not.  The trace streams twice
/// through fresh cursors (profile, then collect), so the classification
/// also runs out-of-core.
std::unordered_set<Addr> replicable_blocks(const TraceSource& traces,
                                           std::uint32_t max_writes = 1);

/// run_em2 with read-only replication: reads of blocks in `replicable`
/// are served at the reading thread's current core (no migration); all
/// other accesses follow the normal Figure-1 flow.  The report gains a
/// "replicated_reads" counter.
Em2RunReport run_em2_replicated(
    const TraceSource& traces, const Placement& placement, const Mesh& mesh,
    const CostModel& cost, const Em2Params& params,
    const std::unordered_set<Addr>& replicable,
    TrafficRecorder* recorder = nullptr);

}  // namespace em2
