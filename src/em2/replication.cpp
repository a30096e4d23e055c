#include "em2/replication.hpp"

#include <unordered_map>

#include "em2/trace_loop.hpp"
#include "util/page_table.hpp"

namespace em2 {

std::unordered_set<Addr> replicable_blocks(const TraceSource& traces,
                                           std::uint32_t max_writes) {
  // Per-word write counts (word = 4-byte granule).
  std::unordered_map<Addr, std::uint32_t> word_writes;
  for (std::size_t t = 0; t < traces.num_threads(); ++t) {
    auto cursor = traces.make_cursor(t);
    while (const Access* a = cursor->next()) {
      if (a->op == MemOp::kWrite) {
        ++word_writes[a->addr >> 2];
      }
    }
  }
  // A block is disqualified if any word overlapping it exceeds the
  // threshold.  A word lies in one block of >= 4 bytes, or spans two or
  // four blocks of 2 or 1 bytes.
  std::unordered_set<Addr> bad;
  // determinism: membership-only — `bad`'s final contents are the same
  // for any iteration order over the per-word counts.
  for (const auto& [word, count] : word_writes) {
    if (count > max_writes) {
      const Addr first = traces.block_of(word << 2);
      const Addr blocks = traces.block_of((word << 2) | 3) - first + 1;
      for (Addr i = 0; i < blocks; ++i) {
        bad.insert(first + i);
      }
    }
  }
  std::unordered_set<Addr> result;
  for (std::size_t t = 0; t < traces.num_threads(); ++t) {
    auto cursor = traces.make_cursor(t);
    while (const Access* a = cursor->next()) {
      const Addr block = traces.block_of(a->addr);
      if (bad.count(block) == 0) {
        result.insert(block);
      }
    }
  }
  return result;
}

Em2RunReport run_em2_replicated(
    const TraceSource& traces, const Placement& placement, const Mesh& mesh,
    const CostModel& cost, const Em2Params& params,
    const std::unordered_set<Addr>& replicable,
    TrafficRecorder* recorder) {
  Em2Machine machine(mesh, cost, params, native_cores(traces));
  // Flat membership for the per-read test: one bit per block, 64 blocks
  // per page.
  PageTable<std::uint64_t> replica_bits;
  // determinism: membership-only — the bits set are the same for any
  // iteration order over `replicable`.
  for (const Addr block : replicable) {
    replica_bits.get(block >> 6) |= std::uint64_t{1} << (block & 63);
  }
  std::uint64_t replicated_reads = 0;
  // A replicated read is "wherever the thread already is": it continues
  // the thread's current run, so it is kept out of the run-length
  // analysis (it no longer causes a migration).
  Em2RunReport report = detail::run_em2_family(
      traces, placement, machine, recorder, nullptr,
      [&](const Access& a, Addr block) {
        if (a.op != MemOp::kRead) {
          return false;
        }
        const std::uint64_t* bits = replica_bits.find(block >> 6);
        if (bits == nullptr || (*bits >> (block & 63) & 1) == 0) {
          return false;
        }
        // Read of a read-only block: served from a local replica, no
        // migration, no network traffic.  All replicas are identical by
        // construction (the block is never written post-initialization),
        // so sequential consistency is unaffected.
        ++replicated_reads;
        return true;
      },
      // Writes to replicable blocks are the initialization writes the
      // classifier allowed; they still execute at the home (single copy
      // is updated before any replica is read in the steady state under
      // the profile's definition).
      [&](ThreadId t, CoreId home, const Access& a,
          Addr) EM2_ALWAYS_INLINE_LAMBDA -> Cycle {
        const AccessOutcome out = machine.access(t, home, a.op, a.addr);
        return 1 + out.thread_cost + out.memory_latency;
      });
  if (replicated_reads != 0) {
    // Replicated reads bypass the machine, so they join its counts here.
    CounterSet extra;
    extra.inc("replicated_reads", replicated_reads);
    extra.inc("accesses", replicated_reads);
    extra.inc("reads", replicated_reads);
    report.counters.merge(extra);
  }
  return report;
}

}  // namespace em2
