#include "em2/replication.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <unordered_map>

#include "util/assert.hpp"

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
  // A block is disqualified if any of its words exceeds the threshold.
  std::unordered_set<Addr> bad;
  const std::uint32_t word_shift =
      traces.block_bytes() >= 4
          ? static_cast<std::uint32_t>(
                std::countr_zero(traces.block_bytes() / 4))
          : 0;
  // determinism: membership-only — `bad`'s final contents are the same
  // for any iteration order over the per-word counts.
  for (const auto& [word, count] : word_writes) {
    if (count > max_writes) {
      bad.insert(word >> word_shift);
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

std::unordered_set<Addr> replicable_blocks(const TraceSet& traces,
                                           std::uint32_t max_writes) {
  return replicable_blocks(MemoryTraceSource(traces), max_writes);
}

Em2RunReport run_em2_replicated(
    const TraceSource& traces, const Placement& placement, const Mesh& mesh,
    const CostModel& cost, const Em2Params& params,
    const std::unordered_set<Addr>& replicable,
    TrafficRecorder* recorder) {
  const std::size_t nthreads = traces.num_threads();
  std::vector<CoreId> native;
  native.reserve(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    native.push_back(traces.native_core(t));
  }
  Em2Machine machine(mesh, cost, params, std::move(native));

  std::vector<Cycle> clock;
  if (recorder != nullptr) {
    machine.set_traffic_sink(recorder);
    clock.assign(nthreads, 0);
  }

  // Run-length analysis folds into the loop with replicated reads
  // removed from the home sequence (they no longer cause migrations): a
  // replicated read is "wherever the thread already is", modeled as
  // continuing the previous run by simply not observing the access.
  RunLengthAnalyzer analyzer;
  std::vector<RunLengthAnalyzer::ThreadState> rl;
  rl.reserve(nthreads);

  CounterSet extra;
  std::vector<std::unique_ptr<AccessCursor>> cursor;
  cursor.reserve(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    cursor.push_back(traces.make_cursor(t));
    rl.push_back(RunLengthAnalyzer::begin_thread(traces.native_core(t)));
  }
  bool progressed = true;
  while (progressed) {
    progressed = false;
    Cycle round_min = std::numeric_limits<Cycle>::max();
    for (std::size_t t = 0; t < nthreads; ++t) {
      const Access* ap = cursor[t]->next();
      if (ap == nullptr) {
        continue;
      }
      const Access& a = *ap;
      progressed = true;
      const Addr block = traces.block_of(a.addr);
      if (a.op == MemOp::kRead && replicable.count(block) != 0) {
        // Read of a read-only block: served from a local replica, no
        // migration, no network traffic.  All replicas are identical by
        // construction (the block is never written post-initialization),
        // so sequential consistency is unaffected.
        extra.inc("replicated_reads");
        extra.inc("accesses");
        extra.inc("reads");
        if (recorder != nullptr) {
          clock[t] += 1;  // local read: compute only, no packets
          round_min = std::min(round_min, clock[t]);
        }
        continue;
      }
      // Writes to replicable blocks are the initialization writes the
      // classifier allowed; they still execute at the home (single copy
      // is updated before any replica is read in the steady state under
      // the profile's definition).
      const CoreId home = placement.home_of_block(block);
      analyzer.observe(rl[t], home);
      const AccessOutcome out =
          machine.access(static_cast<ThreadId>(t), home, a.op, a.addr);
      if (recorder != nullptr) {
        recorder->stamp(clock[t]);
        clock[t] += 1 + out.thread_cost + out.memory_latency;
        round_min = std::min(round_min, clock[t]);
      }
    }
    if (recorder != nullptr && recorder->complete(round_min)) {
      break;  // a capture-only run: every packet it keeps is recorded
    }
  }
  for (std::size_t t = 0; t < nthreads; ++t) {
    analyzer.finish_thread(rl[t]);
  }

  Em2RunReport report;
  report.counters = machine.counters().named();
  report.counters.merge(extra);
  report.total_thread_cost = machine.total_thread_cost();
  report.total_eviction_cost = machine.total_eviction_cost();
  report.per_thread_cost.reserve(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    report.per_thread_cost.push_back(
        machine.thread_cost(static_cast<ThreadId>(t)));
  }
  for (int vn = 0; vn < vnet::kNumVnets; ++vn) {
    report.vnet_bits[static_cast<std::size_t>(vn)] = machine.vnet_bits(vn);
  }
  report.cache_totals = machine.cache_totals();
  report.run_lengths = analyzer.report();
  return report;
}

Em2RunReport run_em2_replicated(
    const TraceSet& traces, const Placement& placement, const Mesh& mesh,
    const CostModel& cost, const Em2Params& params,
    const std::unordered_set<Addr>& replicable,
    TrafficRecorder* recorder) {
  return run_em2_replicated(MemoryTraceSource(traces), placement, mesh,
                            cost, params, replicable, recorder);
}

}  // namespace em2
