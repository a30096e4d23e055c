#include "coherence/cc_sim.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace em2 {

double CcRunReport::mean_latency_per_access() const noexcept {
  const std::uint64_t accesses = counters.get("accesses");
  return accesses == 0 ? 0.0
                       : static_cast<double>(total_latency) /
                             static_cast<double>(accesses);
}

double CcRunReport::messages_per_access() const noexcept {
  const std::uint64_t accesses = counters.get("accesses");
  return accesses == 0 ? 0.0
                       : static_cast<double>(counters.get("messages")) /
                             static_cast<double>(accesses);
}

CcRunReport run_cc(const TraceSource& traces, const Placement& placement,
                   const Mesh& mesh, const CostModel& cost,
                   const DirCcParams& params, TrafficRecorder* recorder) {
  EM2_ASSERT(params.private_cache.line_bytes == traces.block_bytes(),
             "CC line size must match the trace block size so the "
             "directory and the placement agree on line identity");
  const std::size_t nthreads = traces.num_threads();
  DirectoryCC cc(mesh, cost, params, placement);

  std::vector<Cycle> clock;
  if (recorder != nullptr) {
    cc.set_traffic_sink(recorder);
    clock.assign(nthreads, 0);
  }

  std::vector<std::unique_ptr<AccessCursor>> cursor;
  cursor.reserve(nthreads);
  std::vector<CoreId> native;
  native.reserve(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    cursor.push_back(traces.make_cursor(t));
    native.push_back(traces.native_core(t));
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
      const CcAccessResult r = cc.access(native[t], a.addr, a.op);
      if (recorder != nullptr) {
        recorder->stamp(clock[t]);
        clock[t] += 1 + r.latency;
        round_min = std::min(round_min, clock[t]);
      }
    }
    if (recorder != nullptr && recorder->complete(round_min)) {
      break;  // a capture-only run: every packet it keeps is recorded
    }
  }

  CcRunReport report;
  report.counters = cc.counters().named();
  report.total_latency = cc.total_latency();
  report.traffic_bits = cc.traffic_bits();
  report.replication_factor = cc.replication_factor();
  report.directory_bits = cc.directory_bits();
  report.distinct_lines = cc.distinct_resident_lines();
  report.valid_lines = cc.total_valid_lines();
  return report;
}

CcRunReport run_cc(const TraceSet& traces, const Placement& placement,
                   const Mesh& mesh, const CostModel& cost,
                   const DirCcParams& params, TrafficRecorder* recorder) {
  return run_cc(MemoryTraceSource(traces), placement, mesh, cost, params,
                recorder);
}

}  // namespace em2
