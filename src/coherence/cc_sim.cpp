#include "coherence/cc_sim.hpp"

#include "trace/round_robin.hpp"
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
  DirectoryCC cc(mesh, cost, params, placement);
  cc.set_traffic_sink(recorder);
  const std::vector<CoreId> native = native_cores(traces);
  for_each_round_robin(
      traces, recorder, [&](std::size_t t, const Access& a) -> Cycle {
        return 1 + cc.access(native[t], a.addr, a.op).latency;
      });

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

}  // namespace em2
