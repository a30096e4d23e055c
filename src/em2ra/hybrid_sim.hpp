// Trace-driven EM2-RA simulation with a pluggable decision policy: the
// same EM²-family trace loop as run_em2 (em2/trace_sim.hpp), with each
// access served by HybridMachine::access_hybrid.
#pragma once

#include <string>

#include "em2/trace_sim.hpp"
#include "em2ra/hybrid_machine.hpp"
#include "em2ra/policy.hpp"

namespace em2 {

/// EM2-RA run report: the EM2 report plus remote-access accounting.
struct HybridRunReport {
  Em2RunReport em2;
  std::string policy_name;
  std::uint64_t remote_accesses = 0;
  std::uint64_t remote_request_bits = 0;
  std::uint64_t remote_reply_bits = 0;

  /// Fraction of non-local accesses served by remote access.
  double remote_fraction() const noexcept;
};

/// Runs EM2-RA over `traces` with `placement` and `policy` in the
/// round-robin interleave of trace/round_robin.hpp, through the loop
/// run_em2 uses (streamed and in-memory sources share it).  A non-null `recorder`
/// captures every protocol packet — migrations, evictions, and remote
/// request/reply pairs — for the contention calibration pass.
///
/// The whole trace loop is specialized on the policy's concrete type by
/// ONE StandardPolicy::visit hoisted outside it: a sealed scheme pays no
/// virtual call per access, the kCustom alternative (StandardPolicy::custom
/// or a "custom:<spec>" spec) runs the same loop against the virtual
/// DecisionPolicy interface — the path the sealed one is diffed against
/// (tests/em2ra/test_dispatch_equivalence.cpp).  Every access is one
/// HybridMachine::access_hybrid traversal — the same body the
/// execution-driven engines and bench_hot_path drive.
HybridRunReport run_em2ra(const TraceSource& traces,
                          const Placement& placement, const Mesh& mesh,
                          const CostModel& cost, const Em2Params& params,
                          StandardPolicy& policy,
                          TrafficRecorder* recorder = nullptr,
                          FaultInjector* faults = nullptr);

}  // namespace em2
