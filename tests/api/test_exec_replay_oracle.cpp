// Exec mode replays each thread's trace in place through a ReplayCursor
// (workload/replay.hpp) instead of compiling it into a stored program
// first.  This differential pins System::run in exec mode to the stored-
// program path it replaced: an ExecSystem configured the way System::run
// configures it and fed compile_replay_programs must produce the same
// report, field for field, on every registry workload, for em2, em2-ra
// (distance:4 and history) and cc under both schedulers, and under a
// fault scenario.  A third run feeds the same ExecSystem cursors
// directly, so every ExecReport field (the full counter set, the
// diagnosis, the conservation check) is compared too, not only the ones
// RunReport carries.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/system.hpp"
#include "sim/exec_system.hpp"
#include "sim/faults.hpp"
#include "workload/registry.hpp"
#include "workload/replay.hpp"
#include "workload/workload.hpp"

namespace em2 {
namespace {

enum class Feed { kCompiled, kCursor };

/// An ExecSystem set up as System::run_exec sets it up, fed either the
/// compiled replay programs or replay cursors.
ExecReport run_direct(const System& sys, const TraceSet& traces,
                      const RunSpec& spec, Feed feed,
                      FaultInjector* faults = nullptr) {
  const std::unique_ptr<Placement> placement =
      sys.make_placement_for(traces);
  ExecParams params;
  params.arch = spec.arch;
  params.scheduler = spec.scheduler;
  params.em2 = sys.config().em2;
  params.cc = sys.config().cc;
  params.cc.private_cache.line_bytes = traces.block_bytes();
  params.ra_policy = spec.policy;
  params.block_bytes = traces.block_bytes();
  params.faults = faults;
  params.watchdog_cycles = spec.watchdog_cycles;
  ExecSystem exec(sys.mesh(), sys.cost_model(), params, *placement);
  if (feed == Feed::kCompiled) {
    std::vector<RProgram> programs = workload::compile_replay_programs(traces);
    for (std::size_t t = 0; t < programs.size(); ++t) {
      exec.add_thread(std::move(programs[t]), traces.thread(t).native_core());
    }
  } else {
    for (const ThreadTrace& thread : traces.threads()) {
      exec.add_thread(workload::ReplayCursor(thread, traces.num_threads()),
                      thread.native_core());
    }
  }
  return exec.run(spec.max_cycles);
}

void expect_same_violations(const std::vector<ConsistencyViolation>& a,
                            const std::vector<ConsistencyViolation>& b,
                            const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].what, b[i].what) << what;
    EXPECT_EQ(a[i].thread, b[i].thread) << what;
    EXPECT_EQ(a[i].addr, b[i].addr) << what;
  }
}

/// Every ExecReport field.
void expect_same(const ExecReport& a, const ExecReport& b,
                 const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.counters.all(), b.counters.all()) << what;
  EXPECT_EQ(a.consistent, b.consistent) << what;
  EXPECT_EQ(a.timed_out, b.timed_out) << what;
  EXPECT_EQ(a.watchdog_fired, b.watchdog_fired) << what;
  EXPECT_EQ(a.diagnosis, b.diagnosis) << what;
  EXPECT_EQ(a.conservation_ok, b.conservation_ok) << what;
  expect_same_violations(a.violations, b.violations, what);
  EXPECT_EQ(a.finish_cycle, b.finish_cycle) << what;
}

/// Every ExecReport field that System::run carries into its RunReport.
void expect_same(const RunReport& run, const ExecReport& ref,
                 const std::string& what) {
  ASSERT_TRUE(run.exec.has_value()) << what;
  EXPECT_EQ(run.exec->cycles, ref.cycles) << what;
  EXPECT_EQ(run.exec->instructions, ref.instructions) << what;
  EXPECT_EQ(run.exec->consistent, ref.consistent) << what;
  EXPECT_EQ(run.exec->timed_out, ref.timed_out) << what;
  EXPECT_EQ(run.exec->watchdog_fired, ref.watchdog_fired) << what;
  expect_same_violations(run.exec->violations, ref.violations, what);
  EXPECT_EQ(run.exec->finish_cycle, ref.finish_cycle) << what;
  EXPECT_EQ(run.accesses, ref.counters.get("accesses")) << what;
  EXPECT_EQ(run.migrations, ref.counters.get("migrations")) << what;
  EXPECT_EQ(run.evictions, ref.counters.get("evictions")) << what;
  EXPECT_EQ(run.remote_accesses, ref.counters.get("remote_accesses"))
      << what;
  EXPECT_EQ(run.messages, ref.counters.get("messages")) << what;
  if (run.resilience) {
    EXPECT_EQ(run.resilience->conservation_ok, ref.conservation_ok) << what;
    EXPECT_EQ(run.resilience->diagnosis, ref.diagnosis) << what;
  }
}

/// System::run against both direct feeds.
void expect_oracle_agrees(const System& sys, const workload::Workload& w,
                          const RunSpec& spec, const std::string& what) {
  const RunReport run = sys.run(w, spec);
  const ExecReport compiled = run_direct(sys, w.traces(), spec, Feed::kCompiled);
  const ExecReport cursor = run_direct(sys, w.traces(), spec, Feed::kCursor);
  EXPECT_TRUE(compiled.consistent) << what;
  expect_same(run, compiled, what + " (System::run)");
  expect_same(cursor, compiled, what + " (cursor feed)");
}

class ReplayOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReplayOracle, SystemRunMatchesCompiledPrograms) {
  const std::string name = workload::workload_names()[GetParam()];
  // 16 and 32 threads, in turn across the registry (the scan scheduler
  // probes every thread on every core each cycle, so it stays small; the
  // relaxed scenario below runs 64).
  const std::int32_t threads = std::int32_t{16} << (GetParam() % 2);
  SystemConfig cfg;
  cfg.threads = threads;
  const System sys(cfg);
  const workload::Workload w = workload::make_workload(name, threads, 1, 3);
  const std::vector<RunSpec> archs = {
      {.arch = MemArch::kEm2},
      {.arch = MemArch::kEm2Ra, .policy = "distance:4"},
      {.arch = MemArch::kEm2Ra, .policy = "history"},
      {.arch = MemArch::kCc},
  };
  for (const SchedulerKind sched :
       {SchedulerKind::kEventDriven, SchedulerKind::kScan}) {
    for (RunSpec spec : archs) {
      spec.mode = RunMode::kExec;
      spec.scheduler = sched;
      expect_oracle_agrees(sys, w, spec,
                           name + "@" + std::to_string(threads) + " " +
                               to_string(spec.arch) + " " + spec.policy +
                               (sched == SchedulerKind::kScan ? " scan"
                                                              : " event"));
    }
  }
}

std::string oracle_name(const ::testing::TestParamInfo<std::size_t>& info) {
  std::string name = workload::workload_names()[info.param];
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ReplayOracle,
    ::testing::Range<std::size_t>(0, workload::workload_names().size()),
    oracle_name);

TEST(ReplayOracleScenarios, FaultScenarioMatchesCompiledPrograms) {
  SystemConfig cfg;
  cfg.threads = 16;
  const System sys(cfg);
  const workload::Workload w = workload::make_workload("ocean", 16, 1, 3);
  RunSpec spec{.arch = MemArch::kEm2Ra, .mode = RunMode::kExec,
               .policy = "history"};
  spec.faults =
      fault_spec_from_string("drop=0.05,stall=0.001:100,kill=9@3000,seed=11");
  const RunReport run = sys.run(w, spec);

  FaultInjector compiled_faults(spec.faults, sys.mesh().num_cores());
  const ExecReport compiled = run_direct(sys, w.traces(), spec,
                                         Feed::kCompiled, &compiled_faults);
  FaultInjector cursor_faults(spec.faults, sys.mesh().num_cores());
  const ExecReport cursor =
      run_direct(sys, w.traces(), spec, Feed::kCursor, &cursor_faults);

  ASSERT_TRUE(run.resilience.has_value());
  EXPECT_GT(compiled_faults.stats().injected, 0u) << "no fault was injected";
  expect_same(run, compiled, "faulted (System::run)");
  expect_same(cursor, compiled, "faulted (cursor feed)");
  EXPECT_EQ(cursor_faults.events(), compiled_faults.events());
  EXPECT_EQ(cursor_faults.stats().injected, compiled_faults.stats().injected);
  EXPECT_EQ(run.resilience->events, compiled_faults.events());
  EXPECT_EQ(run.resilience->stats.injected, compiled_faults.stats().injected);
  EXPECT_EQ(run.resilience->stats.recovered,
            compiled_faults.stats().recovered);
  EXPECT_EQ(run.resilience->stats.recovery_cost,
            compiled_faults.stats().recovery_cost);
}

}  // namespace
}  // namespace em2
