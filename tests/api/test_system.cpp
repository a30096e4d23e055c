#include "api/system.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "workload/kernels.hpp"
#include "workload/registry.hpp"
#include "workload/synthetic.hpp"

namespace em2 {
namespace {

SystemConfig small_config() {
  SystemConfig cfg;
  cfg.threads = 16;
  return cfg;
}

TEST(ApiSystem, MeshMatchesThreadCount) {
  System sys(small_config());
  EXPECT_EQ(sys.mesh().num_cores(), 16);
}

TEST(ApiSystem, Em2TraceRunProducesCoherentReport) {
  System sys(small_config());
  const auto ocean = workload::make_workload("ocean", 16);
  const RunReport r = sys.run(ocean, {.arch = MemArch::kEm2});
  EXPECT_EQ(r.arch, MemArch::kEm2);
  EXPECT_EQ(r.mode, RunMode::kTrace);
  EXPECT_EQ(r.arch_label, "em2");
  EXPECT_EQ(r.workload, "ocean");
  EXPECT_EQ(r.placement, "first-touch");
  EXPECT_EQ(r.accesses, ocean.traces().total_accesses());
  EXPECT_GT(r.migrations, 0u);
  EXPECT_GT(r.network_cost, 0u);
  EXPECT_GT(r.traffic_bits, 0u);
  EXPECT_GT(r.cost_per_access, 0.0);
  EXPECT_EQ(r.run_lengths.total_accesses, ocean.traces().total_accesses());
  EXPECT_FALSE(r.exec.has_value());
  EXPECT_FALSE(r.optimal.has_value());
}

TEST(ApiSystem, RunCoversAllArchesInBothModes) {
  System sys(small_config());
  const auto w = workload::make_workload("sharing-mix", 16);
  for (const MemArch arch : {MemArch::kEm2, MemArch::kEm2Ra, MemArch::kCc}) {
    for (const RunMode mode : {RunMode::kTrace, RunMode::kExec}) {
      const RunReport r = sys.run(w, {.arch = arch, .mode = mode});
      EXPECT_EQ(r.arch, arch);
      EXPECT_EQ(r.mode, mode);
      EXPECT_EQ(r.accesses, w.traces().total_accesses())
          << to_string(arch) << "/" << to_string(mode);
      if (mode == RunMode::kExec) {
        ASSERT_TRUE(r.exec.has_value());
        EXPECT_TRUE(r.exec->consistent)
            << to_string(arch) << " exec run must satisfy the SC witness";
        EXPECT_GT(r.exec->cycles, 0u);
        EXPECT_GT(r.exec->instructions, 0u);
      } else {
        EXPECT_FALSE(r.exec.has_value());
      }
    }
  }
}

TEST(ApiSystem, OptimalModeSectionIsCoherentAndLowerBoundsPolicies) {
  System sys(small_config());
  workload::SharingMixParams p;
  p.threads = 16;
  p.accesses_per_thread = 500;
  const TraceSet traces = workload::make_sharing_mix(p);
  const RunReport opt = sys.run(traces, {.mode = RunMode::kOptimal});
  ASSERT_TRUE(opt.optimal.has_value());
  EXPECT_EQ(opt.arch_label, "optimal-dp");
  EXPECT_EQ(opt.network_cost, opt.optimal->cost);
  EXPECT_EQ(opt.migrations, opt.optimal->migrations);
  EXPECT_EQ(opt.remote_accesses, opt.optimal->remote_accesses);
  // The model ignores evictions, so compare against eviction-free policy
  // costs: use a config with many guest contexts.
  SystemConfig cfg = small_config();
  cfg.em2.guest_contexts = 16;
  System sys2(cfg);
  for (const char* spec : {"always-migrate", "always-remote", "history"}) {
    const RunReport s =
        sys2.run(traces, {.arch = MemArch::kEm2Ra, .policy = spec});
    EXPECT_GE(s.network_cost, opt.optimal->cost) << spec;
  }
}

TEST(ApiSystem, PolicySweepOrdersSanely) {
  System sys(small_config());
  workload::GeometricRunsParams p;
  p.threads = 16;
  p.accesses_per_thread = 1000;
  p.mean_run_length = 3.0;
  const TraceSet traces = workload::make_geometric_runs(p);
  const RunReport mig =
      sys.run(traces, {.arch = MemArch::kEm2Ra, .policy = "always-migrate"});
  const RunReport ra =
      sys.run(traces, {.arch = MemArch::kEm2Ra, .policy = "always-remote"});
  const RunReport hist =
      sys.run(traces, {.arch = MemArch::kEm2Ra, .policy = "history"});
  EXPECT_EQ(mig.remote_accesses, 0u);
  EXPECT_EQ(ra.migrations, 0u);
  EXPECT_LE(hist.network_cost, std::max(mig.network_cost, ra.network_cost));
}

TEST(ApiSystem, CcRunReportsMessages) {
  System sys(small_config());
  workload::SharingMixParams p;
  p.threads = 16;
  p.accesses_per_thread = 300;
  const TraceSet traces = workload::make_sharing_mix(p);
  const RunReport r = sys.run(traces, {.arch = MemArch::kCc});
  EXPECT_EQ(r.arch_label, "cc");
  EXPECT_GT(r.messages, 0u);
  EXPECT_GT(r.traffic_bits, 0u);
  EXPECT_EQ(r.migrations, 0u);  // threads never move under CC
}

TEST(ApiSystem, RawTraceRunsMatchWorkloadRuns) {
  // The TraceSet overload (the path the removed legacy shims wrapped)
  // must agree with the Workload overload on identical traces.
  System sys(small_config());
  const auto w = workload::make_workload("ocean", 16);
  const TraceSet& traces = w.traces();
  const RunReport em2_raw = sys.run(traces, {.arch = MemArch::kEm2});
  const RunReport em2_run = sys.run(w, {.arch = MemArch::kEm2});
  EXPECT_EQ(em2_raw.network_cost, em2_run.network_cost);
  EXPECT_EQ(em2_raw.migrations, em2_run.migrations);
  EXPECT_EQ(em2_raw.arch_label, em2_run.arch_label);
  const RunReport ra_raw =
      sys.run(traces, {.arch = MemArch::kEm2Ra, .policy = "history"});
  const RunReport ra_run =
      sys.run(w, {.arch = MemArch::kEm2Ra, .policy = "history"});
  EXPECT_EQ(ra_raw.network_cost, ra_run.network_cost);
  EXPECT_EQ(ra_raw.remote_accesses, ra_run.remote_accesses);
  const RunReport cc_raw = sys.run(traces, {.arch = MemArch::kCc});
  const RunReport cc_run = sys.run(w, {.arch = MemArch::kCc});
  EXPECT_EQ(cc_raw.network_cost, cc_run.network_cost);
  EXPECT_EQ(cc_raw.messages, cc_run.messages);
  EXPECT_EQ(cc_raw.arch_label, "cc");
  EXPECT_EQ(parse_mem_arch("cc-msi"), MemArch::kCc);  // legacy alias lives on
}

TEST(ApiSystem, AnalyzeRunLengthsMatchesEm2Run) {
  System sys(small_config());
  const auto ocean = workload::make_workload("ocean", 16);
  const RunLengthReport direct = sys.analyze_run_lengths(ocean.traces());
  const RunReport via_run = sys.run(ocean, {.arch = MemArch::kEm2});
  EXPECT_EQ(direct.nonnative_accesses,
            via_run.run_lengths.nonnative_accesses);
  EXPECT_EQ(direct.migrations, via_run.run_lengths.migrations);
}

TEST(ApiSystem, PlacementSchemesChangeOutcomes) {
  const auto ocean = workload::make_workload("ocean", 16);
  System sys(small_config());
  const RunReport ft = sys.run(ocean, {.placement = "first-touch"});
  const RunReport hashed = sys.run(ocean, {.placement = "hashed"});
  EXPECT_EQ(ft.placement, "first-touch");
  EXPECT_EQ(hashed.placement, "hashed");
  // "a good data placement method ... is critical": first-touch must
  // beat hashed placement by a wide margin on a stencil workload.
  EXPECT_LT(ft.network_cost, hashed.network_cost / 2);
}

TEST(ApiSystem, ReplicationSpecBeatsPlainEm2OnReadShared) {
  System sys(small_config());
  const auto w = workload::make_workload("table-lookup", 16);
  const RunReport base = sys.run(w, {.arch = MemArch::kEm2});
  const RunReport repl =
      sys.run(w, {.arch = MemArch::kEm2, .replication = true});
  EXPECT_EQ(repl.arch_label, "em2+ro-replication");
  EXPECT_EQ(repl.accesses, base.accesses);
  EXPECT_LT(repl.migrations, base.migrations / 10);
  EXPECT_LT(repl.network_cost, base.network_cost / 10);
}

TEST(ApiSystem, RunMatrixMatchesIndividualRuns) {
  System sys(small_config());
  const std::vector<workload::Workload> workloads = {
      workload::make_workload("ocean", 16),
      workload::make_workload("uniform", 16)};
  const std::vector<RunSpec> specs = {
      RunSpec{.arch = MemArch::kEm2},
      RunSpec{.arch = MemArch::kEm2Ra, .policy = "history"},
      RunSpec{.arch = MemArch::kCc}};
  const std::vector<RunReport> grid = sys.run_matrix(workloads, specs);
  ASSERT_EQ(grid.size(), workloads.size() * specs.size());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const RunReport& cell = grid[w * specs.size() + s];
      const RunReport solo = sys.run(workloads[w], specs[s]);
      EXPECT_EQ(cell.workload, workloads[w].name());
      EXPECT_EQ(cell.arch, specs[s].arch);
      EXPECT_EQ(cell.network_cost, solo.network_cost)
          << workloads[w].name() << " x " << cell.arch_label;
      EXPECT_EQ(cell.migrations, solo.migrations);
      EXPECT_EQ(cell.cost_per_access, solo.cost_per_access);
    }
  }
}

TEST(ApiSystem, RunMatrixSharesPlacementAcrossSpecs) {
  // Three specs over one workload hit the same (scheme, workload) cache
  // entry; the serial single-spec runs must agree exactly, proving the
  // cached placement is the same deterministic object content.
  System sys(small_config());
  const std::vector<workload::Workload> workloads = {
      workload::make_workload("hotspot", 16)};
  const std::vector<RunSpec> specs = {
      RunSpec{.arch = MemArch::kEm2},
      RunSpec{.arch = MemArch::kEm2, .mode = RunMode::kExec},
      RunSpec{.mode = RunMode::kOptimal}};
  sweep::Options serial;
  serial.num_threads = 1;
  const auto parallel_grid = sys.run_matrix(workloads, specs);
  const auto serial_grid = sys.run_matrix(workloads, specs, serial);
  ASSERT_EQ(parallel_grid.size(), serial_grid.size());
  for (std::size_t i = 0; i < parallel_grid.size(); ++i) {
    EXPECT_EQ(parallel_grid[i].network_cost, serial_grid[i].network_cost);
    EXPECT_EQ(parallel_grid[i].accesses, serial_grid[i].accesses);
    EXPECT_EQ(parallel_grid[i].migrations, serial_grid[i].migrations);
  }
}

TEST(ApiSystem, PlacementCacheKeysOnTraceNotName) {
  // Two Workloads with identical identity strings but different traces
  // must not share a cached placement (the constructor is public, so the
  // name/params tuple is not a trustworthy identity).
  System sys(small_config());
  workload::HotspotParams hot;
  hot.threads = 16;
  hot.accesses_per_thread = 400;
  workload::UniformParams uni;
  uni.threads = 16;
  uni.accesses_per_thread = 400;
  const workload::Workload a("same", 16, 1, 1, workload::make_hotspot(hot));
  const workload::Workload b("same", 16, 1, 1, workload::make_uniform(uni));
  const RunReport ra = sys.run(a, {.arch = MemArch::kEm2});
  const RunReport rb = sys.run(b, {.arch = MemArch::kEm2});
  // Each must match a fresh-System run of the same traces (no sharing).
  const RunReport rb_fresh =
      System(small_config()).run(b.traces(), {.arch = MemArch::kEm2});
  EXPECT_EQ(rb.network_cost, rb_fresh.network_cost);
  EXPECT_EQ(rb.migrations, rb_fresh.migrations);
  EXPECT_NE(ra.network_cost, rb.network_cost);  // genuinely different runs
}

// RunSpec::shards is read by nothing: every exec run takes the
// sequential engine, so shards = 4 reproduces the shards = 1 report
// field for field, arch label included.
TEST(RunSpecSharding, ShardedExactRunReportsIdenticallyToSequential) {
  System sys(SystemConfig{.threads = 16});
  const auto w = workload::make_workload("sharing-mix", 16);
  for (const MemArch arch :
       {MemArch::kEm2, MemArch::kEm2Ra, MemArch::kCc}) {
    const RunReport seq =
        sys.run(w, {.arch = arch, .mode = RunMode::kExec, .shards = 1});
    const RunReport par =
        sys.run(w, {.arch = arch, .mode = RunMode::kExec, .shards = 4});
    ASSERT_TRUE(seq.exec.has_value());
    ASSERT_TRUE(par.exec.has_value());
    EXPECT_EQ(seq.arch_label, par.arch_label);
    EXPECT_EQ(seq.accesses, par.accesses) << to_string(arch);
    EXPECT_EQ(seq.migrations, par.migrations) << to_string(arch);
    EXPECT_EQ(seq.evictions, par.evictions) << to_string(arch);
    EXPECT_EQ(seq.network_cost, par.network_cost) << to_string(arch);
    EXPECT_EQ(seq.traffic_bits, par.traffic_bits) << to_string(arch);
    EXPECT_EQ(seq.exec->cycles, par.exec->cycles) << to_string(arch);
    EXPECT_EQ(seq.exec->instructions, par.exec->instructions)
        << to_string(arch);
    EXPECT_EQ(seq.exec->finish_cycle, par.exec->finish_cycle)
        << to_string(arch);
  }
}

// ---- The single fail-fast error path ------------------------------------

TEST(ApiSystemErrors, UnknownWorkloadThrows) {
  EXPECT_THROW(workload::make_workload("bogus", 16), UnknownNameError);
  try {
    workload::make_workload("bogus", 16);
    FAIL() << "expected UnknownNameError";
  } catch (const UnknownNameError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown workload 'bogus'"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ocean"), std::string::npos);
  }
}

TEST(ApiSystemErrors, UnknownPlacementThrows) {
  SystemConfig cfg = small_config();
  cfg.placement = "bogus";
  System sys(cfg);
  const auto w = workload::make_workload("uniform", 16);
  EXPECT_THROW(sys.run(w), UnknownNameError);
  EXPECT_THROW(sys.run(w.traces()), UnknownNameError);  // TraceSet path too
  // Per-spec override fails the same way on a good config.
  System good(small_config());
  EXPECT_THROW(good.run(w, {.placement = "nope"}), UnknownNameError);
}

TEST(ApiSystemErrors, UnknownPolicyThrowsBeforeRunning) {
  System sys(small_config());
  const auto w = workload::make_workload("uniform", 16);
  for (const RunMode mode : {RunMode::kTrace, RunMode::kExec}) {
    EXPECT_THROW(
        sys.run(w, {.arch = MemArch::kEm2Ra, .mode = mode,
                    .policy = "not-a-policy"}),
        UnknownNameError);
  }
  // Non-RA arches ignore the policy string entirely.
  EXPECT_NO_THROW(
      sys.run(w, {.arch = MemArch::kEm2, .policy = "not-a-policy"}));
}

TEST(ApiSystemErrors, RunMatrixFailsFastOnBadSpec) {
  System sys(small_config());
  const std::vector<workload::Workload> workloads = {
      workload::make_workload("uniform", 16)};
  const std::vector<RunSpec> specs = {
      RunSpec{.arch = MemArch::kEm2},
      RunSpec{.arch = MemArch::kEm2Ra, .policy = "not-a-policy"}};
  EXPECT_THROW(sys.run_matrix(workloads, specs), UnknownNameError);
}

// ---- The one string<->enum mapping --------------------------------------

TEST(ApiModes, ToStringParseRoundTrips) {
  for (const MemArch a : {MemArch::kEm2, MemArch::kEm2Ra, MemArch::kCc}) {
    EXPECT_EQ(parse_mem_arch(to_string(a)), a);
  }
  for (const SchedulerKind k :
       {SchedulerKind::kEventDriven, SchedulerKind::kScan}) {
    EXPECT_EQ(parse_scheduler_kind(to_string(k)), k);
  }
  for (const RunMode m :
       {RunMode::kTrace, RunMode::kExec, RunMode::kOptimal}) {
    EXPECT_EQ(parse_run_mode(to_string(m)), m);
  }
  for (const ContentionMode c :
       {ContentionMode::kNone, ContentionMode::kMeasured,
        ContentionMode::kEstimated}) {
    EXPECT_EQ(parse_contention_mode(to_string(c)), c);
  }
  EXPECT_EQ(parse_mem_arch("em2ra"), MemArch::kEm2Ra);   // alias
  EXPECT_EQ(parse_mem_arch("cc-msi"), MemArch::kCc);     // alias
  EXPECT_EQ(parse_contention_mode("uncontended"),
            ContentionMode::kNone);                      // alias
  EXPECT_EQ(parse_mem_arch("bogus"), std::nullopt);
  EXPECT_EQ(parse_scheduler_kind("bogus"), std::nullopt);
  EXPECT_EQ(parse_run_mode("bogus"), std::nullopt);
  EXPECT_EQ(parse_contention_mode("bogus"), std::nullopt);
}

TEST(ApiModes, ContentionModeNamesAndFailFastEntry) {
  const auto names = contention_mode_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "none");
  EXPECT_EQ(names[1], "measured");
  EXPECT_EQ(names[2], "estimated");
  EXPECT_EQ(contention_mode_from_name("measured"),
            ContentionMode::kMeasured);
  // A bad contention-mode name fails fast at entry with the uniform
  // UnknownNameError message, like every other by-name lookup.
  EXPECT_THROW(contention_mode_from_name("m/d/1"), UnknownNameError);
  try {
    contention_mode_from_name("bogus");
    FAIL() << "expected UnknownNameError";
  } catch (const UnknownNameError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown contention mode 'bogus'"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("measured"), std::string::npos);
  }
}

TEST(ApiCalibrationCache, MemoizedCalibrationIsResultInvariant) {
  // System memoizes the contention calibration per (workload, arch,
  // policy, ...).  The cache may only change who computes the tables
  // first — a warm rerun and a cold fresh-System run must report the
  // same numbers down to the calibration differential.
  SystemConfig cfg;
  cfg.threads = 16;
  const auto w = workload::make_workload("sharing-mix", 16);
  RunSpec spec;
  spec.arch = MemArch::kEm2Ra;
  spec.policy = "history";
  spec.contention = ContentionMode::kMeasured;

  const System warm_sys(cfg);
  const RunReport cold = warm_sys.run(w, spec);
  const RunReport warm = warm_sys.run(w, spec);  // cache hit
  const System fresh_sys(cfg);
  const RunReport fresh = fresh_sys.run(w, spec);  // cache miss, fresh

  for (const RunReport* r : {&warm, &fresh}) {
    EXPECT_EQ(cold.accesses, r->accesses);
    EXPECT_EQ(cold.migrations, r->migrations);
    EXPECT_EQ(cold.remote_accesses, r->remote_accesses);
    EXPECT_EQ(cold.network_cost, r->network_cost);
    EXPECT_EQ(cold.cost_per_access, r->cost_per_access);
    ASSERT_TRUE(r->noc.has_value());
    EXPECT_EQ(cold.noc->calibration_packets, r->noc->calibration_packets);
    EXPECT_EQ(cold.noc->calibration_cycles, r->noc->calibration_cycles);
    EXPECT_EQ(cold.noc->measured_total_latency,
              r->noc->measured_total_latency);
    EXPECT_EQ(cold.noc->predicted_total_latency,
              r->noc->predicted_total_latency);
    EXPECT_EQ(cold.noc->uncontended_total_latency,
              r->noc->uncontended_total_latency);
    EXPECT_EQ(cold.noc->utilization, r->noc->utilization);
    EXPECT_EQ(cold.noc->corrected_per_hop, r->noc->corrected_per_hop);
  }
}

TEST(ApiCalibrationCache, DistinctSpecsDoNotShareCalibrations) {
  // Keys must separate arch, policy, contention mode, and budget: two
  // specs that differ in any of them see their own calibration (the em2
  // capture has no remote traffic; the em2-ra one does — conflating them
  // would corrupt the corrected tables).
  SystemConfig cfg;
  cfg.threads = 16;
  const System sys(cfg);
  const auto w = workload::make_workload("sharing-mix", 16);
  RunSpec ra;
  ra.arch = MemArch::kEm2Ra;
  ra.policy = "history";
  ra.contention = ContentionMode::kMeasured;
  RunSpec em2_spec = ra;
  em2_spec.arch = MemArch::kEm2;
  RunSpec ra_remote = ra;
  ra_remote.policy = "always-remote";
  const RunReport a = sys.run(w, ra);
  const RunReport b = sys.run(w, em2_spec);
  const RunReport c = sys.run(w, ra_remote);
  ASSERT_TRUE(a.noc && b.noc && c.noc);
  // em2 runs no remote traffic; always-remote runs no migrations — their
  // calibration captures (and hence replay sizes) must differ from the
  // history run's.
  EXPECT_NE(a.noc->calibration_packets, b.noc->calibration_packets);
  EXPECT_NE(a.noc->calibration_packets, c.noc->calibration_packets);
  // And each matches its own fresh-System ground truth.
  const System fresh(cfg);
  const RunReport b2 = fresh.run(w, em2_spec);
  EXPECT_EQ(b.noc->measured_total_latency, b2.noc->measured_total_latency);
  EXPECT_EQ(b.network_cost, b2.network_cost);
}

}  // namespace
}  // namespace em2
