#include "api/system.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "em2/replication.hpp"
#include "optimal/policy_eval.hpp"
#include "trace/stream/convert.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"
#include "workload/registry.hpp"

namespace em2 {

namespace {

void finish_cost_per_access(RunReport& out) {
  out.cost_per_access = out.accesses
                            ? static_cast<double>(out.network_cost) /
                                  static_cast<double>(out.accesses)
                            : 0.0;
}

/// The fill common to the EM2-flavoured trace reports; a faulted run
/// (non-null `faults`) also reports its thread-conservation verdict.
void fill_from_em2_report(RunReport& out, const Em2RunReport& r,
                          const FaultInjector* faults) {
  out.accesses = r.counters.get("accesses");
  out.migrations = r.counters.get("migrations");
  out.evictions = r.counters.get("evictions");
  out.replicated_reads = r.counters.get("replicated_reads");
  out.network_cost = r.total_thread_cost + r.total_eviction_cost;
  for (const std::uint64_t bits : r.vnet_bits) {
    out.traffic_bits += bits;
  }
  out.run_lengths = r.run_lengths;
  if (faults != nullptr) {
    out.resilience.emplace();
    out.resilience->conservation_ok = r.thread_conservation_ok;
  }
  finish_cost_per_access(out);
}

}  // namespace

System::System(const SystemConfig& config)
    : config_(config),
      mesh_(Mesh::near_square(config.threads)),
      cost_(mesh_, config.cost) {
  EM2_ASSERT(config.threads >= 1, "need at least one thread");
}

void System::validate(const RunSpec& spec) const {
  if (spec.contention == ContentionMode::kMeasured &&
      spec.calibration_packets == 0) {
    // Catchable like every other bad-spec entry check: a zero-packet
    // replay would report uncorrected tables as "measured".
    throw std::invalid_argument(
        "RunSpec: kMeasured calibration needs a non-zero "
        "calibration_packets budget");
  }
  if (spec.faults.any()) {
    if (spec.arch == MemArch::kCc) {
      throw std::invalid_argument(
          "RunSpec: fault injection is EM2/EM2-RA only (no CC fault "
          "model)");
    }
    if (spec.replication) {
      throw std::invalid_argument(
          "RunSpec: fault injection does not compose with read-only "
          "replication (replicated reads have no single home to remap)");
    }
    // Validates kill cores against the mesh and the at-least-one-core-
    // survives rule (std::invalid_argument), before any engine runs.
    (void)FaultInjector(spec.faults, mesh_.num_cores());
  }
  const std::string& scheme =
      spec.placement.empty() ? config_.placement : spec.placement;
  const auto schemes = placement_names();
  if (std::find(schemes.begin(), schemes.end(), scheme) == schemes.end()) {
    fail_unknown("placement", scheme, schemes);
  }
  if (spec.arch == MemArch::kEm2Ra) {
    // Throws UnknownNameError for unknown specs; also admits the
    // "custom:<spec>" form that forces the virtual escape hatch.
    StandardPolicy::validate_spec(spec.policy);
  }
}

std::shared_ptr<const Placement> System::build_placement(
    const std::string& scheme, const TraceSource& traces) const {
  auto placement = make_placement(scheme, traces, mesh_.num_cores());
  if (placement == nullptr) {
    fail_unknown("placement", scheme, placement_names());
  }
  return placement;
}

std::shared_ptr<const Placement> System::placement_for(
    const workload::Workload& workload, const RunSpec& spec) const {
  const std::string& scheme =
      spec.placement.empty() ? config_.placement : spec.placement;
  // Key on the trace OBJECT, not the workload's name/params: the Workload
  // constructor is public, so two workloads with equal identity strings
  // can carry different traces.  The weak_ptr check makes a dead (or
  // address-reused) trace read as a miss.
  const std::shared_ptr<const TraceSet>& traces = workload.shared_traces();
  char ptr_key[32];
  std::snprintf(ptr_key, sizeof ptr_key, "%p",
                static_cast<const void*>(traces.get()));
  const std::string key = scheme + "|" + ptr_key;
  return placement_cache_.get_or_build(key, traces, [&] {
    return build_placement(scheme, *traces);
  });
}

std::unique_ptr<Placement> System::make_placement_for(
    const TraceSet& traces) const {
  auto placement =
      make_placement(config_.placement, traces, mesh_.num_cores());
  if (placement == nullptr) {
    fail_unknown("placement", config_.placement, placement_names());
  }
  return placement;
}

RunReport System::run(const workload::Workload& workload,
                      const RunSpec& spec) const {
  validate(spec);
  const std::shared_ptr<const Placement> placement =
      placement_for(workload, spec);
  return run_with_placement(workload.traces(), spec, *placement, &workload);
}

RunReport System::run(const TraceSource& traces,
                      const RunSpec& spec) const {
  validate(spec);
  // The memory budget applies from the very first cursor — placement
  // construction streams the trace too.  Throws std::invalid_argument
  // for a non-zero window below the source's minimum.
  traces.set_stream_window(spec.stream_window);
  const std::string& scheme =
      spec.placement.empty() ? config_.placement : spec.placement;
  const std::shared_ptr<const Placement> placement =
      build_placement(scheme, traces);
  return run_with_placement(traces, spec, *placement, nullptr);
}

std::vector<RunReport> System::run_matrix(
    const std::vector<workload::Workload>& workloads,
    const std::vector<RunSpec>& specs, const sweep::Options& opts,
    MatrixErrorPolicy errors) const {
  if (errors == MatrixErrorPolicy::kRethrow) {
    // Fail fast on any bad spec before fanning out.
    for (const RunSpec& spec : specs) {
      validate(spec);
    }
  }
  const std::size_t stride = specs.size();
  return sweep::run(
      workloads.size() * stride,
      [&](std::size_t i) {
        return run_cell(workloads[i / stride], specs[i % stride], errors);
      },
      opts);
}

std::vector<RunReport> System::run_mesh_matrix(
    const SystemConfig& config,
    const std::vector<std::int32_t>& mesh_threads,
    const std::vector<std::string>& workload_names,
    const std::vector<RunSpec>& specs, const sweep::Options& opts,
    MatrixErrorPolicy errors) {
  // Build every per-mesh System and materialize every workload up front,
  // outside the fan-out: axis construction is cheap next to the runs,
  // and it keeps the sweep cells pure (workers share only const state).
  // Unknown workload names fail fast here under either error policy —
  // the grid's axes must name real things; kCapture is about per-cell
  // run/spec failures.
  std::vector<std::unique_ptr<System>> systems;
  systems.reserve(mesh_threads.size());
  std::vector<std::vector<workload::Workload>> grids;  // [mesh][workload]
  grids.reserve(mesh_threads.size());
  for (const std::int32_t threads : mesh_threads) {
    SystemConfig c = config;
    c.threads = threads;
    systems.push_back(std::make_unique<System>(c));
    std::vector<workload::Workload> row;
    row.reserve(workload_names.size());
    for (const std::string& name : workload_names) {
      row.push_back(workload::make_workload(name, threads));
    }
    grids.push_back(std::move(row));
  }
  if (errors == MatrixErrorPolicy::kRethrow) {
    // Fail fast on any bad spec before fanning out (validation is
    // per-System: e.g. fault kill lists check against each mesh).
    for (const auto& sys : systems) {
      for (const RunSpec& spec : specs) {
        sys->validate(spec);
      }
    }
  }
  // ONE sweep::run over the whole cross product: a single
  // ThreadBudgetLease worth of workers serves every mesh size, and the
  // per-point progress callback counts all mesh x workload x spec cells.
  const std::size_t wstride = workload_names.size();
  const std::size_t sstride = specs.size();
  return sweep::run(
      mesh_threads.size() * wstride * sstride,
      [&](std::size_t i) {
        const System& sys = *systems[i / (wstride * sstride)];
        const workload::Workload& w = grids[i / (wstride * sstride)]
                                           [(i / sstride) % wstride];
        return sys.run_cell(w, specs[i % sstride], errors);
      },
      opts);
}

RunReport System::run_cell(const workload::Workload& w, const RunSpec& spec,
                           MatrixErrorPolicy errors) const {
  if (errors == MatrixErrorPolicy::kRethrow) {
    return run(w, spec);
  }
  // kCapture: validation errors are per-cell too — one bad spec fails its
  // own row of cells, not the whole grid.
  try {
    return run(w, spec);
  } catch (const std::exception& e) {
    RunReport failed;
    failed.arch = spec.arch;
    failed.mode = spec.mode;
    failed.workload = w.name();
    failed.error = e.what();
    return failed;
  }
}

RunReport System::run_with_placement(
    const TraceSource& traces, const RunSpec& spec,
    const Placement& placement, const workload::Workload* workload) const {
  // One injector per run: the fault draws are stateless hashes of the
  // seeded spec, but the injector carries per-run accounting (sequence
  // counters, the failed-core map, the event log).  A default spec
  // builds none and every engine takes its historical fault-free path.
  std::optional<FaultInjector> injector;
  if (spec.faults.any()) {
    injector.emplace(spec.faults, mesh_.num_cores());
  }
  FaultInjector* const faults = injector ? &*injector : nullptr;
  RunReport out;
  if (spec.contention == ContentionMode::kNone) {
    out = dispatch(traces, spec, placement, cost_, faults);
  } else {
    // Two-pass contention flow: pass 1 (calibrate, memoized per workload)
    // derives the corrected hop latencies; pass 2 rebuilds the tables and
    // reruns the analytic engines (and the policies' cost estimates)
    // against them.
    const Calibration cal =
        calibration_for(workload, traces, spec, placement);
    const CostModel corrected(mesh_, config_.cost, cal.hop);
    out = dispatch(traces, spec, placement, corrected, faults);
    out.noc = cal.section;
  }
  out.arch = spec.arch;
  out.mode = spec.mode;
  if (workload != nullptr) {
    out.workload = workload->name();
  }
  out.placement = placement.name();
  if (injector) {
    // The engines fill the per-engine fields (conservation, watchdog);
    // the shared what-was-injected accounting comes from the injector.
    // Optimal mode has no machines, so its section is the spec echo.
    if (!out.resilience) {
      out.resilience.emplace();
    }
    out.resilience->faults = to_string(spec.faults);
    out.resilience->stats = injector->stats();
    out.resilience->events = injector->events();
  }
  return out;
}

System::Calibration System::calibrate(const TraceSource& traces,
                                      const RunSpec& spec,
                                      const Placement& placement) const {
  // Pass 1 captures the protocol's packets against the uncontended tables
  // and turns them into a per-vnet link utilization — measured on the
  // cycle-level fabric (kMeasured) or integrated analytically
  // (kEstimated).  The capture always drives the TRACE engine for
  // spec.arch (for kTrace runs that is literally pass 2's dispatch with a
  // recorder attached; exec and optimal runs borrow the trace engine's
  // traffic as the calibration proxy, since they exercise the same tables
  // over the same access stream).  The measured path only replays the
  // earliest calibration_packets, so the recorder can bound its memory to
  // that budget; the estimated path integrates the whole run and records
  // unbounded.
  // The calibration pass owns a private injector (the main run's is
  // single-use, and pass 1 may be served from the memo cache anyway):
  // the capture run injects the protocol-level faults, so the recorded
  // traffic includes the recovery packets, and the measured replay
  // routes through the reliable transport, so transport-level drops,
  // ACKs, and retransmissions load the fabric too.
  std::optional<FaultInjector> cal_faults;
  if (spec.faults.any()) {
    cal_faults.emplace(spec.faults, mesh_.num_cores());
  }
  // The measured path discards the capture run's report, so the run may
  // stop as soon as its earliest calibration_packets are final.
  TrafficRecorder recorder =
      spec.contention == ContentionMode::kMeasured
          ? TrafficRecorder(spec.calibration_packets, CaptureStop::kWhenFinal)
          : TrafficRecorder();
  (void)run_trace(traces, spec, placement, cost_, &recorder,
                  cal_faults ? &*cal_faults : nullptr);
  std::vector<TrafficEvent> events = std::move(recorder.events());
  Calibration out;
  RunReport::NocUtilization& section = out.section;
  section.contention = spec.contention;
  if (spec.contention == ContentionMode::kMeasured) {
    prepare_calibration_events(events, spec.calibration_packets);
  }
  // Offered-load analysis gives the per-vnet service moments always and
  // the utilization estimate for kEstimated; kMeasured overwrites the
  // utilization with what the fabric replay actually saw.
  std::array<VnetLoad, vnet::kNumVnets> loads =
      analyze_offered_load(mesh_, cost_, events);
  if (spec.contention == ContentionMode::kMeasured) {
    CalibrationOptions opts;
    // Closed-loop window: one outstanding chain per thread plus room
    // for eviction transients (see CalibrationOptions).
    opts.max_outstanding = 2 * traces.num_threads();
    const CalibrationReport cal = replay_on_fabric(
        mesh_, cost_, events, opts, cal_faults ? &*cal_faults : nullptr);
    for (std::size_t vn = 0; vn < loads.size(); ++vn) {
      loads[vn].utilization = cal.utilization.seen_by_vnet[vn];
    }
    section.calibration_packets = cal.packets;
    section.calibration_cycles = cal.cycles;
    for (const std::uint64_t flits : cal.utilization.flits_by_vnet) {
      section.calibration_flit_hops += flits;
    }
    section.calibration_drained = cal.drained;
    section.calibration_drops = cal.drops;
    section.calibration_retransmissions = cal.retransmissions;
    section.measured_total_latency = cal.measured_total_latency;
    if (cal.drained) {
      section.uncontended_total_latency =
          predict_total_latency(cost_, events);
    }
  }
  for (std::size_t vn = 0; vn < loads.size(); ++vn) {
    section.utilization[vn] = loads[vn].utilization;
  }
  out.hop = corrected_hop_latencies(config_.cost, loads);
  section.corrected_per_hop = out.hop.cycles;
  // The differential is only like-for-like over a drained replay
  // (measured covers delivered packets; the predictions cover all of
  // them), so the predictions stay zero otherwise.
  if (spec.contention == ContentionMode::kMeasured &&
      section.calibration_drained) {
    const CostModel corrected(mesh_, config_.cost, out.hop);
    section.predicted_total_latency =
        predict_total_latency(corrected, events);
  }
  return out;
}

System::Calibration System::calibration_for(
    const workload::Workload* workload, const TraceSource& traces,
    const RunSpec& spec, const Placement& placement) const {
  if (workload == nullptr) {
    // Raw TraceSet: no shared_ptr identity to key on; calibrate directly.
    return calibrate(traces, spec, placement);
  }
  // Everything pass 1 depends on, beyond the trace object: the placement
  // scheme, the capturing arch (policy for EM2-RA, replication for EM2),
  // and the contention knobs.  Mode is absent on purpose — exec and
  // optimal runs share the trace engine's calibration.
  const std::string& scheme =
      spec.placement.empty() ? config_.placement : spec.placement;
  const std::shared_ptr<const TraceSet>& trace_ptr =
      workload->shared_traces();
  char ptr_key[32];
  std::snprintf(ptr_key, sizeof ptr_key, "%p",
                static_cast<const void*>(trace_ptr.get()));
  std::string key = std::string(to_string(spec.contention)) + "|" +
                    std::to_string(spec.calibration_packets) + "|" +
                    to_string(spec.arch) + "|";
  if (spec.arch == MemArch::kEm2Ra) {
    key += spec.policy;
  } else if (spec.arch == MemArch::kEm2 && spec.replication) {
    key += "ro-replication";
  }
  // The canonical fault string round-trips exactly (std::to_chars), so
  // equal specs — and only equal specs — share a calibration.
  key += "|" + to_string(spec.faults) + "|" + scheme + "|" + ptr_key;
  return calibration_cache_.get_or_build(key, trace_ptr, [&] {
    return calibrate(traces, spec, placement);
  });
}

RunReport System::dispatch(const TraceSource& traces, const RunSpec& spec,
                           const Placement& placement,
                           const CostModel& cost,
                           FaultInjector* faults) const {
  if (spec.mode == RunMode::kTrace) {
    return run_trace(traces, spec, placement, cost, nullptr, faults);
  }
  // Exec and optimal are whole-trace consumers (in-place replay cursors,
  // DP over full sequences): a streamed source without a backing TraceSet
  // is materialized once here — bounded memory is a trace-mode property.
  const TraceSet* backing = traces.backing_traces();
  std::optional<TraceSet> owned;
  if (backing == nullptr) {
    owned.emplace(materialize(traces));
    backing = &*owned;
  }
  switch (spec.mode) {
    case RunMode::kExec:
      return run_exec(*backing, spec, placement, cost, faults);
    case RunMode::kOptimal:
      return run_optimal_mode(*backing, spec, placement, cost);
    case RunMode::kTrace:
      break;  // handled above
  }
  return {};
}

RunReport System::run_trace(const TraceSource& traces, const RunSpec& spec,
                            const Placement& placement,
                            const CostModel& cost,
                            TrafficRecorder* recorder,
                            FaultInjector* faults) const {
  RunReport out;
  switch (spec.arch) {
    case MemArch::kEm2: {
      if (spec.replication) {
        EM2_ASSERT(faults == nullptr,
                   "validate() rejects faults + replication");
        const auto replicable = replicable_blocks(traces, 1);
        const Em2RunReport r =
            em2::run_em2_replicated(traces, placement, mesh_, cost,
                                    config_.em2, replicable, recorder);
        out.arch_label = "em2+ro-replication";
        fill_from_em2_report(out, r, faults);
      } else {
        const Em2RunReport r = em2::run_em2(traces, placement, mesh_, cost,
                                            config_.em2, recorder, faults);
        out.arch_label = "em2";
        fill_from_em2_report(out, r, faults);
      }
      break;
    }
    case MemArch::kEm2Ra: {
      // Sealed dispatch: run_em2ra hoists one visit over the whole trace
      // loop, so standard policies pay zero virtual calls per access (a
      // "custom:" spec selects the retained virtual path).
      StandardPolicy policy = StandardPolicy::make(spec.policy, mesh_, cost);
      const HybridRunReport r =
          em2::run_em2ra(traces, placement, mesh_, cost, config_.em2,
                         policy, recorder, faults);
      out.arch_label = "em2-ra(" + r.policy_name + ")";
      fill_from_em2_report(out, r.em2, faults);
      out.remote_accesses = r.remote_accesses;
      break;
    }
    case MemArch::kCc: {
      DirCcParams cc = config_.cc;
      cc.private_cache.line_bytes = traces.block_bytes();
      const CcRunReport r =
          em2::run_cc(traces, placement, mesh_, cost, cc, recorder);
      out.arch_label = "cc";
      out.accesses = r.counters.get("accesses");
      out.messages = r.counters.get("messages");
      out.network_cost = r.total_latency;
      out.traffic_bits = r.traffic_bits;
      out.cost_per_access = r.mean_latency_per_access();
      out.cc = RunReport::CcSection{r.replication_factor, r.directory_bits};
      break;
    }
  }
  return out;
}

RunReport System::run_exec(const TraceSet& traces, const RunSpec& spec,
                           const Placement& placement,
                           const CostModel& cost,
                           FaultInjector* faults) const {
  ExecParams params;
  params.arch = spec.arch;
  params.scheduler = spec.scheduler;
  params.em2 = config_.em2;
  params.cc = config_.cc;
  params.cc.private_cache.line_bytes = traces.block_bytes();
  params.ra_policy = spec.policy;
  params.block_bytes = traces.block_bytes();
  params.faults = faults;
  params.watchdog_cycles = spec.watchdog_cycles;
  ExecSystem exec(mesh_, cost, params, placement);
  // Each thread replays its trace in place.  A cursor throws
  // std::invalid_argument for an address above 32 bits, before the
  // engine runs.
  for (const ThreadTrace& thread : traces.threads()) {
    exec.add_thread(workload::ReplayCursor(thread, traces.num_threads()),
                    thread.native_core());
  }
  const ExecReport r = exec.run(spec.max_cycles);

  RunReport out;
  // Label with the RESOLVED policy name the system actually ran (like
  // trace mode), so e.g. "history" reads "em2-ra(history:2)" and a
  // "custom:" prefix — pure dispatch, not behaviour — never leaks into
  // reports.
  out.arch_label = spec.arch == MemArch::kEm2Ra
                       ? "em2-ra(" + exec.ra_policy_name() + ")"
                       : to_string(spec.arch);
  out.accesses = r.counters.get("accesses");
  out.migrations = r.counters.get("migrations");
  out.evictions = r.counters.get("evictions");
  out.remote_accesses = r.counters.get("remote_accesses");
  out.messages = r.counters.get("messages");
  out.cost_per_access = out.accesses
                            ? static_cast<double>(r.cycles) /
                                  static_cast<double>(out.accesses)
                            : 0.0;
  RunReport::ExecSection section;
  section.cycles = r.cycles;
  section.instructions = r.instructions;
  section.consistent = r.consistent;
  section.timed_out = r.timed_out;
  section.watchdog_fired = r.watchdog_fired;
  section.violations = r.violations;
  section.finish_cycle = r.finish_cycle;
  out.exec = std::move(section);
  if (faults != nullptr) {
    out.resilience.emplace();
    out.resilience->conservation_ok = r.conservation_ok;
    out.resilience->watchdog_fired = r.watchdog_fired;
    out.resilience->diagnosis = r.diagnosis;
  }
  return out;
}

RunReport System::run_optimal_mode(const TraceSet& traces,
                                   const RunSpec& spec,
                                   const Placement& placement,
                                   const CostModel& cost) const {
  (void)spec;  // the DP models the migrate/RA decision; arch-independent
  RunReport::OptimalSection section;
  for (const auto& thread : traces.threads()) {
    const std::vector<CoreId> homes =
        home_sequence(thread, traces, placement);
    std::vector<MemOp> ops;
    ops.reserve(thread.size());
    thread.for_each([&](const Access& a) { ops.push_back(a.op); });
    const ModelTrace mt =
        make_model_trace(homes, ops, thread.native_core());
    const MigrateRaSolution sol = solve_optimal_migrate_ra(mt, cost);
    section.cost += sol.total_cost;
    section.migrations += sol.migrations;
    section.remote_accesses += sol.remote_accesses;
  }
  RunReport out;
  out.arch_label = "optimal-dp";
  out.accesses = traces.total_accesses();
  out.migrations = section.migrations;
  out.remote_accesses = section.remote_accesses;
  out.network_cost = section.cost;
  finish_cost_per_access(out);
  out.optimal = section;
  return out;
}

RunLengthReport System::analyze_run_lengths(const TraceSet& traces) const {
  const auto placement = make_placement_for(traces);
  RunLengthAnalyzer analyzer;
  for (const auto& thread : traces.threads()) {
    const std::vector<CoreId> homes =
        home_sequence(thread, traces, *placement);
    analyzer.add_thread(thread.native_core(), homes);
  }
  return analyzer.report();
}

}  // namespace em2
