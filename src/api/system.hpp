// em2::System — the public entry point of the library: one front door
// over three interchangeable backends.
//
// A run is described by a RunSpec (memory architecture x run mode +
// knobs) and produces a RunReport (shared counters + mode-specific
// sections), no matter which engine executes it:
//
//   mode = kTrace    the trace-driven protocol engines (EM2, EM2-RA, CC)
//   mode = kExec     the execution-driven multicore: each thread's trace
//                    replayed as register-ISA instructions on simulated
//                    cores (workload/replay.hpp)
//   mode = kOptimal  the paper's per-thread DP optimum on the analytical
//                    model (arch-independent lower bound)
//
// Typical use:
//
//   em2::System sys({.threads = 64});
//   auto ocean = em2::workload::make_workload("ocean", 64);
//   em2::RunReport trace = sys.run(ocean, {.arch = em2::MemArch::kEm2});
//   em2::RunReport exec  = sys.run(ocean, {.arch = em2::MemArch::kEm2,
//                                          .mode = em2::RunMode::kExec});
//   em2::RunReport ra    = sys.run(ocean, {.arch = em2::MemArch::kEm2Ra,
//                                          .policy = "history"});
//   auto grid = sys.run_matrix({ocean, lu}, {spec_a, spec_b});
//
// Unknown workload/placement/policy names throw UnknownNameError at the
// moment they enter the system (util/error.hpp).
//
// NoC contention: RunSpec::contention selects how the analytic cost
// tables account for mesh saturation (sim/modes.hpp, noc/contention.hpp).
// kMeasured is a two-pass flow — a short cycle-level calibration replay
// of the protocol's own packets measures per-vnet link utilization, then
// the analytic run repeats against M/D/1-corrected tables; kEstimated
// skips the fabric and estimates the offered load analytically.  Both
// surface a RunReport::NocUtilization section.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "coherence/cc_sim.hpp"
#include "em2/trace_sim.hpp"
#include "em2ra/hybrid_sim.hpp"
#include "geom/mesh.hpp"
#include "noc/contention.hpp"
#include "noc/cost_model.hpp"
#include "optimal/dp_migrate.hpp"
#include "placement/placement.hpp"
#include "sim/exec_system.hpp"
#include "sim/faults.hpp"
#include "sim/sweep.hpp"
#include "trace/run_length.hpp"
#include "trace/trace.hpp"
#include "util/thread_annotations.hpp"
#include "workload/workload.hpp"

namespace em2 {

/// Everything needed to stand up a simulated EM2 chip.
struct SystemConfig {
  /// Number of threads == number of cores (thread t native to core t),
  /// arranged in the smallest near-square mesh.
  std::int32_t threads = 64;
  /// Placement scheme (placement_names()): "first-touch" (paper default),
  /// "striped", "hashed", or "profile-greedy".
  std::string placement = "first-touch";
  CostModelParams cost{};
  Em2Params em2{};
  DirCcParams cc{};
};

/// Everything that varies between runs of the same System: which
/// architecture, which engine, and the per-run knobs.  Designated
/// initializers make call sites read as configuration:
///   sys.run(w, {.arch = MemArch::kCc, .mode = RunMode::kExec})
struct RunSpec {
  MemArch arch = MemArch::kEm2;
  RunMode mode = RunMode::kTrace;
  /// EM2-RA decision policy spec (standard_policy_specs()); used only
  /// when arch == kEm2Ra.
  std::string policy = "distance:4";
  /// Core scheduler for exec mode (event-driven is the fast default; scan
  /// is the bit-identical executable specification).
  SchedulerKind scheduler = SchedulerKind::kEventDriven;
  /// Trace-mode EM2 only: profile-driven read-only replication (blocks
  /// written at most once are read locally everywhere).
  bool replication = false;
  /// Placement scheme override; empty uses SystemConfig::placement.
  std::string placement;
  /// Exec-mode cycle budget (a run that exhausts it reports timed_out).
  Cycle max_cycles = 50'000'000;
  /// NoC contention correction for the cost tables (sim/modes.hpp):
  /// kNone is the paper's uncontended mesh; kMeasured calibrates on the
  /// cycle-level fabric first (two-pass); kEstimated corrects from an
  /// analytic offered-load estimate.
  ContentionMode contention = ContentionMode::kNone;
  /// kMeasured only: the calibration replay covers the earliest N
  /// protocol packets (the "short cycle-level run" that bounds
  /// calibration cost regardless of trace length).  Must be non-zero
  /// when contention == kMeasured (std::invalid_argument at entry).
  std::uint64_t calibration_packets = 20'000;
  /// Fault scenario (sim/faults.hpp grammar).  The default injects
  /// nothing and keeps every engine bit-identical to the fault-free
  /// build.  EM2/EM2-RA only: kCc (no CC fault model) and EM2 read-only
  /// replication reject a faulted spec with std::invalid_argument, as do
  /// kills naming cores outside the mesh.
  FaultSpec faults{};
  /// Exec-mode liveness watchdog: a run that retires no instruction for
  /// this many cycles terminates with a structured diagnosis
  /// (RunReport::Resilience::diagnosis) instead of burning the rest of
  /// max_cycles.  0 disables; the default is generous enough that only a
  /// genuinely wedged configuration trips it.
  Cycle watchdog_cycles = 1'000'000;
  /// Read by nothing: every exec run uses the sequential engine, and
  /// the report at any value equals the shards = 1 report.  Kept only
  /// because existing callers still assign it.
  std::uint32_t shards = 1;
  /// Streamed (TraceStream) sources only: hard budget in bytes for the
  /// reader's resident trace buffers, divided across per-thread cursors —
  /// the knob that makes trace-mode runs out-of-core.  0 = unlimited
  /// (cursors use a fixed default batch size).  In-memory sources ignore
  /// it; a non-zero window below the source's minimum
  /// (threads x TraceStream::kMinCursorBytes) throws
  /// std::invalid_argument at entry.
  std::uint64_t stream_window = 64ull << 20;
};

/// run_matrix error handling.  kRethrow (historical default) propagates
/// the first failing cell's exception and discards the grid.  kCapture
/// turns each failing cell into a RunReport whose `error` field holds the
/// exception text (all other fields echo what is known of the spec), so
/// one bad cell cannot sink a long sweep.
enum class MatrixErrorPolicy : std::uint8_t { kRethrow, kCapture };

/// Unified result of System::run — one type for every arch x mode.  The
/// shared counters are filled with whatever the selected engine measures
/// (zeros where a concept does not apply, e.g. messages outside CC); the
/// optional sections carry the mode-specific extras.
struct RunReport {
  // What ran.  `arch` echoes the spec; optimal mode ignores it (the DP
  // is arch-independent), so group protocol rows by (arch, mode), not
  // arch alone — or by arch_label, which is always accurate.
  MemArch arch{};
  RunMode mode{};
  /// Decorated label for tables: "em2", "em2-ra(history)", "cc",
  /// "em2+ro-replication", "optimal-dp".
  std::string arch_label;
  std::string workload;   ///< Workload name; empty for raw TraceSet runs.
  std::string placement;  ///< Resolved placement scheme.

  // Shared counters.
  std::uint64_t accesses = 0;
  std::uint64_t migrations = 0;
  std::uint64_t evictions = 0;
  std::uint64_t remote_accesses = 0;
  /// Reads served locally by the read-only replication extension.
  std::uint64_t replicated_reads = 0;
  /// Trace/optimal: network cycles on the threads' critical paths.
  Cost network_cost = 0;
  /// Total traffic in bits (context + remote + protocol); trace mode.
  std::uint64_t traffic_bits = 0;
  /// CC protocol messages.
  std::uint64_t messages = 0;
  /// Trace/optimal: network cycles per access.  Exec: cycles per access.
  double cost_per_access = 0.0;
  /// Figure-2 analysis (trace-mode EM2 flavours only).
  RunLengthReport run_lengths;

  /// Exec-mode section.
  struct ExecSection {
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    bool consistent = false;
    bool timed_out = false;
    /// The liveness watchdog cut the run short (also timed_out);
    /// Resilience::diagnosis says what the scheduler saw.
    bool watchdog_fired = false;
    std::vector<ConsistencyViolation> violations;
    std::vector<Cycle> finish_cycle;
  };
  /// Optimal-mode section (the DP lower bound, summed over threads).
  struct OptimalSection {
    Cost cost = 0;
    std::uint64_t migrations = 0;
    std::uint64_t remote_accesses = 0;
  };
  /// Trace-mode CC section: the paper's structural argument against
  /// directories (EM2 keeps one copy per line and needs none at all).
  struct CcSection {
    double replication_factor = 0.0;
    std::uint64_t directory_bits = 0;
  };
  /// Contention section, present when RunSpec::contention != kNone: the
  /// per-vnet utilization that drove the M/D/1 correction and (kMeasured)
  /// the cycle-level calibration ground truth next to the analytic
  /// predictions for the same packets — the differential the contention
  /// tests validate.  Calibration traffic always comes from the
  /// trace-mode protocol engine for the spec's arch; exec and optimal
  /// runs use it as a proxy for their own traffic (same tables, same
  /// logical access stream).
  struct NocUtilization {
    ContentionMode contention = ContentionMode::kNone;
    /// Per-vnet link utilization the correction used: the total link
    /// occupancy a typical flit of the vnet sees (vnets share physical
    /// links) — measured by the fabric replay for kMeasured, offered-load
    /// estimate over the XY paths for kEstimated.
    std::array<double, vnet::kNumVnets> utilization{};
    /// Per-vnet corrected cycles-per-hop the rebuilt tables used.
    std::array<double, vnet::kNumVnets> corrected_per_hop{};
    /// kMeasured: calibration replay size and duration, and the flits the
    /// fabric moved across links doing it (its work, in flit-hops).
    std::uint64_t calibration_packets = 0;
    Cycle calibration_cycles = 0;
    std::uint64_t calibration_flit_hops = 0;
    /// kMeasured under a lossy FaultSpec: packets lost at ejection and
    /// retransmitted by the reliable transport during the replay — the
    /// recovery load the corrected tables price in.  Zero otherwise.
    std::uint64_t calibration_drops = 0;
    std::uint64_t calibration_retransmissions = 0;
    /// kMeasured: false when the replay hit its cycle budget before every
    /// packet delivered — measured_total_latency then covers only the
    /// delivered subset, and the prediction fields below stay zero (they
    /// would cover all calibration packets, which is not like-for-like).
    bool calibration_drained = true;
    /// kMeasured: cycle-level total packet latency over the calibration
    /// packets (the fabric's ground truth)...
    Cost measured_total_latency = 0;
    /// ...next to the corrected and uncontended analytic predictions for
    /// the SAME packets (only when calibration_drained).
    Cost predicted_total_latency = 0;
    Cost uncontended_total_latency = 0;
  };
  /// Resilience section, present whenever RunSpec::faults injects
  /// anything: what was injected and how the run recovered.
  struct Resilience {
    /// Canonical scenario string (to_string(RunSpec::faults)).
    std::string faults;
    ResilienceStats stats;
    /// Post-run thread-conservation invariant of the protocol machines
    /// (trivially true in optimal mode, which has no machines).
    bool conservation_ok = true;
    /// Exec mode: the liveness watchdog terminated the run; `diagnosis`
    /// is its structured report of what the scheduler saw.
    bool watchdog_fired = false;
    std::string diagnosis;
    /// Injected-event log, capped at FaultInjector::kMaxEvents (stats
    /// stay exact beyond the cap).
    std::vector<FaultEvent> events;
  };
  std::optional<ExecSection> exec;
  std::optional<OptimalSection> optimal;
  std::optional<CcSection> cc;
  std::optional<NocUtilization> noc;
  std::optional<Resilience> resilience;
  /// run_matrix with MatrixErrorPolicy::kCapture only: non-empty iff this
  /// cell failed, holding the exception text.  Every other field is then
  /// a best-effort echo of the spec.
  std::string error;
};

/// The façade.
class System {
 public:
  explicit System(const SystemConfig& config);

  const Mesh& mesh() const noexcept { return mesh_; }
  const CostModel& cost_model() const noexcept { return cost_; }
  const SystemConfig& config() const noexcept { return config_; }

  /// THE entry point: runs `workload` under `spec` — every
  /// {em2, em2-ra, cc} x {trace, exec} combination plus optimal mode —
  /// and returns the unified report.  Placements are memoized per
  /// (scheme, workload) in an internally-synchronized cache, so repeated
  /// and concurrent runs (run_matrix sweep workers) share them.
  /// Throws UnknownNameError for unknown placement/policy names.
  RunReport run(const workload::Workload& workload,
                const RunSpec& spec = {}) const;

  /// Same over any TraceSource, with no name and no placement caching.
  /// An in-memory TraceSet runs as-is; exec mode replays it in place
  /// (workload/replay.hpp) and throws std::invalid_argument for an
  /// address above 32 bits.  An on-disk TraceStream is the out-of-core
  /// entry point: the trace-mode engines run under spec.stream_window
  /// bytes of resident trace memory, with a report byte-identical to the
  /// same trace run in memory (one engine loop serves both).  Exec and
  /// optimal modes need the whole trace and materialize a stream first.
  RunReport run(const TraceSource& traces, const RunSpec& spec = {}) const;

  /// The full workloads x specs grid, fanned out over the parallel sweep
  /// runner (sim/sweep.hpp).  Result is workload-major:
  /// reports[w * specs.size() + s].  All placements go through the shared
  /// synchronized cache; results are identical to the serial double loop.
  /// With MatrixErrorPolicy::kCapture a failing cell becomes a RunReport
  /// carrying the exception text in `error` (and validation moves from
  /// up-front fail-fast to per-cell capture); kRethrow keeps the
  /// historical first-exception-rethrow contract.
  std::vector<RunReport> run_matrix(
      const std::vector<workload::Workload>& workloads,
      const std::vector<RunSpec>& specs, const sweep::Options& opts = {},
      MatrixErrorPolicy errors = MatrixErrorPolicy::kRethrow) const;

  /// The nested (mesh x workload x spec) grid: one System per mesh size
  /// (each built from `config` with `threads` overridden), every named
  /// workload materialized at that size, and the FULL cross product
  /// fanned out over ONE sweep::run call — a single ThreadBudgetLease
  /// worth of workers for the whole grid, with Options::progress counting
  /// every (mesh, workload, spec) point of the cross product.  Workload
  /// names resolve via workload::make_workload at each size.  Result is
  /// mesh-major, then workload-major, then spec:
  /// reports[(m * names.size() + w) * specs.size() + s] — the same
  /// nesting as stacked per-mesh run_matrix calls, bit-identical to them.
  static std::vector<RunReport> run_mesh_matrix(
      const SystemConfig& config,
      const std::vector<std::int32_t>& mesh_threads,
      const std::vector<std::string>& workload_names,
      const std::vector<RunSpec>& specs, const sweep::Options& opts = {},
      MatrixErrorPolicy errors = MatrixErrorPolicy::kRethrow);

  /// Builds the configured placement for `traces` (first-touch and
  /// profile-greedy derive from the trace itself).  Uncached.
  /// Throws UnknownNameError for unknown schemes.
  std::unique_ptr<Placement> make_placement_for(
      const TraceSet& traces) const;

  /// Figure 2: run-length analysis only (no protocol simulation).
  RunLengthReport analyze_run_lengths(const TraceSet& traces) const;

 private:
  /// Resolves spec.placement / config_.placement and validates names;
  /// the workload overload memoizes in placement_cache_.
  std::shared_ptr<const Placement> placement_for(
      const workload::Workload& workload, const RunSpec& spec) const;
  std::shared_ptr<const Placement> build_placement(
      const std::string& scheme, const TraceSource& traces) const;
  /// Fails fast on unknown policy/placement names in `spec`.
  void validate(const RunSpec& spec) const;
  /// One matrix cell: run(w, spec), or under kCapture a RunReport whose
  /// `error` holds the exception text.
  RunReport run_cell(const workload::Workload& w, const RunSpec& spec,
                     MatrixErrorPolicy errors) const;

  RunReport run_with_placement(const TraceSource& traces,
                               const RunSpec& spec,
                               const Placement& placement,
                               const workload::Workload* workload) const;
  /// Pass 1 of the contention flow: captures the protocol's packets and
  /// derives the corrected per-vnet hop latencies plus the report section
  /// describing the calibration.  Deterministic in (traces, spec.arch,
  /// spec.policy, spec.replication, spec.contention,
  /// spec.calibration_packets, spec.faults, placement) — which is why the
  /// result is memoizable (the fault draws are stateless hashes of the
  /// seeded spec, so a private injector reproduces them exactly).
  struct Calibration {
    HopLatencies hop;
    RunReport::NocUtilization section;
  };
  Calibration calibrate(const TraceSource& traces, const RunSpec& spec,
                        const Placement& placement) const;
  /// Memoizing front end over calibrate() for workload runs (same
  /// weak_ptr-pinned pattern as the placement cache): corrected
  /// run_matrix sweeps pay the calibration once per (workload, arch,
  /// policy, ...) row instead of once per cell.  Raw-TraceSet runs
  /// bypass the cache (no stable identity to pin).
  Calibration calibration_for(const workload::Workload* workload,
                              const TraceSource& traces,
                              const RunSpec& spec,
                              const Placement& placement) const;
  /// Mode dispatch against an explicit cost model — `cost_` for kNone,
  /// the contention-corrected rebuild otherwise.  `faults` (nullable) is
  /// the run's injector; null keeps every engine bit-identical to the
  /// fault-free build.  Trace mode streams through the source's cursors;
  /// exec and optimal modes materialize sources without a backing
  /// TraceSet (the replay cursors and the DP need whole sequences).
  RunReport dispatch(const TraceSource& traces, const RunSpec& spec,
                     const Placement& placement, const CostModel& cost,
                     FaultInjector* faults) const;
  /// `recorder` (nullable) captures the protocol's packets — the
  /// calibration pass is run_trace against the uncontended tables with a
  /// recorder attached, so pass 1 and pass 2 share ONE per-arch dispatch.
  RunReport run_trace(const TraceSource& traces, const RunSpec& spec,
                      const Placement& placement, const CostModel& cost,
                      TrafficRecorder* recorder = nullptr,
                      FaultInjector* faults = nullptr) const;
  RunReport run_exec(const TraceSet& traces, const RunSpec& spec,
                     const Placement& placement, const CostModel& cost,
                     FaultInjector* faults) const;
  RunReport run_optimal_mode(const TraceSet& traces, const RunSpec& spec,
                             const Placement& placement,
                             const CostModel& cost) const;

  SystemConfig config_;
  Mesh mesh_;
  CostModel cost_;
  /// One weak_ptr-pinned, internally-synchronized memo cache.  Entries
  /// hold the TraceSet by weak_ptr: while any Workload copy keeps the
  /// trace alive the entry hits, and once the trace dies the entry reads
  /// as a miss — so a reused address can never resurrect another
  /// workload's value, and the cache does not pin traces the caller
  /// dropped (dead entries are pruned on the next insert).  Both caches
  /// below memoize a value that is a deterministic function of the key,
  /// which is what makes them the sanctioned exception to the sweep
  /// contract's no-shared-mutable-state rule: caching changes who
  /// computes a value first, never what any run reports.
  /// `get_or_build(key, pin, build)` runs `build()` OUTSIDE the lock on a
  /// miss (builds scan whole traces / run calibration replays); if two
  /// sweep workers race, the first insert wins and both observe the same
  /// deterministic value.
  template <typename Value>
  class TracePinnedCache {
   public:
    template <typename Build>
    Value get_or_build(const std::string& key,
                       const std::shared_ptr<const TraceSet>& pin,
                       Build&& build) {
      {
        const MutexLock lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
          if (it->second.pin.lock() == pin) {
            return it->second.value;
          }
          entries_.erase(it);  // stale: the keyed trace died
        }
      }
      Value built = build();
      const MutexLock lock(mutex_);
      // Prune entries whose traces died so dropped workloads don't leak
      // cached values across a long-lived System.
      // determinism: erase-only walk — which entries survive depends on
      // pin liveness, not visit order, and cache hits/misses never change
      // a computed value (the memoized build is a pure function of key).
      for (auto it = entries_.begin(); it != entries_.end();) {
        it = it->second.pin.expired() ? entries_.erase(it)
                                      : std::next(it);
      }
      auto [it, inserted] = entries_.try_emplace(key);
      if (!inserted && it->second.pin.lock() == pin) {
        // Another worker inserted this trace first; its (identical)
        // value wins, preserving first-insert determinism.
        return it->second.value;
      }
      it->second =
          Entry{std::move(built), std::weak_ptr<const TraceSet>(pin)};
      return it->second.value;
    }

   private:
    struct Entry {
      Value value;
      std::weak_ptr<const TraceSet> pin;
    };
    Mutex mutex_;
    std::unordered_map<std::string, Entry> entries_ EM2_GUARDED_BY(mutex_);
  };

  /// Placements keyed by (scheme, trace object); shared across runs and
  /// sweep workers.
  mutable TracePinnedCache<std::shared_ptr<const Placement>>
      placement_cache_;
  /// Contention calibrations keyed by (contention mode, calibration
  /// budget, arch, policy/replication, placement scheme, trace object) —
  /// corrected run_matrix sweeps pay the capture + replay once per row.
  mutable TracePinnedCache<Calibration> calibration_cache_;
};

}  // namespace em2
