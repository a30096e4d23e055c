// Execution-driven multicore simulation: register-ISA threads running on
// cores that multiplex hardware contexts at instruction granularity, over
// a pluggable memory architecture (EM2, EM2-RA, or directory CC).
//
// This is the Graphite-substitute at execution (not trace) level: cycles
// advance globally; each cycle every core issues one instruction from one
// ready resident context ("each core may be capable of multiplexing
// execution among several contexts at instruction granularity"); memory
// operations stall the issuing context for the protocol latency, and under
// EM2 the context physically moves between cores' resident sets —
// including eviction re-stalls when a migration displaces a guest.
//
// Two schedulers produce bit-identical reports (enforced by
// tests/sim/test_exec_equivalence.cpp):
//
//   kEventDriven (default)  Per-core resident-ready queues maintained in
//       O(1) by a ThreadMoveObserver hook on the EM2/EM2-RA machines
//       (arrival/departure updates the queue the moment it happens; CC
//       threads are pinned, so their queues are static), a min-heap of
//       wakeup times so fully-stalled stretches are skipped in one jump,
//       and a ReadyCoreSet bitset walked once per cycle in core order.
//       The walk reads cores/64 words per simulated cycle (4 at 256
//       cores).  It replaced a lazy min-heap of ready cores that pushed
//       and popped once per issued instruction (10.5M times per exec-seq
//       benchmark rep): that churn was most of the loop's self time, and
//       the bitset is no slower even on sparse 1024-core runs
//       (bench_exec_scaling).  This is what makes 1000-core runs feasible.
//   kScan                   The reference scheduler: every cycle, every
//       core probes every thread (round-robin).  Kept as the executable
//       specification the event-driven scheduler is diffed against.
//
// All loads/stores are checked against the sequential-consistency witness.
//
// A run is single-threaded on the host: every core steps in one global
// order, which is the machine the paper describes and the witness checks.
// More host cores speed up many runs at once (System::run_matrix over
// sweep::run), not one run.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <variant>
#include <vector>

#include "arch/reg_isa.hpp"
#include "coherence/directory.hpp"
#include "em2/consistency.hpp"
#include "em2/machine.hpp"
#include "em2ra/hybrid_machine.hpp"
#include "em2ra/policy.hpp"
#include "geom/mesh.hpp"
#include "noc/cost_model.hpp"
#include "placement/placement.hpp"
#include "sim/faults.hpp"
#include "sim/modes.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"
#include "workload/replay.hpp"

namespace em2 {

/// One bit per core: the event scheduler keeps bit c set exactly while
/// core c has at least one ready resident.  A cycle walks the set in
/// ascending core order with next_after(), which re-reads the current
/// word on every call — so a core that a migration makes ready *ahead* of
/// the cursor issues this cycle, and one at or behind it waits for the
/// next cycle, exactly as the scan scheduler's core loop would see it.
class ReadyCoreSet {
 public:
  /// Empties the set and sizes it for `cores` cores.
  void reset(std::size_t cores) { words_.assign((cores + 63) / 64, 0); }
  void insert(CoreId c) noexcept { words_[word(c)] |= bit(c); }
  void erase(CoreId c) noexcept { words_[word(c)] &= ~bit(c); }
  /// The smallest member greater than `after` (-1 starts a walk), or
  /// kNoCore when there is none.
  CoreId next_after(CoreId after) const noexcept {
    const CoreId from = after + 1;
    std::uint64_t bits = ~std::uint64_t{0} << (from & 63);
    for (std::size_t w = word(from); w < words_.size(); ++w, bits = ~0ull) {
      if ((bits &= words_[w]) != 0) {
        return static_cast<CoreId>(w * 64) + std::countr_zero(bits);
      }
    }
    return kNoCore;
  }

 private:
  static std::size_t word(CoreId c) noexcept {
    return static_cast<std::size_t>(c) >> 6;
  }
  static std::uint64_t bit(CoreId c) noexcept {
    return std::uint64_t{1} << (c & 63);
  }
  std::vector<std::uint64_t> words_;
};

/// Execution-system configuration.
struct ExecParams {
  MemArch arch = MemArch::kEm2;
  SchedulerKind scheduler = SchedulerKind::kEventDriven;
  Em2Params em2{};
  DirCcParams cc{};
  /// EM2-RA decision policy spec (see StandardPolicy::make; "custom:"
  /// prefix forces the virtual escape hatch); ignored otherwise.  An
  /// unknown spec throws UnknownNameError when run() builds the machines.
  std::string ra_policy = "distance:4";
  std::uint32_t block_bytes = 64;
  /// This run's fault injector (nullable; must outlive the system).  Null
  /// keeps every path bit-identical to the fault-free build.  EM2/EM2-RA
  /// only — the CC fault model is future work.
  FaultInjector* faults = nullptr;
  /// Liveness watchdog: if no instruction retires for this many cycles,
  /// the run terminates with a structured diagnosis instead of spinning
  /// (or, in event mode, jumping) toward max_cycles.  0 disables.
  Cycle watchdog_cycles = 0;
  /// Read by nothing: every run uses the sequential engine.  Kept only
  /// because existing callers still assign it; at any value the report
  /// equals the shards = 1 report.
  std::uint32_t shards = 1;
};

/// End-of-run report.
struct ExecReport {
  Cycle cycles = 0;
  std::uint64_t instructions = 0;
  CounterSet counters;
  /// True iff the checker saw no violation AND every thread halted.  A
  /// run that hit `max_cycles` with clean memory semantics is NOT a
  /// consistency violation — check `timed_out` to tell them apart.
  bool consistent = false;
  /// True iff `max_cycles` elapsed with at least one thread still live.
  bool timed_out = false;
  /// The liveness watchdog terminated the run; `diagnosis` says why and
  /// what the scheduler saw.  A watchdog run is also `timed_out`.
  bool watchdog_fired = false;
  std::string diagnosis;
  /// Post-run thread-conservation invariant (always checked on EM2
  /// architectures; trivially true on CC).
  bool conservation_ok = true;
  std::vector<ConsistencyViolation> violations;
  /// Per-thread completion time (cycle of HALT retirement).
  std::vector<Cycle> finish_cycle;
};

/// The execution-driven system.
class ExecSystem final : private ThreadMoveObserver {
 public:
  /// `placement` maps blocks to homes and must outlive the system.
  ExecSystem(const Mesh& mesh, const CostModel& cost,
             const ExecParams& params, const Placement& placement);
  ~ExecSystem();

  /// Adds a thread running `program`, native to `native`.
  ThreadId add_thread(RProgram program, CoreId native);
  /// Adds a thread that replays a trace in place: `replay` yields the
  /// instructions compile_replay_programs would store (its trace must
  /// outlive run()).
  ThreadId add_thread(workload::ReplayCursor replay, CoreId native);

  /// Pre-initializes functional memory (registered with the checker).
  void poke(Addr addr, std::uint32_t value);
  std::uint32_t peek(Addr addr) const { return memory_.load(addr); }

  /// Resolved EM2-RA decision-policy name (e.g. "history:2"); empty
  /// before run() built the machines or when arch != kEm2Ra.  Saves
  /// callers re-parsing ExecParams::ra_policy just to label reports.
  std::string ra_policy_name() const {
    return ra_policy_ ? ra_policy_->name() : std::string();
  }

  /// Runs until all threads halt or `max_cycles` pass.
  ///
  /// Fresh-run contract: an ExecSystem is single-shot — `run()` may be
  /// invoked at most once, because the interpreters, protocol machines,
  /// and checker all carry state the run consumed.  A second call is a
  /// hard EM2_ASSERT failure (it used to silently continue from the
  /// previous cycle count with stale machine counters).  Build a new
  /// system to re-run a configuration.
  ExecReport run(Cycle max_cycles);

 private:
  struct Thread {
    /// Where the instructions come from: a stored program, or a cursor
    /// replaying a trace in place.
    std::variant<RegInterpreter, workload::ReplayCursor> code;
    ExecutionContext ctx;
    Cycle ready_at = 0;
    bool halted = false;

    /// Retires the next instruction: the one fetch point through which
    /// both schedulers step a thread.
    StepResult step() {
      if (auto* replay = std::get_if<workload::ReplayCursor>(&code)) {
        return RegInterpreter::execute(replay->next(), ctx);
      }
      return std::get<RegInterpreter>(code).step(ctx);
    }
  };

  /// Pending wakeup of a stalled thread.  Entries are never removed when a
  /// stall is extended (e.g. an eviction re-stalls a waiting victim);
  /// instead a later entry is pushed and stale ones are discarded on pop
  /// (valid iff the thread is live, not already ready, and its current
  /// `ready_at` equals the entry time — `ready_at` never decreases).
  struct Wakeup {
    Cycle at;
    ThreadId thread;
  };
  struct WakeupAfter {
    bool operator()(const Wakeup& a, const Wakeup& b) const noexcept {
      return a.at > b.at;
    }
  };

  /// Event-scheduler queues: per-core residency and ready counts, the
  /// ready-core bitset and the wakeup heap.  Residency mirrors the
  /// machines' thread locations (updated by on_thread_moved, never
  /// rediscovered by scans).
  struct EventQueues {
    std::vector<std::vector<ThreadId>> residents;  // per core, sorted by id
    std::vector<std::uint32_t> ready_count;  // ready residents per core
    ReadyCoreSet ready_cores;                // bit c <=> ready_count[c] > 0
    std::priority_queue<Wakeup, std::vector<Wakeup>, WakeupAfter> wakeups;
    std::size_t num_ready = 0;

    void reset(std::size_t cores) {
      residents.assign(cores, {});
      ready_count.assign(cores, 0);
      ready_cores.reset(cores);
    }
    /// A resident of `core` became ready / stopped being ready.
    void gain(CoreId core) {
      if (ready_count[static_cast<std::size_t>(core)]++ == 0) {
        ready_cores.insert(core);
      }
    }
    void lose(CoreId core) {
      if (--ready_count[static_cast<std::size_t>(core)] == 0) {
        ready_cores.erase(core);
      }
    }
    /// Residency per core is bounded by guest contexts + natives, so these
    /// sorted splices are effectively O(1).
    void add_resident(CoreId core, ThreadId t) {
      auto& res = residents[static_cast<std::size_t>(core)];
      res.insert(std::lower_bound(res.begin(), res.end(), t), t);
    }
    void remove_resident(CoreId core, ThreadId t) {
      auto& res = residents[static_cast<std::size_t>(core)];
      res.erase(std::lower_bound(res.begin(), res.end(), t));
    }
  };

  /// Home core of `addr`, remapped around failed cores under fault
  /// injection.
  CoreId home_of(Addr addr);
  CoreId thread_location(ThreadId t) const;
  /// Serves one memory access for thread `t`; returns the stall latency.
  Cost serve_access(ThreadId t, const PendingAccess& mem);

  /// ThreadMoveObserver: keeps the resident queues in sync with the
  /// machine's thread locations (registered only in kEventDriven mode).
  void on_thread_moved(ThreadId t, CoreId from, CoreId to) override;

  /// Shared tail of the add_thread overloads.
  ThreadId push_thread(Thread th, CoreId native);
  /// Instantiates the protocol machine for params_.arch.
  void init_machines();
  /// Issues one instruction from `chosen` (shared by both schedulers).
  void step_thread(ThreadId chosen);
  /// Sets `t`'s ready time to `when` (>= now_) and, in event mode, moves
  /// it between the ready set and the wakeup heap accordingly.
  void set_ready_at(ThreadId t, Cycle when);
  void mark_ready(ThreadId t);
  void mark_unready(ThreadId t);
  /// True iff wakeup `w` is current: its thread is live, not already
  /// ready, and still stalled until exactly `w.at` (ready_at only grows,
  /// so a superseded entry never matches).
  bool wakeup_live(const Wakeup& w) const;
  /// First ready resident of `core` in round-robin order from rr_[core].
  ThreadId select_ready_resident(CoreId core) const;

  /// Fails every core whose scheduled failure time is <= now_ and
  /// re-stalls the evacuated threads (fault injection only).
  void process_due_failures();
  /// Terminates the run with a structured liveness diagnosis.
  void fire_watchdog(const char* reason);
  /// Fault-injection cycle-top bookkeeping shared by both schedulers:
  /// stamps the injector clock and processes due core failures.
  void fault_tick() {
    if (faults_ != nullptr) {
      faults_->set_now(now_);
      if (faults_->next_failure_at() <= now_) {
        process_due_failures();
      }
    }
  }

  void run_scan(Cycle max_cycles);
  void run_event(Cycle max_cycles);
  /// Event-scheduler cycle top: advances now_ (one cycle, or a jump over
  /// a fully stalled stretch), runs the watchdog and fault bookkeeping,
  /// and readies due wakeups.  Returns false when the run is over.
  bool begin_event_cycle(Cycle max_cycles);
  /// Steps every ready core once in ascending order.
  void issue_cycle();
  /// Builds the event-scheduler residency/ready structures.
  void init_event_structures();

  Mesh mesh_;
  CostModel cost_;
  ExecParams params_;
  const Placement& placement_;
  std::uint32_t block_shift_;

  // Exactly one of these backs the memory system, per params_.arch.
  // The sealed policy is visited per access (a switch over the concrete
  // scheme — no virtual call unless the spec chose the kCustom hatch).
  std::optional<StandardPolicy> ra_policy_;
  std::unique_ptr<Em2Machine> em2_;        // also set for kEm2Ra (hybrid)
  HybridMachine* hybrid_ = nullptr;        // non-owning view when kEm2Ra
  std::unique_ptr<DirectoryCC> cc_;

  std::vector<Thread> threads_;
  std::vector<std::uint32_t> rr_;  // per-core round-robin cursor
  FunctionalMemory memory_;
  ConsistencyChecker checker_;
  ExecReport report_;
  Cycle now_ = 0;
  bool started_ = false;
  std::size_t halted_count_ = 0;
  FaultInjector* faults_ = nullptr;  // = params_.faults during run()
  /// Cycle of the most recent instruction retirement (watchdog anchor).
  Cycle last_progress_ = 0;
  bool watchdog_fired_ = false;

  // Event-driven scheduler state (live only during run() in kEventDriven
  // mode; empty otherwise).
  bool event_mode_ = false;
  EventQueues q_;
  std::vector<char> is_ready_;   // per thread
  std::vector<CoreId> core_of_;  // per thread, mirrors location
};

}  // namespace em2
