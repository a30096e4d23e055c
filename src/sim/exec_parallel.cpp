// Host-parallel execution of a single simulation run (ExecParams::shards
// with ExecParams::skew > 0): the relaxed-synchronization engine.
//
// The mesh is partitioned into contiguous shards, each with its own
// protocol machine, functional-memory partition, consistency checker,
// decision policy, and event scheduler.  Shards advance independently up
// to a quantum boundary; cross-shard traffic (migrations, eviction
// transfers, remote accesses) queues at the shard edge and is delivered
// at the barrier in deterministic (cycle, thread) order.  Deterministic
// for a fixed (shards, skew) and independent of how many worker threads
// the budget grants — but a different (still protocol-valid)
// interleaving than the sequential engine.
//
// Worker threads are leased from the shared process budget
// (util/thread_budget.hpp): a run that gets fewer (or zero) helpers
// simulates the same configuration on fewer threads and produces the
// identical report.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "sim/exec_system.hpp"
#include "util/assert.hpp"
#include "util/thread_budget.hpp"

namespace em2 {

namespace {

/// A quantum-granularity fork/join pool.  Tasks are microseconds long and
/// fire thousands of times per run, so helpers spin (with yield) on an
/// epoch counter instead of blocking on a condition variable; the
/// release/acquire pair on `epoch_` publishes the task and its inputs, and
/// the acq_rel `done_` counter publishes the helpers' writes back to the
/// coordinator.
class SpinPool {
 public:
  explicit SpinPool(std::size_t helpers) {
    threads_.reserve(helpers);
    for (std::size_t i = 0; i < helpers; ++i) {
      threads_.emplace_back([this, i] { helper_loop(i + 1); });
    }
  }

  ~SpinPool() {
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    for (std::thread& t : threads_) {
      t.join();
    }
  }

  SpinPool(const SpinPool&) = delete;
  SpinPool& operator=(const SpinPool&) = delete;

  /// Participants, including the calling thread.
  std::size_t parts() const noexcept { return threads_.size() + 1; }

  /// Runs task(part, parts()) on every participant; the caller takes part
  /// 0.  Returns when every part finished.
  void run(const std::function<void(std::size_t, std::size_t)>& task) {
    if (threads_.empty()) {
      task(0, 1);
      return;
    }
    task_ = &task;
    done_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    task(0, parts());
    while (done_.load(std::memory_order_acquire) != threads_.size()) {
      std::this_thread::yield();
    }
    task_ = nullptr;
  }

 private:
  void helper_loop(std::size_t part) {
    std::uint64_t seen = 0;
    for (;;) {
      while (epoch_.load(std::memory_order_acquire) == seen) {
        std::this_thread::yield();
      }
      ++seen;
      if (stop_.load(std::memory_order_acquire)) {
        return;
      }
      (*task_)(part, parts());
      done_.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> done_{0};
  std::atomic<bool> stop_{false};
  const std::function<void(std::size_t, std::size_t)>* task_ = nullptr;
  std::vector<std::thread> threads_;
};

constexpr Cycle kFarFuture = std::numeric_limits<Cycle>::max();

}  // namespace

struct RelaxedEngine {
  using Wakeup = ExecSystem::Wakeup;

  /// Cross-shard traffic, queued at the source during a quantum and
  /// delivered at the barrier.
  struct Msg {
    enum class Kind : std::uint8_t {
      kMigrate = 0,  ///< thread + pending access travel to the home shard
      kEvict = 1,    ///< displaced guest travels to its native shard
      kRemote = 2,   ///< word-granularity request to the home shard
    };
    Kind kind = Kind::kMigrate;
    ThreadId thread = kNoThread;
    Cycle cycle = 0;      ///< shard-local issue cycle
    CoreId dest = kNoCore;
    Cost cost = 0;        ///< already charged at the source machine
    PendingAccess mem{};  ///< kMigrate / kRemote payload
  };

  struct Shard;

  struct ShardObserver final : ThreadMoveObserver {
    RelaxedEngine* eng = nullptr;
    std::uint32_t shard = 0;
    void on_thread_moved(ThreadId t, CoreId from, CoreId to) override;
  };

  struct Shard {
    std::uint32_t index = 0;
    CoreId begin = 0;
    CoreId end = 0;  // [begin, end)
    std::unique_ptr<Em2Machine> machine;
    HybridMachine* hybrid = nullptr;      // non-owning view when kEm2Ra
    std::optional<StandardPolicy> policy; // shard fork of sys.ra_policy_
    FunctionalMemory memory;              // authoritative for in-range homes
    ConsistencyChecker checker;
    ShardObserver observer;
    // Event scheduler over the shard's core range (mesh-sized, but only
    // in-range cores ever hold residents).
    ExecSystem::EventQueues q;
    Cycle now = 0;
    Cycle last_progress = 0;
    std::uint64_t instructions = 0;
    std::size_t halted = 0;
    std::vector<Msg> outbox;
  };

  ExecSystem& sys;
  Cycle quantum;
  std::uint32_t nshards;
  std::vector<Shard> shards;
  std::vector<std::uint32_t> shard_of_core;
  /// Shard policies in index order, for the barrier predictor merge
  /// (empty unless kEm2Ra).
  std::vector<StandardPolicy*> policy_ptrs;
  /// owner[t]: the shard whose machine/scheduler currently holds t.
  /// Written ONLY between quanta (init, barrier); shards read it to
  /// discard wakeup entries for threads that moved away.
  std::vector<std::uint32_t> owner;

  RelaxedEngine(ExecSystem& s, std::uint32_t n)
      : sys(s), quantum(s.params_.skew), nshards(n) {}

  Shard& shard_at(CoreId core) {
    return shards[shard_of_core[static_cast<std::size_t>(core)]];
  }

  void set_ready_at(Shard& s, ThreadId t, Cycle when) {
    sys.set_ready_at(s.q, t, when, s.now);
  }

  /// ThreadMoveObserver body: keeps the shard's resident structures in
  /// sync with its machine.  `from` is always in-range (the machine only
  /// hosts in-range threads); `to` may be an out-of-range native core
  /// (eviction departure) — the caller ships the thread at the barrier.
  void on_moved(Shard& s, ThreadId t, CoreId from, CoreId to) {
    if (sys.threads_[static_cast<std::size_t>(t)].halted) {
      sys.core_of_[static_cast<std::size_t>(t)] = to;
      return;
    }
    s.q.remove_resident(from, t);
    if (to >= s.begin && to < s.end) {
      s.q.add_resident(to, t);
      if (sys.is_ready_[static_cast<std::size_t>(t)]) {
        s.q.lose(from);
        s.q.gain(to);
      }
    } else if (sys.is_ready_[static_cast<std::size_t>(t)]) {
      sys.mark_unready(s.q, t);  // core_of_ still names `from` here
    }
    sys.core_of_[static_cast<std::size_t>(t)] = to;
  }

  /// Functional value flow + consistency witness on the home shard's
  /// partition (the relaxed analogue of the tail of serve_access).
  /// `served_at` is where the access actually executed, as the machines
  /// report it — the witness's single-home check compares it to `home`.
  void serve_value(Shard& home_shard, ThreadId t, CoreId served_at,
                   CoreId home, const PendingAccess& mem) {
    ExecSystem::Thread& th = sys.threads_[static_cast<std::size_t>(t)];
    if (mem.op == MemOp::kRead) {
      const std::uint32_t value = home_shard.memory.load(mem.addr);
      home_shard.checker.on_load(t, mem.addr, value, served_at, home);
      RegInterpreter::complete_load(th.ctx, mem.dst_reg, value);
    } else {
      home_shard.memory.store(mem.addr, mem.store_value);
      home_shard.checker.on_store(t, mem.addr, mem.store_value, served_at,
                                  home);
    }
  }

  /// A migration/eviction displaced `v` at the source machine.  In-range
  /// victims re-stall locally; out-of-range ones (native core in another
  /// shard) are shipped at the barrier, cost already charged here.
  void handle_victim(Shard& s, ThreadId v, Cost cost) {
    if (v == kNoThread) {
      return;
    }
    const CoreId nat = s.machine->native(v);  // evictions target the native
    if (nat >= s.begin && nat < s.end) {
      if (!sys.threads_[static_cast<std::size_t>(v)].halted) {
        set_ready_at(
            s, v,
            std::max(sys.threads_[static_cast<std::size_t>(v)].ready_at,
                     s.now + cost));
      }
    } else {
      s.outbox.push_back(
          Msg{Msg::Kind::kEvict, v, s.now, nat, cost, PendingAccess{}});
    }
  }

  /// Removes a just-stepped (hence ready, resident) thread from the
  /// shard's scheduler ahead of a cross-shard transfer.
  void detach(Shard& s, ThreadId t, CoreId dest) {
    sys.mark_unready(s.q, t);
    s.q.remove_resident(sys.core_of_[static_cast<std::size_t>(t)], t);
    sys.core_of_[static_cast<std::size_t>(t)] = dest;
    sys.threads_[static_cast<std::size_t>(t)].ready_at = kFarFuture;
  }

  void serve_mem(Shard& s, ThreadId t, const PendingAccess& mem) {
    const CoreId home =
        sys.placement_.home_of_block(mem.addr >> sys.block_shift_);
    const bool local_home = home >= s.begin && home < s.end;
    if (sys.params_.arch == MemArch::kEm2) {
      if (local_home) {
        const AccessOutcome out = s.machine->access(t, home, mem.op, mem.addr);
        handle_victim(s, out.evicted_thread, out.eviction_cost);
        serve_value(s, t, s.machine->location(t), home, mem);
        set_ready_at(s, t, s.now + out.thread_cost + out.memory_latency);
      } else {
        const Cost cost = s.machine->depart_for_migration(t, home, mem.op);
        detach(s, t, home);
        s.outbox.push_back(
            Msg{Msg::Kind::kMigrate, t, s.now, home, cost, mem});
      }
      return;
    }
    // kEm2Ra (kCc is rejected before the engine is built).
    const Addr block = mem.addr >> sys.block_shift_;
    if (local_home) {
      const HybridOutcome out = s.policy->visit([&](auto& p) {
        return s.hybrid->access_hybrid(p, t, home, mem.op, mem.addr, block);
      });
      handle_victim(s, out.base.evicted_thread, out.base.eviction_cost);
      // A remote access is served by the home core's handler while the
      // thread stays put; a local or migrate outcome executes where the
      // thread now is.
      serve_value(s, t, out.remote ? home : s.machine->location(t), home,
                  mem);
      set_ready_at(s, t,
                   s.now + out.base.thread_cost + out.base.memory_latency);
      return;
    }
    // Cross-shard decision: the same query access_hybrid would build, with
    // the two outcomes split across the barrier.
    DecisionQuery q;
    q.thread = t;
    q.current = s.machine->location(t);
    q.home = home;
    q.native = s.machine->native(t);
    q.op = mem.op;
    q.block = block;
    const RaDecision d = s.policy->decide(q);
    // Shard-local observe: a no-op for stateless kinds; stateful kinds
    // update the querying thread's per-thread state, which rides with
    // the thread at delivery (kMigrate) or stays put (kRemote).
    s.policy->observe(t, home, q.native);
    if (d == RaDecision::kMigrate) {
      const Cost cost = s.machine->depart_for_migration(t, home, mem.op);
      detach(s, t, home);
      s.outbox.push_back(Msg{Msg::Kind::kMigrate, t, s.now, home, cost, mem});
    } else {
      const Cost rt = s.hybrid->remote_access_cost(t, home, mem.op);
      // The thread stays resident but cannot retire the access until the
      // home shard serves it at the barrier (which sets the real ready_at).
      sys.mark_unready(s.q, t);
      sys.threads_[static_cast<std::size_t>(t)].ready_at = kFarFuture;
      s.outbox.push_back(Msg{Msg::Kind::kRemote, t, s.now, home, rt, mem});
    }
  }

  void step_owned(Shard& s, ThreadId chosen) {
    ExecSystem::Thread& th = sys.threads_[static_cast<std::size_t>(chosen)];
    const StepResult r = th.step();
    ++s.instructions;
    s.last_progress = s.now;
    switch (r.kind) {
      case StepKind::kDone:
        th.halted = true;
        ++s.halted;
        sys.report_.finish_cycle[static_cast<std::size_t>(chosen)] = s.now;
        sys.mark_unready(s.q, chosen);
        s.q.remove_resident(sys.core_of_[static_cast<std::size_t>(chosen)],
                            chosen);
        break;
      case StepKind::kMem:
        serve_mem(s, chosen, r.mem);
        break;
      case StepKind::kOk:
        break;
    }
  }

  /// True iff `w` is a live entry for a thread this shard still owns.
  /// Owner is checked FIRST: a thread that moved away is owned (and its
  /// Thread fields written) by another shard's worker.  The core-range
  /// check covers the in-flight window: a guest evicted to an out-of-range
  /// native mid-quantum keeps its owner (and possibly a stale stall
  /// wakeup) until the barrier ships it, but its core already points
  /// outside the shard — scheduling it here would step it on a core this
  /// shard does not own.
  bool wakeup_valid(const Shard& s, const Wakeup& w) const {
    if (owner[static_cast<std::size_t>(w.thread)] != s.index) {
      return false;
    }
    const CoreId core = sys.core_of_[static_cast<std::size_t>(w.thread)];
    if (core < s.begin || core >= s.end) {
      return false;
    }
    return sys.wakeup_live(w);
  }

  /// Advances one shard to `t_end` (the quantum covers (prev, t_end]).
  /// No faults, no watchdog in here — relaxed mode rejects the former and
  /// the coordinator handles the latter at barriers.
  void run_quantum(Shard& s, Cycle t_end) {
    while (s.now < t_end) {
      if (s.q.num_ready == 0) {
        while (!s.q.wakeups.empty() && !wakeup_valid(s, s.q.wakeups.top())) {
          s.q.wakeups.pop();
        }
        if (s.q.wakeups.empty() || s.q.wakeups.top().at > t_end) {
          s.now = t_end;  // idle to the barrier; messages may wake us later
          return;
        }
        s.now = s.q.wakeups.top().at;
      } else {
        ++s.now;
      }
      while (!s.q.wakeups.empty() && s.q.wakeups.top().at <= s.now) {
        const Wakeup w = s.q.wakeups.top();
        s.q.wakeups.pop();
        if (wakeup_valid(s, w)) {
          sys.mark_ready(s.q, w.thread);
        }
      }
      for (CoreId core = s.q.ready_cores.next_after(-1); core != kNoCore;
           core = s.q.ready_cores.next_after(core)) {
        const ThreadId chosen = sys.select_ready_resident(s.q, core);
        EM2_ASSERT(chosen != kNoThread,
                   "shard ready-core set out of sync with residents");
        sys.rr_[static_cast<std::size_t>(core)] =
            static_cast<std::uint32_t>(chosen + 1);
        step_owned(s, chosen);
      }
    }
  }

  /// Installs `t` at `dest` (barrier side), re-homing ownership and
  /// scheduling it at `ready`.  An adoption eviction is handled in place:
  /// in-range victims re-stall, out-of-range ones cascade exactly one hop
  /// (a native arrival can never evict).
  void deliver(ThreadId t, CoreId dest, Cycle ready, Cycle cause_cycle,
               Cycle t_end) {
    Shard& d = shard_at(dest);
    // Per-thread policy state rides with the thread: export from the
    // shard that decided for it so far, import into the adopter.  Must
    // precede the owner[] update — owner[t] still names the source (the
    // eviction-cascade recursion below relies on the same invariant).
    if (sys.params_.arch == MemArch::kEm2Ra) {
      Shard& src = shards[owner[static_cast<std::size_t>(t)]];
      if (src.index != d.index) {
        PolicyThreadState st;
        src.policy->export_thread_state(t, st);
        d.policy->import_thread_state(t, std::move(st));
      }
    }
    const Em2Machine::Adoption a = d.machine->adopt_thread(t, dest);
    owner[static_cast<std::size_t>(t)] = d.index;
    sys.core_of_[static_cast<std::size_t>(t)] = dest;
    ExecSystem::Thread& th = sys.threads_[static_cast<std::size_t>(t)];
    if (!th.halted) {
      d.q.add_resident(dest, t);
      sys.is_ready_[static_cast<std::size_t>(t)] = 0;
      set_ready_at(d, t, ready);  // ready > d.now == t_end: wakeup push
    }
    if (a.evicted != kNoThread) {
      const ThreadId v = a.evicted;
      const CoreId vnat = d.machine->native(v);
      const Cycle vready = std::max(
          {sys.threads_[static_cast<std::size_t>(v)].ready_at,
           cause_cycle + a.eviction_cost, t_end + 1});
      if (vnat >= d.begin && vnat < d.end) {
        if (!sys.threads_[static_cast<std::size_t>(v)].halted) {
          set_ready_at(d, v, vready);
        }
      } else {
        deliver(v, vnat, vready, cause_cycle, t_end);
      }
    }
  }

  /// Delivers every quantum's cross-shard messages in deterministic
  /// (cycle, thread) order — a thread issues at most one cross-shard
  /// operation per quantum, so the key is unique and the order total.
  void barrier(Cycle t_end) {
    std::vector<Msg> msgs;
    for (Shard& s : shards) {
      msgs.insert(msgs.end(), s.outbox.begin(), s.outbox.end());
      s.outbox.clear();
    }
    std::stable_sort(msgs.begin(), msgs.end(),
                     [](const Msg& a, const Msg& b) {
                       if (a.cycle != b.cycle) {
                         return a.cycle < b.cycle;
                       }
                       return a.thread < b.thread;
                     });
    for (const Msg& m : msgs) {
      switch (m.kind) {
        case Msg::Kind::kMigrate:
          deliver(m.thread, m.dest, std::max(m.cycle + m.cost, t_end + 1),
                  m.cycle, t_end);
          // The access executes wherever the delivery landed the thread
          // (per its new owner's machine), on the home partition.
          serve_value(shard_at(m.dest), m.thread,
                      shards[owner[static_cast<std::size_t>(m.thread)]]
                          .machine->location(m.thread),
                      m.dest, m.mem);
          break;
        case Msg::Kind::kEvict:
          deliver(m.thread, m.dest,
                  std::max({sys.threads_[static_cast<std::size_t>(m.thread)]
                                .ready_at,
                            m.cycle + m.cost, t_end + 1}),
                  m.cycle, t_end);
          break;
        case Msg::Kind::kRemote: {
          // Home-side service; the thread never moved.
          serve_value(shard_at(m.dest), m.thread, m.dest, m.dest, m.mem);
          Shard& o = shards[owner[static_cast<std::size_t>(m.thread)]];
          set_ready_at(o, m.thread, std::max(m.cycle + m.cost, t_end + 1));
          break;
        }
      }
    }
    // Predictor merge point: fold every shard's run-length samples into
    // the base policy in shard-index order, then rebroadcast the folded
    // estimate (a no-op for every kind but cost-estimate).
    if (!policy_ptrs.empty()) {
      sys.ra_policy_->merge_shard_predictors(policy_ptrs);
    }
  }

  /// Earliest cycle any shard can make progress at (kFarFuture if none).
  Cycle min_pending() {
    Cycle wmin = kFarFuture;
    for (Shard& s : shards) {
      while (!s.q.wakeups.empty() && !wakeup_valid(s, s.q.wakeups.top())) {
        s.q.wakeups.pop();
      }
      if (!s.q.wakeups.empty()) {
        wmin = std::min(wmin, s.q.wakeups.top().at);
      }
    }
    return wmin;
  }

  /// Relaxed-mode thread conservation: every thread is hosted exactly once
  /// across the shard machines, at the core its owner tracks, and guest
  /// occupancy over owned ranges matches the away-from-native count.
  bool conservation_ok() {
    std::size_t away = 0;
    for (std::size_t t = 0; t < sys.threads_.size(); ++t) {
      const Shard& o = shards[owner[t]];
      const CoreId loc = o.machine->location(static_cast<ThreadId>(t));
      if (loc < o.begin || loc >= o.end || loc != sys.core_of_[t]) {
        return false;
      }
      if (loc != o.machine->native(static_cast<ThreadId>(t))) {
        ++away;
      }
    }
    std::size_t occupied = 0;
    for (const Shard& s : shards) {
      for (CoreId c = s.begin; c < s.end; ++c) {
        occupied += static_cast<std::size_t>(s.machine->guests_at(c));
      }
    }
    return occupied == away;
  }

  void init() {
    const auto cores = sys.mesh_.num_cores();
    shard_of_core.resize(static_cast<std::size_t>(cores));
    shards.resize(nshards);
    std::vector<CoreId> native;
    native.reserve(sys.threads_.size());
    for (const ExecSystem::Thread& th : sys.threads_) {
      native.push_back(th.ctx.native_core);
    }
    const CoreId base = cores / static_cast<CoreId>(nshards);
    const CoreId rem = cores % static_cast<CoreId>(nshards);
    CoreId next = 0;
    for (std::uint32_t i = 0; i < nshards; ++i) {
      Shard& s = shards[i];
      s.index = i;
      s.begin = next;
      next += base + (static_cast<CoreId>(i) < rem ? 1 : 0);
      s.end = next;
      for (CoreId c = s.begin; c < s.end; ++c) {
        shard_of_core[static_cast<std::size_t>(c)] = i;
      }
      if (sys.params_.arch == MemArch::kEm2Ra) {
        s.policy.emplace(sys.ra_policy_->fork_shard(i, nshards));
        policy_ptrs.push_back(&*s.policy);
        auto hybrid = std::make_unique<HybridMachine>(
            sys.mesh_, sys.cost_, sys.params_.em2, native);
        s.hybrid = hybrid.get();
        s.machine = std::move(hybrid);
      } else {
        s.machine = std::make_unique<Em2Machine>(sys.mesh_, sys.cost_,
                                                 sys.params_.em2, native);
      }
      s.observer.eng = this;
      s.observer.shard = i;
      s.machine->set_move_observer(&s.observer);
      // Seed the partition from the poke replay log (only in-range homes
      // are authoritative; out-of-range seeds are simply never read).
      for (const auto& [addr, value] : sys.poke_log_) {
        s.memory.store(addr, value);
        const CoreId home =
            sys.placement_.home_of_block(addr >> sys.block_shift_);
        if (home >= s.begin && home < s.end) {
          s.checker.on_store(kNoThread, addr, value, home, home);
        }
      }
      s.q.reset(static_cast<std::size_t>(cores));
    }
    // Thread placement: everything starts ready at its native core.
    const std::size_t n_threads = sys.threads_.size();
    owner.resize(n_threads);
    sys.is_ready_.assign(n_threads, 0);
    sys.core_of_.resize(n_threads);
    for (std::size_t t = 0; t < n_threads; ++t) {
      const CoreId c = sys.threads_[t].ctx.native_core;
      sys.core_of_[t] = c;
      Shard& s = shard_at(c);
      owner[t] = s.index;
      s.q.add_resident(c, static_cast<ThreadId>(t));
      sys.mark_ready(s.q, static_cast<ThreadId>(t));
    }
  }

  ExecReport run(Cycle max_cycles) {
    init();
    const ThreadBudgetLease lease(nshards - 1);
    SpinPool pool(std::min<std::size_t>(lease.granted(), nshards - 1));

    const std::size_t n_threads = sys.threads_.size();
    std::size_t halted_total = 0;
    bool timed_out = false;
    Cycle t_end = 0;
    while (halted_total < n_threads) {
      if (t_end >= max_cycles) {
        timed_out = true;
        break;
      }
      Cycle next = t_end <= max_cycles - quantum ? t_end + quantum
                                                 : max_cycles;
      std::size_t any_ready = 0;
      for (const Shard& s : shards) {
        any_ready += s.q.num_ready;
      }
      if (any_ready == 0) {
        const Cycle wmin = min_pending();
        EM2_ASSERT(wmin != kFarFuture,
                   "live threads but no pending wakeup in any shard: "
                   "relaxed engine would hang");
        next = std::min(std::max(next, wmin), max_cycles);
      }
      t_end = next;
      pool.run([&](std::size_t part, std::size_t nparts) {
        for (std::size_t i = part; i < shards.size(); i += nparts) {
          run_quantum(shards[i], t_end);
        }
      });
      barrier(t_end);
      halted_total = 0;
      Cycle progress = 0;
      for (const Shard& s : shards) {
        halted_total += s.halted;
        progress = std::max(progress, s.last_progress);
      }
      if (sys.params_.watchdog_cycles > 0 && halted_total < n_threads &&
          t_end - progress >= sys.params_.watchdog_cycles) {
        sys.now_ = t_end;
        sys.last_progress_ = progress;
        sys.halted_count_ = halted_total;
        sys.fire_watchdog(
            "no instruction retired within the watchdog window (relaxed)");
        timed_out = true;
        break;
      }
    }

    // Report assembly (the relaxed analogue of run()'s tail).
    ExecReport& rep = sys.report_;
    Cycle cycles = timed_out ? std::min(t_end, max_cycles) : 0;
    if (!timed_out) {
      for (const Cycle f : rep.finish_cycle) {
        cycles = std::max(cycles, f);
      }
    }
    sys.now_ = cycles;
    sys.halted_count_ = halted_total;
    rep.cycles = cycles;
    rep.instructions = 0;
    rep.timed_out = timed_out;
    bool checkers_ok = true;
    FastCounters merged;
    for (const Shard& s : shards) {
      rep.instructions += s.instructions;
      checkers_ok = checkers_ok && s.checker.ok();
      merged.merge(s.machine->counters());
      for (const ConsistencyViolation& v : s.checker.violations()) {
        rep.violations.push_back(v);
      }
    }
    rep.consistent = checkers_ok && !timed_out;
    rep.conservation_ok = conservation_ok();
    rep.counters = merged.named();
    // Fold each shard's OWNED words back into the system memory so
    // peek() observes the final state regardless of engine.  Only
    // in-range homes are authoritative — every shard carries the full
    // poke seed, but a word homed elsewhere is never written locally.
    for (const Shard& s : shards) {
      s.memory.for_each_word([&](Addr addr, std::uint32_t value) {
        const CoreId home =
            sys.placement_.home_of_block(addr >> sys.block_shift_);
        if (home >= s.begin && home < s.end) {
          sys.memory_.store(addr, value);
        }
      });
    }
    return rep;
  }
};

void RelaxedEngine::ShardObserver::on_thread_moved(ThreadId t, CoreId from,
                                                   CoreId to) {
  eng->on_moved(eng->shards[shard], t, from, to);
}

ExecReport ExecSystem::run_relaxed(Cycle max_cycles, std::uint32_t nshards) {
  if (params_.arch == MemArch::kEm2Ra) {
    EM2_ASSERT(policy_spec_is_shardable(params_.ra_policy),
               "relaxed-sync sharding (skew > 0) requires a "
               "shard-partitionable decision policy: every standard "
               "scheme qualifies under the fork/merge contract; custom: "
               "wrappers only around stateless inner schemes");
    // Base instance: shard policies fork from it, barrier predictor
    // merges fold back into it, and ra_policy_name() labels read it.
    ra_policy_.emplace(StandardPolicy::make(params_.ra_policy, mesh_, cost_));
  }
  report_ = ExecReport{};
  report_.finish_cycle.assign(threads_.size(), 0);
  RelaxedEngine engine(*this, nshards);
  return engine.run(max_cycles);
}

}  // namespace em2
