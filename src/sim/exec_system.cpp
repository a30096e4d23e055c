#include "sim/exec_system.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace em2 {

ExecSystem::ExecSystem(const Mesh& mesh, const CostModel& cost,
                       const ExecParams& params, const Placement& placement)
    : mesh_(mesh), cost_(cost), params_(params), placement_(placement) {
  EM2_ASSERT(std::has_single_bit(params.block_bytes),
             "block size must be a power of two");
  block_shift_ =
      static_cast<std::uint32_t>(std::countr_zero(params.block_bytes));
  rr_.assign(static_cast<std::size_t>(mesh.num_cores()), 0);
}

ExecSystem::~ExecSystem() = default;

ThreadId ExecSystem::add_thread(RProgram program, CoreId native) {
  return push_thread(Thread{RegInterpreter(std::move(program))}, native);
}

ThreadId ExecSystem::add_thread(workload::ReplayCursor replay,
                                CoreId native) {
  return push_thread(Thread{replay}, native);
}

ThreadId ExecSystem::push_thread(Thread th, CoreId native) {
  EM2_ASSERT(!started_, "threads must be added before run()");
  EM2_ASSERT(native >= 0 && native < mesh_.num_cores(),
             "native core outside the mesh");
  th.ctx.thread = static_cast<ThreadId>(threads_.size());
  th.ctx.native_core = native;
  threads_.push_back(std::move(th));
  return threads_.back().ctx.thread;
}

void ExecSystem::poke(Addr addr, std::uint32_t value) {
  memory_.store(addr, value);
  const CoreId home = home_of(addr);
  checker_.on_store(kNoThread, addr, value, home, home);
}

CoreId ExecSystem::home_of(Addr addr) {
  const CoreId home = placement_.home_of_block(addr >> block_shift_);
  // A failed home's address slice is served by its deterministic
  // replacement (identity until the first failure).
  return faults_ != nullptr ? faults_->remap(home) : home;
}

CoreId ExecSystem::thread_location(ThreadId t) const {
  if (params_.arch == MemArch::kCc) {
    return threads_[static_cast<std::size_t>(t)].ctx.native_core;
  }
  return em2_->location(t);
}

Cost ExecSystem::serve_access(ThreadId t, const PendingAccess& mem) {
  // CC serves at the requester and never consults the home here.
  const CoreId home =
      params_.arch == MemArch::kCc ? kNoCore : home_of(mem.addr);
  Cost latency = 0;
  // Where the access actually executed, as the machine reports it — the
  // SC witness's single-home check compares this against `home`.
  CoreId served_at = kNoCore;

  switch (params_.arch) {
    case MemArch::kEm2: {
      const AccessOutcome out = em2_->access(t, home, mem.op, mem.addr);
      latency = out.thread_cost + out.memory_latency;
      served_at = em2_->location(t);
      if (out.evicted_thread != kNoThread) {
        const Thread& victim =
            threads_[static_cast<std::size_t>(out.evicted_thread)];
        set_ready_at(out.evicted_thread,
                     std::max(victim.ready_at, now_ + out.eviction_cost));
      }
      break;
    }
    case MemArch::kEm2Ra: {
      const Addr block = mem.addr >> block_shift_;
      // Sealed-policy dispatch: a switch over the concrete scheme, every
      // branch a direct inlinable call (kCustom alone stays virtual).
      const HybridOutcome out = ra_policy_->visit([&](auto& p) {
        return hybrid_->access_hybrid(p, t, home, mem.op, mem.addr, block);
      });
      latency = out.base.thread_cost + out.base.memory_latency;
      // A remote access is served by the home core's handler while the
      // thread stays put; local and migrate outcomes execute wherever the
      // thread now is.
      served_at = out.remote ? home : hybrid_->location(t);
      if (out.base.evicted_thread != kNoThread) {
        const Thread& victim =
            threads_[static_cast<std::size_t>(out.base.evicted_thread)];
        set_ready_at(
            out.base.evicted_thread,
            std::max(victim.ready_at, now_ + out.base.eviction_cost));
      }
      break;
    }
    case MemArch::kCc: {
      const CoreId at = threads_[static_cast<std::size_t>(t)].ctx.native_core;
      const CcAccessResult out = cc_->access(at, mem.addr, mem.op);
      latency = out.latency;
      // CC executes at the requester by design; the single-home invariant
      // does not apply, so the checker sees at == home.
      served_at = at;
      break;
    }
  }

  // Functional value flow + consistency witness.  Under EM2 and EM2-RA
  // the access must be served at the home core (after a migration, or by
  // the home-side remote-access handler), so the witness flags any access
  // the machine executed elsewhere; under CC it is served at the
  // requester, where the single-home invariant does not apply.
  Thread& th = threads_[static_cast<std::size_t>(t)];
  const CoreId checker_home =
      params_.arch == MemArch::kCc ? served_at : home;
  if (mem.op == MemOp::kRead) {
    const std::uint32_t value = memory_.load(mem.addr);
    checker_.on_load(t, mem.addr, value, served_at, checker_home);
    RegInterpreter::complete_load(th.ctx, mem.dst_reg, value);
  } else {
    memory_.store(mem.addr, mem.store_value);
    checker_.on_store(t, mem.addr, mem.store_value, served_at, checker_home);
  }
  return latency;
}

void ExecSystem::init_machines() {
  std::vector<CoreId> native;
  native.reserve(threads_.size());
  for (const Thread& th : threads_) {
    native.push_back(th.ctx.native_core);
  }
  switch (params_.arch) {
    case MemArch::kEm2:
      em2_ = std::make_unique<Em2Machine>(mesh_, cost_, params_.em2,
                                          std::move(native));
      break;
    case MemArch::kEm2Ra: {
      // Throws UnknownNameError for a bad spec — the same fail-fast path
      // System::validate takes, so direct ExecSystem users get the
      // uniform "unknown policy '...'" error instead of a late assert.
      ra_policy_.emplace(
          StandardPolicy::make(params_.ra_policy, mesh_, cost_));
      auto hybrid = std::make_unique<HybridMachine>(
          mesh_, cost_, params_.em2, std::move(native));
      hybrid_ = hybrid.get();
      em2_ = std::move(hybrid);
      break;
    }
    case MemArch::kCc:
      // CC never moves a thread: every context executes at its native
      // core, so the resident queues built in run_event are static and no
      // move observer exists to register.
      cc_ = std::make_unique<DirectoryCC>(mesh_, cost_, params_.cc,
                                          placement_);
      break;
  }
  if (em2_ && event_mode_) {
    em2_->set_move_observer(this);
  }
  if (em2_ && faults_ != nullptr) {
    em2_->set_fault_injector(faults_);
  }
}

void ExecSystem::process_due_failures() {
  for (const CoreId dead : faults_->take_due_failures(now_)) {
    for (const Em2Machine::Evacuation& ev : em2_->fail_core(dead)) {
      // The evacuated thread rides the eviction machinery: it re-stalls
      // for the trip to its (remapped) native context on top of whatever
      // stall it already served.
      const Thread& th = threads_[static_cast<std::size_t>(ev.thread)];
      set_ready_at(ev.thread, std::max(th.ready_at, now_ + ev.cost));
    }
  }
}

void ExecSystem::fire_watchdog(const char* reason) {
  watchdog_fired_ = true;
  report_.watchdog_fired = true;
  std::string d = "liveness watchdog: ";
  d += reason;
  d += " (cycle " + std::to_string(now_) + ", last progress at cycle " +
       std::to_string(last_progress_) + "); threads live=" +
       std::to_string(threads_.size() - halted_count_) + " halted=" +
       std::to_string(halted_count_);
  if (event_mode_) {
    d += " ready=" + std::to_string(q_.num_ready);
    d += q_.wakeups.empty() ? "; no pending wakeup"
                            : "; earliest wakeup at cycle " +
                                  std::to_string(q_.wakeups.top().at);
  }
  if (faults_ != nullptr) {
    d += "; faults injected=" + std::to_string(faults_->stats().injected) +
         " live_cores=" + std::to_string(faults_->live_cores());
  }
  // A bounded sample of who is stuck and until when.
  int listed = 0;
  for (std::size_t t = 0; t < threads_.size() && listed < 4; ++t) {
    if (!threads_[t].halted) {
      d += (listed == 0 ? "; stalled: " : ", ") + std::string("t") +
           std::to_string(t) + "@ready_at=" +
           std::to_string(threads_[t].ready_at);
      ++listed;
    }
  }
  report_.diagnosis = d;
}

void ExecSystem::mark_ready(ThreadId t) {
  is_ready_[static_cast<std::size_t>(t)] = 1;
  ++q_.num_ready;
  q_.gain(core_of_[static_cast<std::size_t>(t)]);
}

void ExecSystem::mark_unready(ThreadId t) {
  is_ready_[static_cast<std::size_t>(t)] = 0;
  --q_.num_ready;
  q_.lose(core_of_[static_cast<std::size_t>(t)]);
}

void ExecSystem::set_ready_at(ThreadId t, Cycle when) {
  Thread& th = threads_[static_cast<std::size_t>(t)];
  th.ready_at = when;
  // A halted victim still gets its ready_at stamped (scan-scheduler
  // parity) but never re-enters the ready set or the wakeup heap.
  if (!event_mode_ || th.halted) {
    return;
  }
  if (when > now_) {
    if (is_ready_[static_cast<std::size_t>(t)]) {
      mark_unready(t);
    }
    q_.wakeups.push(Wakeup{when, t});
  } else if (!is_ready_[static_cast<std::size_t>(t)]) {
    mark_ready(t);
  }
}

bool ExecSystem::wakeup_live(const Wakeup& w) const {
  const Thread& th = threads_[static_cast<std::size_t>(w.thread)];
  return !th.halted && !is_ready_[static_cast<std::size_t>(w.thread)] &&
         th.ready_at == w.at;
}

void ExecSystem::on_thread_moved(ThreadId t, CoreId from, CoreId to) {
  // A halted thread's context still occupies its guest slot in the
  // machine and can be displaced by a later migration; it left the
  // scheduling structures when it retired, so only the location mirror
  // moves with it.
  if (!threads_[static_cast<std::size_t>(t)].halted) {
    q_.remove_resident(from, t);
    q_.add_resident(to, t);
    if (is_ready_[static_cast<std::size_t>(t)]) {
      // Re-home the ready accounting without toggling is_ready_.
      q_.lose(from);
      q_.gain(to);
    }
  }
  core_of_[static_cast<std::size_t>(t)] = to;
}

void ExecSystem::step_thread(ThreadId chosen) {
  Thread& th = threads_[static_cast<std::size_t>(chosen)];
  const StepResult r = th.step();
  ++report_.instructions;
  last_progress_ = now_;
  switch (r.kind) {
    case StepKind::kDone:
      th.halted = true;
      ++halted_count_;
      report_.finish_cycle[static_cast<std::size_t>(chosen)] = now_;
      if (event_mode_) {
        mark_unready(chosen);  // a stepped thread is always ready
        q_.remove_resident(core_of_[static_cast<std::size_t>(chosen)],
                           chosen);
      }
      break;
    case StepKind::kMem: {
      const Cost latency = serve_access(chosen, r.mem);
      set_ready_at(chosen, now_ + latency);
      break;
    }
    case StepKind::kOk:
      break;
  }
}

ThreadId ExecSystem::select_ready_resident(CoreId core) const {
  // Round-robin over *global thread ids* starting at rr_[core], restricted
  // to this core's residents — exactly the order the scan scheduler's
  // probe loop visits, so both schedulers pick the same thread.  rr_ is
  // at most the thread count, and a cursor equal to it wraps to the
  // front exactly as the scan's modulo would.
  const auto& res = q_.residents[static_cast<std::size_t>(core)];
  const auto start =
      static_cast<ThreadId>(rr_[static_cast<std::size_t>(core)]);
  const auto pivot = std::lower_bound(res.begin(), res.end(), start);
  for (auto it = pivot; it != res.end(); ++it) {
    if (is_ready_[static_cast<std::size_t>(*it)]) {
      return *it;
    }
  }
  for (auto it = res.begin(); it != pivot; ++it) {
    if (is_ready_[static_cast<std::size_t>(*it)]) {
      return *it;
    }
  }
  return kNoThread;
}

void ExecSystem::init_event_structures() {
  const std::size_t n_threads = threads_.size();
  const auto n_cores = static_cast<std::size_t>(mesh_.num_cores());
  q_.reset(n_cores);
  is_ready_.assign(n_threads, 0);
  core_of_.resize(n_threads);
  for (std::size_t t = 0; t < n_threads; ++t) {
    const CoreId c = threads_[t].ctx.native_core;
    core_of_[t] = c;
    q_.add_resident(c, static_cast<ThreadId>(t));
    mark_ready(static_cast<ThreadId>(t));  // every thread starts ready
  }
}

bool ExecSystem::begin_event_cycle(Cycle max_cycles) {
  if (halted_count_ == threads_.size() || now_ >= max_cycles) {
    return false;
  }
  if (q_.num_ready == 0) {
    // Nothing can issue: jump straight to the earliest wakeup instead of
    // idling one cycle at a time (the scan scheduler burns a full
    // O(cores x threads) probe pass per idle cycle).  Under fault
    // injection a pending core failure, and with a watchdog its deadline,
    // bound the jump too.
    while (!q_.wakeups.empty() && !wakeup_live(q_.wakeups.top())) {
      q_.wakeups.pop();  // stale: superseded by a later re-stall
    }
    std::uint64_t wake =
        q_.wakeups.empty() ? FaultInjector::kNever
                           : static_cast<std::uint64_t>(q_.wakeups.top().at);
    if (faults_ != nullptr) {
      wake = std::min(wake, faults_->next_failure_at());
    }
    if (params_.watchdog_cycles > 0) {
      wake = std::min(wake, static_cast<std::uint64_t>(
                                last_progress_ + params_.watchdog_cycles));
    }
    // With no wakeup, no pending failure, and no watchdog the scheduler
    // would hang — historically an assert; a configured watchdog turns it
    // into the structured diagnosis below instead.
    EM2_ASSERT(wake != FaultInjector::kNever,
               "live threads but no pending wakeup: scheduler would hang");
    if (wake > static_cast<std::uint64_t>(max_cycles)) {
      now_ = max_cycles;  // the scan scheduler idles up to the budget
      return false;
    }
    now_ = static_cast<Cycle>(wake);
  } else {
    ++now_;
  }
  if (params_.watchdog_cycles > 0 &&
      now_ - last_progress_ >= params_.watchdog_cycles) {
    fire_watchdog("no instruction retired within the watchdog window");
    return false;
  }
  fault_tick();

  while (!q_.wakeups.empty() && q_.wakeups.top().at <= now_) {
    const Wakeup w = q_.wakeups.top();
    q_.wakeups.pop();
    if (wakeup_live(w)) {
      mark_ready(w.thread);
    }
  }
  return true;
}

void ExecSystem::issue_cycle() {
  // Step each ready core once, in ascending core order.  The walk re-reads
  // the bitset after every step, so a migration landing on a *later* core
  // this cycle is stepped before the cycle ends (as the scan scheduler
  // would see it), while cores at or below the cursor — including a
  // stepped core that stays ready — wait for the next cycle.
  for (CoreId core = q_.ready_cores.next_after(-1); core != kNoCore;
       core = q_.ready_cores.next_after(core)) {
    if (faults_ != nullptr && faults_->core_stalled(core, now_)) {
      // Frozen window: the core issues nothing this cycle but keeps its
      // bit, so its residents retry next cycle.  rr_ is untouched, as in
      // the scan scheduler, which probes and then discards.
      continue;
    }
    const ThreadId chosen = select_ready_resident(core);
    EM2_ASSERT(chosen != kNoThread,
               "ready-core set out of sync with resident queues");
    rr_[static_cast<std::size_t>(core)] =
        static_cast<std::uint32_t>(chosen + 1);
    step_thread(chosen);
  }
}

void ExecSystem::run_event(Cycle max_cycles) {
  init_event_structures();
  while (begin_event_cycle(max_cycles)) {
    issue_cycle();
  }
}

void ExecSystem::run_scan(Cycle max_cycles) {
  // The reference scheduler: O(cores x threads) probing per cycle, kept
  // verbatim as the executable specification of the scheduling order.
  const std::size_t n = threads_.size();
  while (halted_count_ < n && now_ < max_cycles) {
    ++now_;
    if (params_.watchdog_cycles > 0 &&
        now_ - last_progress_ >= params_.watchdog_cycles) {
      fire_watchdog("no instruction retired within the watchdog window");
      break;
    }
    fault_tick();
    for (CoreId core = 0; core < mesh_.num_cores(); ++core) {
      // Pick one ready resident context, round-robin per core.
      ThreadId chosen = kNoThread;
      for (std::size_t probe = 0; probe < n; ++probe) {
        const std::size_t idx =
            (rr_[static_cast<std::size_t>(core)] + probe) % n;
        const Thread& th = threads_[idx];
        if (!th.halted && th.ready_at <= now_ &&
            thread_location(static_cast<ThreadId>(idx)) == core) {
          chosen = static_cast<ThreadId>(idx);
          break;
        }
      }
      if (chosen == kNoThread) {
        continue;
      }
      // The stall draw happens only when the core would actually issue,
      // so both schedulers count the identical (core, window) stalls.
      // rr_ is committed only on issue, matching the event scheduler.
      if (faults_ != nullptr && faults_->core_stalled(core, now_)) {
        continue;
      }
      rr_[static_cast<std::size_t>(core)] =
          static_cast<std::uint32_t>(chosen + 1);
      step_thread(chosen);
    }
  }
}

ExecReport ExecSystem::run(Cycle max_cycles) {
  EM2_ASSERT(!started_,
             "ExecSystem::run is single-shot: build a new system to re-run "
             "(interpreters, machines, and checker state are consumed)");
  started_ = true;
  event_mode_ = params_.scheduler == SchedulerKind::kEventDriven;
  faults_ = params_.faults;
  EM2_ASSERT(faults_ == nullptr || params_.arch != MemArch::kCc,
             "fault injection is EM2/EM2-RA only (no CC fault model)");
  init_machines();

  report_ = ExecReport{};
  report_.finish_cycle.assign(threads_.size(), 0);

  if (event_mode_) {
    run_event(max_cycles);
  } else {
    run_scan(max_cycles);
  }

  report_.cycles = now_;
  report_.timed_out = halted_count_ < threads_.size();
  report_.consistent = checker_.ok() && !report_.timed_out;
  report_.violations = checker_.violations();
  report_.conservation_ok = em2_ ? em2_->verify_thread_conservation() : true;
  if (em2_) {
    report_.counters = em2_->counters().named();
  } else if (cc_) {
    report_.counters = cc_->counters().named();
  }
  return report_;
}

}  // namespace em2
