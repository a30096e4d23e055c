// Process-wide host-thread budget shared by every parallelism layer.
//
// The sweep runner spawns one OS thread per point chunk.  Sweeps can
// run at once — nested in another sweep's body, or from several caller
// threads — and before this module each resolved its width from
// hardware_concurrency() independently, so they could oversubscribe the
// host.  Now every sweep leases its extra threads from one shared
// counter: the process starts with one implicitly-claimed thread (the
// caller), a sweep that wants W-1 helpers acquires them here and gets
// however many the budget still holds, and nested parallelism degrades
// gracefully — inner sweeps simply run with fewer (or zero) helpers
// instead of stacking pools.
//
// Leases cap EXECUTION width only, never results: a sweep that leases 0
// helpers runs every point on the caller and returns the identical
// results.
//
// The budget defaults to hardware_concurrency() and can be pinned with
// the EM2_THREAD_BUDGET environment variable (read once) or, for tests,
// set_thread_budget_for_testing().
#pragma once

#include <cstddef>

namespace em2 {

/// Total concurrent OS threads the process aims to stay within (>= 1).
std::size_t thread_budget_total() noexcept;

/// Currently leased threads, including the caller's implicit one.
std::size_t thread_budget_claimed() noexcept;

/// High-water mark of thread_budget_claimed() since the last reset — the
/// oversubscription witness the budget tests assert on.
std::size_t thread_budget_peak() noexcept;

/// Pins the total for tests (0 restores the environment/hardware default)
/// and resets the peak.  Not thread-safe against concurrent leases; call
/// from a quiesced test body only.
void set_thread_budget_for_testing(std::size_t total) noexcept;

/// RAII lease of up to `want` EXTRA threads (beyond the calling thread,
/// which is always implicitly budgeted).  `granted()` is how many the
/// budget actually had; spawn at most that many helpers.  Releases on
/// destruction.
class ThreadBudgetLease {
 public:
  explicit ThreadBudgetLease(std::size_t want) noexcept;
  ~ThreadBudgetLease();

  ThreadBudgetLease(const ThreadBudgetLease&) = delete;
  ThreadBudgetLease& operator=(const ThreadBudgetLease&) = delete;

  std::size_t granted() const noexcept { return granted_; }

 private:
  std::size_t granted_ = 0;
};

}  // namespace em2
