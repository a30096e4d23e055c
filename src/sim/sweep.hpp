// Parallel parameter-sweep runner.
//
// Demonstrating the paper's claims at scale means simulating many
// independent configurations (workloads, run lengths, context sizes, mesh
// sizes).  Each sweep point is a self-contained simulation, so the runner
// fans points across hardware threads — a work-stealing chunked scheduler:
// the point space splits into one contiguous chunk per worker, owners
// drain their chunk from the front (core-local atomic, no cross-core
// bouncing on a shared index), and a worker that runs dry steals the
// upper half of a peer's remainder — and collects results IN POINT ORDER:
// the output is byte-identical to the serial loop no matter how many
// workers run, how they interleave, or who stole what (determinism is
// tested, not assumed).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

namespace em2::sweep {

/// Sweep execution options.
struct Options {
  /// Worker threads; 0 means one per hardware thread.
  unsigned num_threads = 0;
  /// Optional per-point progress callback: invoked as progress(done,
  /// total) after each point completes, with `done` counting completed
  /// points (1..total).  Called from whichever worker finished the point
  /// — the callback MUST be thread-safe (the counter itself is atomic;
  /// only the callback body needs care).  Points that throw still count
  /// as done, so a capture-mode matrix reports every cell.  Keep it
  /// cheap: it runs inside the pool, on the sweep's critical path.
  std::function<void(std::size_t done, std::size_t total)> progress;
};

/// Worker-thread count `opts` resolves to on this machine (>= 1).
unsigned resolve_threads(const Options& opts) noexcept;

namespace detail {

/// Type-erased core: runs body(i) for i in [0, n) across workers.  The
/// body must be safe to call concurrently for distinct i.
void run_indexed(std::size_t n, const std::function<void(std::size_t)>& body,
                 const Options& opts);

}  // namespace detail

/// Evaluates fn(i) for every point i in [0, n) across a thread pool and
/// returns the results indexed by point — identical to the serial
/// `for (i...) out[i] = fn(i)` regardless of thread count or scheduling.
/// `fn` must not MUTATE shared state: each point builds its own machines,
/// and anything shared (e.g. one `const System` across points, as the
/// sweep benches do) may only be used through const, stateless calls.
/// The one sanctioned exception is an INTERNALLY-SYNCHRONIZED cache whose
/// entries are a deterministic function of the key (the System placement
/// cache behind run_matrix, and its calibration cache memoizing the
/// contention pass's HopLatencies per (workload, arch, policy, ...)):
/// memoization then never changes any point's result, only who computes
/// it first.  Unsynchronized or result-changing mutable state still
/// breaks this contract.
///
/// Exception safety: if fn(i) throws, the pool stops claiming new points
/// (points already in flight on other workers still complete), every
/// worker is joined, and the FIRST captured exception is rethrown on the
/// calling thread.  Which points ran besides i is then unspecified and the
/// results are discarded — callers observe an exception, never a torn
/// result vector, and never std::terminate.
template <typename Fn>
auto run(std::size_t n, Fn&& fn, const Options& opts = {})
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using Result = decltype(fn(std::size_t{0}));
  // std::vector<bool> packs elements, so concurrent writes to distinct
  // indices would race; return a struct or int instead.
  static_assert(!std::is_same_v<Result, bool>,
                "sweep::run cannot return bool (vector<bool> is packed); "
                "wrap the flag in a struct or return int");
  std::vector<Result> results(n);
  detail::run_indexed(
      n, [&](std::size_t i) { results[i] = fn(i); }, opts);
  return results;
}

}  // namespace em2::sweep
