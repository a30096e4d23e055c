#include "sim/sweep.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>

#include "util/assert.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_budget.hpp"

namespace em2::sweep {

unsigned resolve_threads(const Options& opts) noexcept {
  if (opts.num_threads != 0) {
    return opts.num_threads;
  }
  // Default width comes from the shared process budget (EM2_THREAD_BUDGET
  // or hardware_concurrency) rather than hardware_concurrency directly,
  // so concurrent sweeps draw from one pool instead of each claiming the
  // whole machine.
  return static_cast<unsigned>(thread_budget_total());
}

namespace detail {

namespace {

/// A worker's contiguous slice of the point space, packed begin<<32|end
/// into one atomic word so claims and steals are single CAS operations.
/// Cache-line aligned: the owner hammers its own word from the front
/// while thieves only touch it when they run dry, so the common case is
/// core-local — unlike the former single shared atomic index, which
/// every point of a large matrix bounced between all cores.
struct alignas(64) Chunk {
  std::atomic<std::uint64_t> range{0};
};

constexpr std::uint64_t pack(std::uint32_t begin, std::uint32_t end) {
  return (static_cast<std::uint64_t>(begin) << 32) | end;
}

/// Owner path: claim the next index from the front of `c`; -1 when empty.
std::int64_t claim_front(std::atomic<std::uint64_t>& c) {
  std::uint64_t cur = c.load(std::memory_order_relaxed);
  while (true) {
    const auto begin = static_cast<std::uint32_t>(cur >> 32);
    const auto end = static_cast<std::uint32_t>(cur);
    if (begin >= end) {
      return -1;
    }
    if (c.compare_exchange_weak(cur, pack(begin + 1, end),
                                std::memory_order_acq_rel,
                                std::memory_order_relaxed)) {
      return begin;
    }
  }
}

/// Thief path: steal the UPPER half of `victim`'s remaining range.  The
/// thief runs the first stolen index immediately and installs the rest as
/// its own chunk (it only steals when its chunk is empty), so subsequent
/// claims — and steals by other thieves — proceed against the thief's
/// word.  Returns the index to run, or -1 if the victim was empty.
std::int64_t steal_half(std::atomic<std::uint64_t>& victim,
                        std::atomic<std::uint64_t>& own) {
  std::uint64_t cur = victim.load(std::memory_order_acquire);
  while (true) {
    const auto begin = static_cast<std::uint32_t>(cur >> 32);
    const auto end = static_cast<std::uint32_t>(cur);
    if (begin >= end) {
      return -1;
    }
    // Victim keeps the lower ceil-half [begin, mid), thief takes
    // [mid, end).  A single remaining point is not worth a steal — its
    // holder runs it.
    const std::uint32_t mid = begin + (end - begin + 1) / 2;
    if (mid >= end) {
      return -1;
    }
    if (victim.compare_exchange_weak(cur, pack(begin, mid),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      own.store(pack(mid + 1, end), std::memory_order_release);
      return mid;
    }
  }
}

/// First-exception capture shared by the pool workers: `failed()` is the
/// lock-free stop signal the claim loops poll, and the mutex arbitrates
/// which worker's exception is "first" (every later one is dropped, as
/// the serial loop would never have reached its point).  The pointer is
/// only read back on the calling thread after every worker joined.
class ErrorCapture {
 public:
  bool failed() const noexcept {
    return failed_.load(std::memory_order_acquire);
  }

  void capture(std::exception_ptr error) EM2_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    if (!failed_.exchange(true, std::memory_order_release)) {
      first_ = std::move(error);
    }
  }

  /// Rethrows the captured exception, if any.  Call only after join():
  /// the joins order every capture() before this read.
  void rethrow_if_any() EM2_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    if (first_ != nullptr) {
      std::rethrow_exception(first_);
    }
  }

 private:
  std::atomic<bool> failed_{false};
  Mutex mutex_;
  std::exception_ptr first_ EM2_GUARDED_BY(mutex_);
};

}  // namespace

void run_indexed(std::size_t n, const std::function<void(std::size_t)>& body,
                 const Options& opts) {
  const unsigned workers = resolve_threads(opts);
  std::atomic<std::size_t> completed{0};
  const auto report_done = [&] {
    if (opts.progress) {
      const std::size_t done =
          completed.fetch_add(1, std::memory_order_acq_rel) + 1;
      opts.progress(done, n);
    }
  };
  // Helper threads are leased from the shared process budget: a sweep
  // running inside an already-parallel context gets however many helpers
  // are still unclaimed and degrades to the serial loop when the budget
  // is spent — never nested oversubscription.  The lease is released
  // when the sweep returns.
  const std::size_t want = std::min<std::size_t>(workers, std::max<std::size_t>(n, 1));
  const ThreadBudgetLease lease(want > 0 ? want - 1 : 0);
  const unsigned spawned = static_cast<unsigned>(1 + lease.granted());
  if (spawned <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      body(i);
      report_done();
    }
    return;
  }
  EM2_ASSERT(n <= 0xffffffffull,
             "sweep point indices are packed into 32 bits");
  // Work-stealing chunked scheduler: the point space splits into one
  // contiguous chunk per worker; owners drain their chunk from the front,
  // and a worker that runs dry steals the upper half of another's
  // remainder.  Every index lives in exactly one chunk at any moment and
  // whoever holds a chunk drains it, so all points still run exactly once
  // — and since point i only ever writes results[i], the output stays
  // byte-identical to the serial loop no matter who ran what (tested).
  std::vector<Chunk> chunks(spawned);
  for (unsigned w = 0; w < spawned; ++w) {
    const auto begin = static_cast<std::uint32_t>(n * w / spawned);
    const auto end = static_cast<std::uint32_t>(n * (w + 1) / spawned);
    chunks[w].range.store(pack(begin, end), std::memory_order_relaxed);
  }
  // A body() exception on a pool thread would escape the thread function
  // and call std::terminate.  Instead the first exception is captured, the
  // pool stops claiming new points (in-flight points finish), and the
  // exception is rethrown on the calling thread after all workers joined.
  ErrorCapture errors;
  auto worker = [&](unsigned w) {
    while (!errors.failed()) {
      std::int64_t i = claim_front(chunks[w].range);
      if (i < 0) {
        // Own chunk dry: scan the others round-robin for work to steal.
        for (unsigned off = 1; off < spawned && i < 0; ++off) {
          i = steal_half(chunks[(w + off) % spawned].range,
                         chunks[w].range);
        }
        if (i < 0) {
          return;  // nothing left anywhere: remaining holders drain theirs
        }
      }
      try {
        body(static_cast<std::size_t>(i));
      } catch (...) {
        errors.capture(std::current_exception());
      }
      report_done();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(spawned - 1);
  for (unsigned w = 1; w < spawned; ++w) {
    pool.emplace_back(worker, w);
  }
  worker(0);  // the calling thread is worker 0
  for (std::thread& th : pool) {
    th.join();
  }
  errors.rethrow_if_any();
}

}  // namespace detail

}  // namespace em2::sweep
