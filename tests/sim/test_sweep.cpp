// The threaded sweep runner must be invisible in the results: same points,
// same order, byte-identical counters, no matter how many workers run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/system.hpp"
#include "sim/exec_system.hpp"
#include "sim/sweep.hpp"
#include "util/thread_budget.hpp"
#include "workload/registry.hpp"
#include "workload/synthetic.hpp"

namespace em2 {
namespace {

/// Sets the process thread budget for one test and restores the default.
struct BudgetGuard {
  explicit BudgetGuard(std::size_t budget) {
    set_thread_budget_for_testing(budget);
  }
  ~BudgetGuard() { set_thread_budget_for_testing(0); }
};

TEST(Sweep, ResultsComeBackInPointOrder) {
  const auto results = sweep::run(
      64, [](std::size_t i) { return i * i; },
      sweep::Options{.num_threads = 4});
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(Sweep, AllPointsRunExactlyOnce) {
  std::vector<std::atomic<int>> hits(97);
  sweep::run(
      hits.size(),
      [&](std::size_t i) {
        hits[i].fetch_add(1);
        return 0;
      },
      sweep::Options{.num_threads = 8});
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(Sweep, WorkStealingCoversSkewedPointsExactlyOnce) {
  // Heavily skewed work: the first chunk's points are ~1000x the rest, so
  // finishing anywhere near optimally requires thieves to raid the slow
  // chunk.  Regardless of who stole what, every point must run exactly
  // once and land at its own index.
  const std::size_t n = 801;
  std::vector<std::atomic<int>> hits(n);
  const auto results = sweep::run(
      n,
      [&](std::size_t i) {
        hits[i].fetch_add(1);
        volatile std::uint64_t sink = 0;
        const std::uint64_t spin = i < 8 ? 200000 : 200;
        for (std::uint64_t k = 0; k < spin; ++k) {
          sink = sink + k;
        }
        return i * 3 + 1;
      },
      sweep::Options{.num_threads = 8});
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
    EXPECT_EQ(results[i], i * 3 + 1) << i;
  }
}

TEST(Sweep, LargePointCountsAcrossThreadCounts) {
  // The chunked scheduler splits [0, n) unevenly when n % workers != 0;
  // prime-ish sizes and worker counts exercise the split and steal
  // boundary arithmetic (the mid/end packing) hard.
  for (const unsigned workers : {2u, 3u, 5u, 13u}) {
    for (const std::size_t n : {1ul, 2ul, 3ul, 17ul, 1009ul, 20011ul}) {
      std::atomic<std::uint64_t> sum{0};
      const auto results = sweep::run(
          n,
          [&](std::size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
            return static_cast<std::uint64_t>(i);
          },
          sweep::Options{.num_threads = workers});
      ASSERT_EQ(results.size(), n);
      EXPECT_EQ(sum.load(), n * (n - 1) / 2) << n << "/" << workers;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(results[i], i);
      }
    }
  }
}

TEST(Sweep, ZeroPointsIsANoOp) {
  const auto results =
      sweep::run(0, [](std::size_t) { return 1; }, sweep::Options{});
  EXPECT_TRUE(results.empty());
}

// Regression (ISSUE 2): a body() exception on a pool thread used to
// escape the thread function and std::terminate the whole process.  It
// must instead surface on the calling thread after all workers joined.
TEST(Sweep, BodyExceptionRethrownOnCallingThread) {
  auto throwing = [](std::size_t i) -> int {
    if (i == 5) {
      throw std::runtime_error("point 5 exploded");
    }
    return static_cast<int>(i);
  };
  EXPECT_THROW(sweep::run(64, throwing, sweep::Options{.num_threads = 4}),
               std::runtime_error);
  // Serial path (one worker) propagates the same way.
  EXPECT_THROW(sweep::run(64, throwing, sweep::Options{.num_threads = 1}),
               std::runtime_error);
}

TEST(Sweep, FirstExceptionWinsAndPoolStopsClaimingPoints) {
  std::atomic<int> ran{0};
  auto body = [&](std::size_t i) -> int {
    ran.fetch_add(1);
    if (i == 0) {
      throw std::runtime_error("first point fails");
    }
    return 0;
  };
  try {
    sweep::run(2'000'000, body, sweep::Options{.num_threads = 4});
    FAIL() << "expected the body exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first point fails");
  }
  // Fail-fast: once the exception was captured, workers stop claiming new
  // points, so nowhere near the full sweep ran.
  EXPECT_LT(ran.load(), 2'000'000);
}

TEST(Sweep, ExceptionFromCallingThreadWorkerAlsoPropagates) {
  // With n == 2 and 2 workers the calling thread itself runs a point;
  // exceptions from worker 0 must take the same capture path.
  auto body = [](std::size_t) -> int { throw std::logic_error("boom"); };
  EXPECT_THROW(sweep::run(2, body, sweep::Options{.num_threads = 2}),
               std::logic_error);
}

TEST(Sweep, ResolveThreadsHonoursExplicitCount) {
  EXPECT_EQ(sweep::resolve_threads(sweep::Options{.num_threads = 3}), 3u);
  EXPECT_GE(sweep::resolve_threads(sweep::Options{.num_threads = 0}), 1u);
}

// The determinism contract of the ISSUE: a threaded sweep over real
// simulations must yield counters byte-identical to the serial path.
TEST(Sweep, ThreadedSimulationSweepMatchesSerialExactly) {
  SystemConfig cfg;
  cfg.threads = 8;
  const System sys(cfg);

  const std::vector<double> means = {1.0, 2.0, 4.0, 8.0};
  auto point = [&](std::size_t i) {
    workload::GeometricRunsParams p;
    p.threads = 8;
    p.accesses_per_thread = 500;
    p.mean_run_length = means[i];
    p.remote_fraction = 0.5;
    const TraceSet traces = workload::make_geometric_runs(p);
    const RunReport s = sys.run(traces, {.arch = MemArch::kEm2});
    return std::tuple<std::uint64_t, std::uint64_t, Cost>(
        s.accesses, s.migrations, s.network_cost);
  };

  const auto serial =
      sweep::run(means.size(), point, sweep::Options{.num_threads = 1});
  const auto threaded =
      sweep::run(means.size(), point, sweep::Options{.num_threads = 4});
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "point " << i;
  }
}

TEST(Sweep, ProgressReportsEveryPointInOrderWhenSerial) {
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  sweep::Options opts;
  opts.num_threads = 1;
  opts.progress = [&](std::size_t done, std::size_t total) {
    calls.emplace_back(done, total);
  };
  (void)sweep::run(5, [](std::size_t i) { return i; }, opts);
  ASSERT_EQ(calls.size(), 5u);
  for (std::size_t k = 0; k < calls.size(); ++k) {
    EXPECT_EQ(calls[k].first, k + 1);
    EXPECT_EQ(calls[k].second, 5u);
  }
}

TEST(Sweep, ProgressCoversEveryPointExactlyOnceAcrossWorkers) {
  // Parallel: `done` values arrive in completion order, but the atomic
  // counter guarantees the multiset is exactly {1..n} with total == n
  // on every call.
  std::mutex mu;
  std::vector<std::size_t> dones;
  sweep::Options opts;
  opts.num_threads = 4;
  opts.progress = [&](std::size_t done, std::size_t total) {
    const std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(total, 64u);
    dones.push_back(done);
  };
  (void)sweep::run(64, [](std::size_t i) { return i * 3; }, opts);
  ASSERT_EQ(dones.size(), 64u);
  std::sort(dones.begin(), dones.end());
  for (std::size_t k = 0; k < dones.size(); ++k) {
    EXPECT_EQ(dones[k], k + 1);
  }
}

TEST(Sweep, NoProgressCallbackMeansNoOverheadOrCrash) {
  // Default-constructed Options: the progress hook is empty and must
  // simply be skipped on both the serial and the pooled paths.
  (void)sweep::run(8, [](std::size_t i) { return i; },
                   sweep::Options{.num_threads = 1});
  (void)sweep::run(8, [](std::size_t i) { return i; },
                   sweep::Options{.num_threads = 4});
}

// Every sweep leases its helpers from the one process thread budget, so
// a sweep whose points each run an inner sweep of exec runs gets only
// the helpers still unclaimed: the peak never exceeds the budget, and
// the reports match a serial run of the same points.  The inner runs set
// shards = 4, which selects no engine; the serial reference runs at
// shards = 1.
TEST(ThreadBudget, SweepOfShardedRunsStaysWithinTheBudget) {
  constexpr std::size_t kBudget = 4;
  BudgetGuard guard(kBudget);
  const System sys(SystemConfig{.threads = 16});
  const auto w = workload::make_workload("sharing-mix", 16);
  const std::vector<MemArch> arches = {MemArch::kEm2, MemArch::kEm2Ra,
                                       MemArch::kCc};
  auto cycles_at = [&](std::size_t i, std::uint32_t shards) {
    RunSpec spec;
    spec.arch = arches[i % arches.size()];
    spec.mode = RunMode::kExec;
    spec.shards = shards;
    const RunReport r = sys.run(w, spec);
    return r.exec ? r.exec->cycles : Cycle{0};
  };
  auto outer_point = [&](std::size_t) {
    return sweep::run(arches.size(), [&](std::size_t i) {
      return cycles_at(i, 4);
    });  // width from the budget
  };
  const auto nested = sweep::run(4, outer_point);
  EXPECT_LE(thread_budget_peak(), kBudget);
  const auto serial = sweep::run(
      arches.size(), [&](std::size_t i) { return cycles_at(i, 1); },
      sweep::Options{.num_threads = 1});
  for (const auto& inner : nested) {
    EXPECT_EQ(inner, serial);
  }
}

/// Sums `n` words at `base` (stride 64B) into memory at `result`.
RProgram sum_program(Addr base, int n, Addr result) {
  RAsm a;
  a.addi(1, 0, 0);
  a.addi(2, 0, static_cast<std::int32_t>(base));
  a.addi(3, 0, n);
  const std::int32_t loop = a.here();
  a.lw(4, 2, 0).add(1, 1, 4).addi(2, 2, 64).addi(3, 3, -1);
  const std::int32_t br = a.here();
  a.bne(3, 0, 0);
  a.patch_imm(br, loop - (br + 1));
  a.addi(5, 0, static_cast<std::int32_t>(result));
  a.sw(1, 5, 0);
  a.halt();
  return a.build();
}

// Direct ExecSystem users: a sweep of runs with ExecParams::shards = 4
// leases no more than the budget, and every run still computes its sums.
TEST(ThreadBudget, ExactModeShardedRunsShareTheBudgetToo) {
  constexpr std::size_t kBudget = 4;
  BudgetGuard guard(kBudget);
  const Mesh mesh(4, 4);
  const CostModel cost(mesh, CostModelParams{});
  const Placement placement = Placement::striped(mesh.num_cores());
  const auto sums = sweep::run(4, [&](std::size_t i) {
    ExecParams params;
    params.shards = 4;
    ExecSystem sys(mesh, cost, params, placement);
    for (std::int32_t t = 0; t < 4; ++t) {
      const Addr base = 0x10000 + static_cast<Addr>(t) * 0x4000;
      for (std::int32_t b = 0; b < 8; ++b) {
        sys.poke(base + static_cast<Addr>(b) * 64,
                 static_cast<std::uint32_t>(b + static_cast<std::int32_t>(i)));
      }
      sys.add_thread(sum_program(base, 8, 0xF000 + static_cast<Addr>(t) * 64),
                     static_cast<CoreId>((t * 5) % mesh.num_cores()));
    }
    const ExecReport r = sys.run(1'000'000);
    EXPECT_TRUE(r.consistent);
    EXPECT_FALSE(r.timed_out);
    return sys.peek(0xF000);
  });
  EXPECT_LE(thread_budget_peak(), kBudget);
  for (std::size_t i = 0; i < sums.size(); ++i) {
    // 0 + 1 + ... + 7, each word offset by the point index.
    EXPECT_EQ(sums[i], 28u + 8u * static_cast<std::uint32_t>(i));
  }
}

}  // namespace
}  // namespace em2
