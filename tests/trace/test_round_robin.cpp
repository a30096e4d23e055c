#include "trace/round_robin.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "placement/placement.hpp"

namespace em2 {
namespace {

/// Thread t's accesses are at addresses 100*t + i, i = 0..lengths[t]-1.
TraceSet uneven_traces(const std::vector<std::size_t>& lengths) {
  TraceSet ts(64);
  for (std::size_t t = 0; t < lengths.size(); ++t) {
    ThreadTrace trace(static_cast<ThreadId>(t), static_cast<CoreId>(t));
    for (std::size_t i = 0; i < lengths[t]; ++i) {
      trace.append(100 * t + i, MemOp::kRead);
    }
    ts.add_thread(std::move(trace));
  }
  return ts;
}

TEST(RoundRobin, OneAccessPerLiveThreadPerRoundInThreadOrder) {
  const TraceSet ts = uneven_traces({3, 0, 1, 2});
  std::vector<std::pair<std::size_t, Addr>> seen;
  for_each_round_robin(ts, nullptr,
                       [&](std::size_t t, const Access& a) -> Cycle {
                         seen.emplace_back(t, a.addr);
                         return 1;
                       });
  const std::vector<std::pair<std::size_t, Addr>> want = {
      {0, 0}, {2, 200}, {3, 300},  // round 0; thread 1 is empty
      {0, 1}, {3, 301},            // round 1; thread 2 is done
      {0, 2}};                     // round 2
  EXPECT_EQ(seen, want);
}

TEST(RoundRobin, StampsEachStepsPacketsWithItsPreAccessClock) {
  // Thread t's accesses take t + 2 cycles each, so its clock before
  // access i is i * (t + 2).  Each step records two packets; thread 1's
  // second access records none.
  const TraceSet ts = uneven_traces({3, 2});
  TrafficRecorder recorder;
  std::vector<Cycle> want;
  std::vector<std::size_t> index(2, 0);
  for_each_round_robin(
      ts, &recorder,
      [&](std::size_t t, const Access&) -> Cycle {
        const Cycle took = t + 2;
        const std::size_t i = index[t]++;
        if (t == 0 || i == 0) {
          for (int k = 0; k < 2; ++k) {
            recorder.on_packet(static_cast<CoreId>(t), 9, 0, 64);
            want.push_back(i * took);
          }
        }
        return took;
      });
  ASSERT_EQ(recorder.events().size(), want.size());
  for (std::size_t e = 0; e < want.size(); ++e) {
    EXPECT_EQ(recorder.events()[e].when, want[e]) << "packet " << e;
  }
}

/// Steps taken by a walk of 4 threads x 50 accesses in which every access
/// records one packet and takes one cycle.
std::size_t steps_recorded(TrafficRecorder* recorder) {
  const TraceSet ts = uneven_traces({50, 50, 50, 50});
  std::size_t steps = 0;
  for_each_round_robin(ts, recorder,
                       [&](std::size_t t, const Access&) -> Cycle {
                         ++steps;
                         if (recorder != nullptr) {
                           recorder->on_packet(static_cast<CoreId>(t), 9, 0,
                                               64);
                         }
                         return 1;
                       });
  return steps;
}

TEST(RoundRobin, OnlyAFinalCaptureStopsTheWalkEarly) {
  // With cap 1 the first compaction (at the second packet) keeps a
  // clock-0 packet, and every clock is >= 1 after round 0: final.
  TrafficRecorder stopping(1, CaptureStop::kWhenFinal);
  EXPECT_EQ(steps_recorded(&stopping), 4u);
  EXPECT_EQ(stopping.events().size(), 1u);
  TrafficRecorder to_end(1, CaptureStop::kRunToEnd);
  EXPECT_EQ(steps_recorded(&to_end), 200u);
  EXPECT_EQ(steps_recorded(nullptr), 200u);
}

TEST(RoundRobin, FirstTouchGoesByRoundThenThreadId) {
  // Block 5: thread 1 touches it in round 0, thread 0 only in round 1.
  // Block 7: both touch it in round 2; the lower thread id is first.
  TraceSet ts(64);
  ThreadTrace t0(0, 2);
  t0.append(0 * 64, MemOp::kRead);
  t0.append(5 * 64, MemOp::kRead);
  t0.append(7 * 64, MemOp::kWrite);
  ThreadTrace t1(1, 3);
  t1.append(5 * 64, MemOp::kWrite);
  t1.append(1 * 64, MemOp::kRead);
  t1.append(7 * 64, MemOp::kRead);
  ts.add_thread(std::move(t0));
  ts.add_thread(std::move(t1));
  const Placement p = Placement::first_touch(ts, 4);
  EXPECT_EQ(p.home_of_block(0), 2);
  EXPECT_EQ(p.home_of_block(5), 3);
  EXPECT_EQ(p.home_of_block(7), 2);
}

}  // namespace
}  // namespace em2
