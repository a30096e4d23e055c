// Capture early stop (CaptureStop::kWhenFinal): a capped calibration
// capture may end its run once no later packet can enter the kept set.
// Pins, for every capture loop (em2, em2 + ro-replication, em2-ra
// distance:4 and history, cc), that the stopped
// capture keeps exactly the packets of the full recording — field by
// field after prepare_calibration_events — and that it really stopped
// early, and that a capped capture never holds more than its cap.  Also
// pins the default contract: a recorder that is not told it may stop
// never changes the report of the run it observes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/system.hpp"
#include "coherence/cc_sim.hpp"
#include "em2/replication.hpp"
#include "em2/trace_sim.hpp"
#include "em2ra/hybrid_sim.hpp"
#include "noc/contention.hpp"
#include "noc/traffic.hpp"
#include "placement/placement.hpp"
#include "sim/faults.hpp"
#include "workload/registry.hpp"

namespace em2 {
namespace {

constexpr std::int32_t kThreads = 64;

enum class Engine {
  kEm2,
  kEm2Replicated,
  kRaDistance,
  kRaHistory,
  kCc,
};

const char* name(Engine e) {
  switch (e) {
    case Engine::kEm2:
      return "em2";
    case Engine::kEm2Replicated:
      return "em2+ro-replication";
    case Engine::kRaDistance:
      return "em2-ra distance:4";
    case Engine::kRaHistory:
      return "em2-ra history";
    case Engine::kCc:
      return "cc";
  }
  return "?";
}

/// One workload's trace-mode inputs on a 64-core System.
struct Inputs {
  explicit Inputs(const std::string& workload)
      : sys(config()),
        w(workload::make_workload(workload, kThreads)),
        placement(make_placement("first-touch", w.traces(), kThreads)) {}

  static SystemConfig config() {
    SystemConfig cfg;
    cfg.threads = kThreads;
    return cfg;
  }

  System sys;
  workload::Workload w;
  std::unique_ptr<Placement> placement;
};

/// Everything a run reports that the tests compare.  Engines fill the
/// parts they have.
struct Outcome {
  Em2RunReport em2;
  std::uint64_t remote_accesses = 0;
  std::uint64_t remote_request_bits = 0;
  std::uint64_t remote_reply_bits = 0;
  CcRunReport cc;
  std::uint64_t accesses = 0;
};

/// Runs `engine` with `recorder` (nullable) and, when `faults` injects
/// anything, a fresh injector for it.
Outcome run(const Inputs& s, Engine engine, TrafficRecorder* recorder,
            const FaultSpec& faults = {}) {
  const Mesh& mesh = s.sys.mesh();
  const CostModel& cost = s.sys.cost_model();
  const SystemConfig& cfg = s.sys.config();
  std::unique_ptr<FaultInjector> injector;
  if (faults.any()) {
    injector = std::make_unique<FaultInjector>(faults, kThreads);
  }
  Outcome out;
  switch (engine) {
    case Engine::kEm2:
      out.em2 = run_em2(s.w.traces(), *s.placement, mesh, cost, cfg.em2,
                        recorder, injector.get());
      break;
    case Engine::kEm2Replicated:
      out.em2 = run_em2_replicated(s.w.traces(), *s.placement, mesh, cost,
                                   cfg.em2, replicable_blocks(s.w.traces(), 1),
                                   recorder);
      break;
    case Engine::kRaDistance:
    case Engine::kRaHistory: {
      const bool history = engine == Engine::kRaHistory;
      StandardPolicy policy =
          StandardPolicy::make(history ? "history" : "distance:4", mesh, cost);
      const HybridRunReport r =
          run_em2ra(s.w.traces(), *s.placement, mesh, cost, cfg.em2, policy,
                    recorder, injector.get());
      out.em2 = r.em2;
      out.remote_accesses = r.remote_accesses;
      out.remote_request_bits = r.remote_request_bits;
      out.remote_reply_bits = r.remote_reply_bits;
      break;
    }
    case Engine::kCc: {
      DirCcParams cc = cfg.cc;
      cc.private_cache.line_bytes = s.w.traces().block_bytes();
      out.cc = run_cc(s.w.traces(), *s.placement, mesh, cost, cc, recorder);
      out.accesses = out.cc.counters.get("accesses");
      return out;
    }
  }
  out.accesses = out.em2.counters.get("accesses");
  return out;
}

std::vector<TrafficEvent> prepared(TrafficRecorder& recorder,
                                   std::uint64_t cap) {
  std::vector<TrafficEvent> events = std::move(recorder.events());
  prepare_calibration_events(events, cap);
  return events;
}

void expect_same_events(const std::vector<TrafficEvent>& want,
                        const std::vector<TrafficEvent>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    // Field by field: TrafficEvent has padding, so no byte compare.
    ASSERT_EQ(got[i].src, want[i].src) << "event " << i;
    ASSERT_EQ(got[i].dst, want[i].dst) << "event " << i;
    ASSERT_EQ(got[i].vnet, want[i].vnet) << "event " << i;
    ASSERT_EQ(got[i].payload_bits, want[i].payload_bits) << "event " << i;
    ASSERT_EQ(got[i].when, want[i].when) << "event " << i;
  }
}

constexpr Engine kEngines[] = {
    Engine::kEm2,       Engine::kEm2Replicated, Engine::kRaDistance,
    Engine::kRaHistory, Engine::kCc,
};

class CaptureEarlyStop : public ::testing::TestWithParam<std::string> {};

TEST_P(CaptureEarlyStop, StoppedCaptureKeepsTheFullRecordingsPackets) {
  const Inputs s(GetParam());
  for (const Engine engine : kEngines) {
    for (const std::uint64_t cap : {1ull, 500ull, 2000ull}) {
      SCOPED_TRACE(std::string(name(engine)) + " cap " +
                   std::to_string(cap));
      TrafficRecorder full(cap);
      const Outcome whole = run(s, engine, &full);
      TrafficRecorder stopping(cap, CaptureStop::kWhenFinal);
      const Outcome part = run(s, engine, &stopping);
      expect_same_events(prepared(full, cap), prepared(stopping, cap));
      // The stop is real: the capture ran a strict prefix of the trace.
      EXPECT_LT(part.accesses, whole.accesses);
    }
  }
}

TEST_P(CaptureEarlyStop, StoppedCaptureMatchesUnderFaults) {
  // Packet drops, retries and a core failure early in the run (access
  // 100, well before any stop): the capture's injector state evolves
  // with the run, and the recovery packets it adds are stamped like any
  // other.
  const Inputs s(GetParam());
  FaultSpec faults;
  faults.drop_rate = 0.02;
  faults.kills = {CoreFailure{5, 100}};
  faults.seed = 11;
  for (const Engine engine : {Engine::kEm2, Engine::kRaDistance,
                              Engine::kRaHistory}) {
    for (const std::uint64_t cap : {500ull, 2000ull}) {
      SCOPED_TRACE(std::string(name(engine)) + " cap " +
                   std::to_string(cap));
      TrafficRecorder full(cap);
      (void)run(s, engine, &full, faults);
      TrafficRecorder stopping(cap, CaptureStop::kWhenFinal);
      (void)run(s, engine, &stopping, faults);
      expect_same_events(prepared(full, cap), prepared(stopping, cap));
    }
  }
}

TEST_P(CaptureEarlyStop, RecordingNeverChangesTheReport) {
  // The documented contract of every engine's `recorder` argument, for a
  // capped recorder that is not allowed to stop.
  const Inputs s(GetParam());
  for (const Engine engine : kEngines) {
    SCOPED_TRACE(name(engine));
    TrafficRecorder recorder(500);
    const Outcome plain = run(s, engine, nullptr);
    const Outcome recorded = run(s, engine, &recorder);
    EXPECT_EQ(recorded.accesses, plain.accesses);
    if (engine == Engine::kCc) {
      EXPECT_EQ(recorded.cc.counters.all(), plain.cc.counters.all());
      EXPECT_EQ(recorded.cc.total_latency, plain.cc.total_latency);
      EXPECT_EQ(recorded.cc.traffic_bits, plain.cc.traffic_bits);
      EXPECT_EQ(recorded.cc.replication_factor,
                plain.cc.replication_factor);
      EXPECT_EQ(recorded.cc.directory_bits, plain.cc.directory_bits);
      EXPECT_EQ(recorded.cc.distinct_lines, plain.cc.distinct_lines);
      EXPECT_EQ(recorded.cc.valid_lines, plain.cc.valid_lines);
      continue;
    }
    const Em2RunReport& a = recorded.em2;
    const Em2RunReport& b = plain.em2;
    EXPECT_EQ(a.counters.all(), b.counters.all());
    EXPECT_EQ(a.total_thread_cost, b.total_thread_cost);
    EXPECT_EQ(a.total_eviction_cost, b.total_eviction_cost);
    EXPECT_EQ(a.per_thread_cost, b.per_thread_cost);
    EXPECT_EQ(a.vnet_bits, b.vnet_bits);
    EXPECT_EQ(a.run_lengths.total_accesses, b.run_lengths.total_accesses);
    EXPECT_EQ(a.run_lengths.accesses_by_run_length.bins(),
              b.run_lengths.accesses_by_run_length.bins());
    EXPECT_EQ(a.thread_conservation_ok, b.thread_conservation_ok);
    EXPECT_EQ(recorded.remote_accesses, plain.remote_accesses);
    EXPECT_EQ(recorded.remote_request_bits, plain.remote_request_bits);
    EXPECT_EQ(recorded.remote_reply_bits, plain.remote_reply_bits);
  }
}

TEST(CaptureEarlyStopReplication, ReplicatedReadsKeepTheSlowestClock) {
  // A thread serving only replicated reads records nothing, yet its
  // clock must still bound the stop: thread 0 reads a replicated block
  // 300 times (one cycle each) and then writes a remote block, sending
  // the run's earliest packet at clock ~300, while thread 1's DRAM-miss
  // local writes push its clock past 10,000 before its migrations start.
  // A stop rule blind to thread 0 would end the run on thread 1's
  // packets.
  const Mesh mesh(2, 1);
  const CostModel cost(mesh, CostModelParams{});
  Em2Params params;
  params.model_caches = true;
  // Block b lives on core b % 2.
  const Placement placement = Placement::striped(2);
  TraceSet ts(64);
  ThreadTrace t0(0, 0);
  for (int i = 0; i < 300; ++i) {
    t0.append(1 * 64, MemOp::kRead);  // never written: replicated
  }
  t0.append(3 * 64, MemOp::kWrite);  // home core 1: migration
  ThreadTrace t1(1, 1);
  for (Addr i = 0; i < 100; ++i) {
    t1.append((2 * i + 101) * 64, MemOp::kWrite);  // local DRAM misses
  }
  for (Addr i = 0; i < 20; ++i) {
    t1.append((2 * i + 1000) * 64, MemOp::kWrite);  // home core 0
    t1.append((2 * i + 1001) * 64, MemOp::kWrite);  // back home
  }
  ts.add_thread(std::move(t0));
  ts.add_thread(std::move(t1));
  const auto replicable = replicable_blocks(ts, 1);
  for (const std::uint64_t cap : {1ull, 2ull}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    TrafficRecorder full(cap);
    (void)run_em2_replicated(ts, placement, mesh, cost, params, replicable,
                             &full);
    TrafficRecorder stopping(cap, CaptureStop::kWhenFinal);
    (void)run_em2_replicated(ts, placement, mesh, cost, params, replicable,
                             &stopping);
    const std::vector<TrafficEvent> want = prepared(full, cap);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(want.front().src, 0);  // thread 0's write leads
    expect_same_events(want, prepared(stopping, cap));
  }
}

TEST(CaptureMemoryBound, FinalCaptureHoldsAtMostItsCapAndStopsEarly) {
  // A 64-thread sharing-mix capture capped at 2,000 packets: the
  // recorder's event storage, whose capacity never shrinks, must never
  // have grown past the cap.  Batch compaction (sort and truncate at
  // twice the cap) held up to 4,096 events here, and learned the stamp
  // of its cap-th earliest packet only at the first compaction: the
  // capture then stopped after the access counts below.  Knowing that
  // stamp from the cap-th packet on, the capture stops no later.
  constexpr std::uint64_t kCap = 2000;
  struct Case {
    Engine engine;
    std::uint64_t batch_compaction_accesses;
  };
  const Inputs s("sharing-mix");
  for (const Case c : {Case{Engine::kEm2, 12544},
                       Case{Engine::kRaDistance, 11264},
                       Case{Engine::kCc, 9280}}) {
    SCOPED_TRACE(name(c.engine));
    TrafficRecorder recorder(kCap, CaptureStop::kWhenFinal);
    const Outcome part = run(s, c.engine, &recorder);
    EXPECT_LE(recorder.events().capacity(), kCap);
    EXPECT_EQ(recorder.events().size(), kCap);
    EXPECT_LE(part.accesses, c.batch_compaction_accesses);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, CaptureEarlyStop,
                         ::testing::Values("ocean", "sharing-mix"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           std::string n = p.param;
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

}  // namespace
}  // namespace em2
