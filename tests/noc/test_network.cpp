#include "noc/network.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/rng.hpp"

namespace em2 {
namespace {

NetworkParams default_params() {
  NetworkParams p;
  p.num_vnets = vnet::kNumVnets;
  p.vc_depth = 4;
  return p;
}

TEST(Network, SingleFlitUncontendedLatencyEqualsHops) {
  const Mesh mesh(4, 4);
  Network net(mesh, default_params());
  Packet p;
  p.id = 1;
  p.src = 0;
  p.dst = 3;  // 3 hops east
  p.vnet = 0;
  p.flits = 1;
  net.inject(p);
  ASSERT_TRUE(net.run_until_drained(1000));
  const auto deliveries = net.drain_delivered();
  ASSERT_EQ(deliveries.size(), 1u);
  // 3 router-to-router hops + 1 ejection cycle from the source FIFO.
  // Uncontended: injection cycle + 3 hops = 4 cycles total.
  EXPECT_EQ(deliveries[0].delivered - deliveries[0].injected, 4u);
}

TEST(Network, MultiFlitAddsSerialization) {
  const Mesh mesh(4, 4);
  Network net(mesh, default_params());
  Packet p;
  p.src = 0;
  p.dst = 3;
  p.vnet = 0;
  p.flits = 4;
  net.inject(p);
  ASSERT_TRUE(net.run_until_drained(1000));
  const auto d = net.drain_delivered();
  ASSERT_EQ(d.size(), 1u);
  // Head takes 4 cycles; 3 more flits stream out one per cycle behind it.
  EXPECT_EQ(d[0].delivered - d[0].injected, 7u);
}

TEST(Network, LocalDeliveryWorks) {
  const Mesh mesh(2, 2);
  Network net(mesh, default_params());
  Packet p;
  p.src = 1;
  p.dst = 1;
  p.vnet = 2;
  p.flits = 2;
  net.inject(p);
  ASSERT_TRUE(net.run_until_drained(100));
  EXPECT_EQ(net.packets_delivered(), 1u);
}

TEST(Network, AllPairsDeliver) {
  const Mesh mesh(3, 3);
  Network net(mesh, default_params());
  std::uint64_t id = 0;
  for (CoreId s = 0; s < 9; ++s) {
    for (CoreId d = 0; d < 9; ++d) {
      Packet p;
      p.id = id++;
      p.src = s;
      p.dst = d;
      p.vnet = static_cast<std::int32_t>(id % vnet::kNumVnets);
      p.flits = 1 + static_cast<std::int32_t>(id % 3);
      net.inject(p);
    }
  }
  ASSERT_TRUE(net.run_until_drained(10000));
  EXPECT_EQ(net.packets_delivered(), 81u);
  EXPECT_EQ(net.stalled_cycles(), 0u);
}

TEST(Network, WormholeKeepsPacketsContiguous) {
  // Two multi-flit packets from different sources crossing one output
  // must not interleave within a vnet; we can't observe flit order
  // directly, but both must arrive intact (tail => delivery) with no
  // stall.
  const Mesh mesh(4, 1);
  Network net(mesh, default_params());
  Packet a;
  a.id = 1;
  a.src = 0;
  a.dst = 3;
  a.vnet = 0;
  a.flits = 6;
  Packet b;
  b.id = 2;
  b.src = 1;
  b.dst = 3;
  b.vnet = 0;
  b.flits = 6;
  net.inject(a);
  net.inject(b);
  ASSERT_TRUE(net.run_until_drained(1000));
  EXPECT_EQ(net.packets_delivered(), 2u);
}

TEST(Network, VnetsIsolateTraffic) {
  // Saturate vnet 0 with a long packet stream; a vnet 1 packet on the
  // same path must still be delivered (separate FIFOs + per-cycle output
  // sharing).
  const Mesh mesh(4, 1);
  Network net(mesh, default_params());
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.id = static_cast<std::uint64_t>(i);
    p.src = 0;
    p.dst = 3;
    p.vnet = 0;
    p.flits = 8;
    net.inject(p);
  }
  Packet q;
  q.id = 99;
  q.src = 0;
  q.dst = 3;
  q.vnet = 1;
  q.flits = 1;
  net.inject(q);
  ASSERT_TRUE(net.run_until_drained(10000));
  EXPECT_EQ(net.packets_delivered(), 11u);
}

TEST(Network, FlitHopsAccounting) {
  const Mesh mesh(4, 4);
  Network net(mesh, default_params());
  Packet p;
  p.src = 0;
  p.dst = 5;  // hops = 2
  p.vnet = 0;
  p.flits = 3;
  net.inject(p);
  ASSERT_TRUE(net.run_until_drained(1000));
  EXPECT_EQ(net.flit_hops(), 6u);  // 3 flits x 2 hops
}

TEST(Network, LatencyStatsPerVnet) {
  const Mesh mesh(4, 4);
  Network net(mesh, default_params());
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.vnet = 3;
  p.flits = 1;
  net.inject(p);
  ASSERT_TRUE(net.run_until_drained(100));
  EXPECT_EQ(net.latency_stat(3).count(), 1u);
  EXPECT_EQ(net.latency_stat(0).count(), 0u);
}

// Random traffic storm: everything must drain (deadlock freedom under XY
// routing + per-vnet FIFOs + guaranteed ejection), and conservation must
// hold (injected == delivered).
class NetworkStorm : public ::testing::TestWithParam<int> {};

TEST_P(NetworkStorm, DrainsWithoutDeadlock) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Mesh mesh(4, 4);
  NetworkParams params = default_params();
  params.vc_depth = 2;  // tight buffers stress flow control
  Network net(mesh, params);
  const int kPackets = 300;
  for (int i = 0; i < kPackets; ++i) {
    Packet p;
    p.id = static_cast<std::uint64_t>(i);
    p.src = static_cast<CoreId>(rng.next_below(16));
    p.dst = static_cast<CoreId>(rng.next_below(16));
    p.vnet = static_cast<std::int32_t>(rng.next_below(vnet::kNumVnets));
    p.flits = static_cast<std::int32_t>(1 + rng.next_below(9));
    net.inject(p);
  }
  ASSERT_TRUE(net.run_until_drained(200000)) << "possible deadlock";
  EXPECT_EQ(net.packets_delivered(), static_cast<std::uint64_t>(kPackets));
  EXPECT_TRUE(net.idle());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkStorm, ::testing::Range(1, 9));


// The masked arbiter (per-output want bitmasks, NetworkParams::
// occupancy_mask) must be an invisible optimization: step for step it
// grants exactly what the exhaustive reference probe grants.  Lockstep
// drives both fabrics with identical traffic and diffs everything
// observable each cycle plus every per-(link, vnet) counter at the end.
class Lockstep {
 public:
  Lockstep(const Mesh& mesh, std::int32_t depth)
      : mesh_(mesh), a_(mesh, params(depth, true)),
        b_(mesh, params(depth, false)) {}

  void inject(const Packet& p) {
    a_.inject(p);
    b_.inject(p);
  }
  std::uint64_t in_flight() const { return a_.packets_in_flight(); }

  /// Steps both fabrics once and diffs what each delivered.
  void step(int cycle) {
    a_.step();
    b_.step();
    ASSERT_EQ(a_.packets_in_flight(), b_.packets_in_flight())
        << "cycle " << cycle;
    ASSERT_EQ(a_.flit_hops(), b_.flit_hops()) << "cycle " << cycle;
    const auto da = a_.drain_delivered();
    const auto db = b_.drain_delivered();
    ASSERT_EQ(da.size(), db.size()) << "cycle " << cycle;
    for (std::size_t i = 0; i < da.size(); ++i) {
      // Same packets, same order, same timing: arbitration parity.
      ASSERT_EQ(da[i].packet.id, db[i].packet.id) << "cycle " << cycle;
      ASSERT_EQ(da[i].injected, db[i].injected) << "cycle " << cycle;
      ASSERT_EQ(da[i].delivered, db[i].delivered) << "cycle " << cycle;
    }
  }

  /// Drains both fabrics and diffs their terminal state.
  void finish() {
    ASSERT_TRUE(a_.run_until_drained(200000));
    ASSERT_TRUE(b_.run_until_drained(200000));
    EXPECT_EQ(a_.now(), b_.now());
    EXPECT_EQ(a_.flit_hops(), b_.flit_hops());
    // The per-(link, vnet) flit counters feed the contention
    // calibration, so every one must match exactly.
    for (CoreId node = 0; node < mesh_.num_cores(); ++node) {
      for (int out = 1; out < kNumDirections; ++out) {
        for (int vn = 0; vn < vnet::kNumVnets; ++vn) {
          const auto dir = static_cast<Direction>(out);
          ASSERT_EQ(a_.link_flits(node, dir, vn), b_.link_flits(node, dir, vn))
              << "node " << node << " out " << out << " vnet " << vn;
        }
      }
    }
    const FabricUtilization ua = a_.utilization();
    const FabricUtilization ub = b_.utilization();
    EXPECT_EQ(ua.flits_by_vnet, ub.flits_by_vnet);
    EXPECT_EQ(ua.seen_by_vnet, ub.seen_by_vnet);
    EXPECT_EQ(ua.peak, ub.peak);
  }

 private:
  static NetworkParams params(std::int32_t depth, bool masked) {
    NetworkParams p = default_params();
    p.vc_depth = depth;
    p.occupancy_mask = masked;
    return p;
  }

  Mesh mesh_;
  Network a_;
  Network b_;
};

// Two inputs.  First, randomized open-loop traffic — bursty injections,
// mixed flit counts, every vnet, saturating phases, and a source-backlog
// phase in which one core queues dozens of 9-flit packets per vnet — on
// an 8x8 mesh at every buffer depth from a single slot up.  Second, the
// shape of the stream-cold sharing-mix calibration replay: a 16x16 mesh,
// 9-flit context packets on the two migration vnets, and a closed-loop
// window of two packets per core kept full, so the fabric stays
// saturated — at the default depth and at vc_depth 8.  A layout that
// assumed the 8x8 row stride or at most four flits per FIFO would part
// from the reference there.
TEST(Network, MaskedArbiterIsBitIdenticalToExhaustiveProbe) {
  const Mesh mesh(8, 8);
  const int cores = mesh.num_cores();
  for (const std::int32_t depth : {1, 2, 4}) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      SCOPED_TRACE("vc_depth " + std::to_string(depth) + " seed " +
                   std::to_string(seed));
      Lockstep net(mesh, depth);
      Rng rng(seed);
      std::uint64_t id = 0;
      for (int cycle = 0; cycle < 3000; ++cycle) {
        // Bursty: some cycles inject several packets, long gaps between.
        if (rng.next_bool(0.35)) {
          const int burst = 1 + static_cast<int>(rng.next_below(6));
          for (int k = 0; k < burst; ++k) {
            Packet p;
            p.id = ++id;
            p.src = static_cast<CoreId>(rng.next_below(cores));
            p.dst = static_cast<CoreId>(rng.next_below(cores));
            p.vnet = static_cast<std::int32_t>(
                rng.next_below(vnet::kNumVnets));
            p.flits = 1 + static_cast<std::int32_t>(rng.next_below(9));
            net.inject(p);
          }
        }
        // Source backlog: every 500 cycles one core dumps a burst of
        // context-sized packets, so its injection queues hold dozens.
        if (cycle % 500 == 250) {
          const auto src = static_cast<CoreId>(rng.next_below(cores));
          for (int k = 0; k < 60; ++k) {
            Packet p;
            p.id = ++id;
            p.src = src;
            p.dst = static_cast<CoreId>(rng.next_below(cores));
            p.vnet = k % 2;
            p.flits = 9;
            net.inject(p);
          }
        }
        ASSERT_NO_FATAL_FAILURE(net.step(cycle));
      }
      ASSERT_NO_FATAL_FAILURE(net.finish());
    }
  }
  const Mesh wide(16, 16);
  const int wide_cores = wide.num_cores();
  for (const std::int32_t depth : {4, 8}) {
    SCOPED_TRACE("16x16, vc_depth " + std::to_string(depth));
    Lockstep net(wide, depth);
    Rng rng(static_cast<std::uint64_t>(depth));
    std::uint64_t id = 0;
    for (int cycle = 0; cycle < 600; ++cycle) {
      while (net.in_flight() < 2 * static_cast<std::uint64_t>(wide_cores)) {
        Packet p;
        p.id = ++id;
        p.src = static_cast<CoreId>(rng.next_below(wide_cores));
        p.dst = static_cast<CoreId>(rng.next_below(wide_cores));
        p.vnet = static_cast<std::int32_t>(rng.next_below(2));
        p.flits = 9;
        net.inject(p);
      }
      ASSERT_NO_FATAL_FAILURE(net.step(cycle));
    }
    ASSERT_NO_FATAL_FAILURE(net.finish());
  }
}

TEST(Network, DrainingEveryStepSeesEveryDeliveryOnce) {
  // The visitor drain keeps nothing between steps: summing per step
  // equals summing one drain at the end.
  const Mesh mesh(4, 4);
  Network stepwise(mesh, default_params());
  Network at_end(mesh, default_params());
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Packet p;
    p.id = static_cast<std::uint64_t>(i);
    p.src = static_cast<CoreId>(rng.next_below(16));
    p.dst = static_cast<CoreId>(rng.next_below(16));
    p.vnet = static_cast<std::int32_t>(rng.next_below(vnet::kNumVnets));
    p.flits = 1 + static_cast<std::int32_t>(rng.next_below(9));
    stepwise.inject(p);
    at_end.inject(p);
  }
  std::uint64_t seen = 0;
  Cycle latency = 0;
  while (!stepwise.idle()) {
    stepwise.step();
    stepwise.drain_delivered([&](const Delivery& d) {
      ++seen;
      latency += d.delivered - d.injected;
    });
  }
  ASSERT_TRUE(at_end.run_until_drained(100000));
  Cycle want = 0;
  for (const Delivery& d : at_end.drain_delivered()) {
    want += d.delivered - d.injected;
  }
  EXPECT_EQ(seen, 200u);
  EXPECT_EQ(latency, want);
  EXPECT_TRUE(stepwise.drain_delivered().empty());
}

}  // namespace
}  // namespace em2
