// Cycle-level 2-D mesh network with wormhole routing and virtual channels.
//
// Design point (matches the paper's deadlock-freedom argument):
//   * XY dimension-ordered routing (deadlock-free within a virtual network).
//   * One virtual channel per *virtual network* (vnet); EM2-RA requires six
//     vnets in total (Section 3): guest migrations, native/eviction
//     migrations, remote-access requests, remote-access replies, memory
//     requests, memory replies.  Requests and replies travel on different
//     vnets so protocol-level request-reply cycles cannot deadlock the
//     fabric, and evictions travel separately from guest migrations so an
//     evicted thread can always drain to its (reserved) native context.
//   * Credit-based flow control: a flit advances only if the downstream
//     input FIFO of its vnet has a free slot.  Ejection (local port) is an
//     infinite sink — consumption is guaranteed by construction, as the
//     EM2 native-context reservation demands.
//
// The model is single-threaded and deterministic: round-robin arbitration
// with rotating priority, one flit per output port per cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/mesh.hpp"
#include "noc/vnet.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace em2 {

/// Configuration of the cycle-level mesh.
struct NetworkParams {
  std::int32_t num_vnets = vnet::kNumVnets;
  /// Input FIFO depth per (port, vnet), in flits.
  std::int32_t vc_depth = 4;
  /// Output arbitration.  true computes, per router output, the exact
  /// set of (in-port, vnet) candidates the exhaustive round-robin scan
  /// would accept, from per-router bitmasks (bit = in_port * num_vnets +
  /// vnet) kept in O(1) at every front-flit change — which FIFO fronts
  /// want this output (a head its XY route, a body the output its head
  /// locked), which fronts are heads, which entered this cycle — plus the
  /// output's wormhole locks and its downstream FIFOs' full flags, and
  /// grants the first of them in the scan's rotated order: no probe ever
  /// fails.  Arbitration is bit-identical (tests diff the two step for
  /// step); only the cost changes — the 256-core sharing-mix em2
  /// calibration replay takes 126 ms vs 1,080 ms with the exhaustive
  /// probe (4-CPU Xeon host), which false retains as the reference
  /// arbiter.
  bool occupancy_mask = true;
};

/// A packet to inject.  `flits` >= 1 (head carries the header).
struct Packet {
  std::uint64_t id = 0;
  CoreId src = 0;
  CoreId dst = 0;
  std::int32_t vnet = 0;
  std::int32_t flits = 1;
  /// Caller-owned token; returned on delivery (protocol engines map it to
  /// their transaction state).
  std::uint64_t token = 0;
};

/// A delivered packet with timing information.
struct Delivery {
  Packet packet;
  Cycle injected = 0;
  Cycle delivered = 0;
};

/// Per-vnet link-utilization summary of a cycle-level run, measured from
/// the per-(link, vnet) flit counters the fabric keeps.  Utilization of a
/// directed inter-router link is flits traversed / cycles elapsed (each
/// link moves at most one flit per cycle, so this is channel occupancy in
/// [0, 1]).  Four per-vnet aggregations:
///   mean      — vnet's own occupancy across all directed links
///   weighted  — flit-weighted mean of the vnet's own occupancy
///   seen      — flit-weighted mean of the TOTAL occupancy (all vnets) on
///               the links the vnet's flits traversed: vnets share
///               physical link bandwidth, so this is the congestion a
///               typical flit of the vnet queues behind — it feeds the
///               M/D/1 correction (noc/contention.hpp)
///   peak      — the vnet's busiest single link (hotspot indicator)
struct FabricUtilization {
  Cycle cycles = 0;           ///< measurement window (cycles stepped)
  std::int32_t num_links = 0; ///< directed inter-router links in the mesh
  std::vector<double> mean_by_vnet;
  std::vector<double> weighted_by_vnet;
  std::vector<double> seen_by_vnet;
  std::vector<double> peak_by_vnet;
  /// Link traversals (flit-hops) per vnet over the window.
  std::vector<std::uint64_t> flits_by_vnet;
  /// Packets lost at ejection per vnet (fault injection; always zero on
  /// the raw fabric — the reliable transport layer fills these in).  A
  /// dropped packet still consumed every link it traversed, so its load
  /// is already inside the occupancy numbers above.
  std::vector<std::uint64_t> dropped_by_vnet;
  /// Retransmitted packets per vnet (beyond each first attempt) — the
  /// recovery load the cost correction prices into the tables.
  std::vector<std::uint64_t> retransmitted_by_vnet;
  double peak = 0.0;  ///< max over all (link, vnet) pairs
};

/// Cycle-level mesh network.  Usage: inject() any number of packets, call
/// step() once per cycle, consume deliveries via drain_delivered().
///
/// Storage is flat: every router input FIFO is a fixed vc_depth ring in
/// one array, and each unbounded injection queue is an intrusive list of
/// packet slots whose front flit is derived (head = first unsent flit,
/// tail = last) instead of materialized per flit.
/// Packet slots are recycled at delivery, so fabric memory is bounded by
/// the packets in flight, not by the packets ever injected.
class Network {
 public:
  Network(const Mesh& mesh, const NetworkParams& params);

  /// Queues a packet for injection at its source (source queues are
  /// unbounded; backpressure begins at the first router FIFO).
  void inject(const Packet& packet);

  /// Advances the fabric one cycle.
  void step();

  /// Runs until all traffic drains or `max_cycles` elapse; returns true if
  /// drained.
  bool run_until_drained(Cycle max_cycles);

  /// Packets delivered since the last drain (move-returns, clears queue).
  std::vector<Delivery> drain_delivered();

  /// Calls `f(const Delivery&)` for each packet delivered since the last
  /// drain, in delivery order, then forgets them.  Keeps the buffer's
  /// capacity, so a caller draining every step allocates nothing.  `f`
  /// may inject() but must not drain.
  template <typename F>
  void drain_delivered(F&& f) {
    for (const Delivery& d : delivered_) {
      f(d);
    }
    delivered_.clear();
  }

  Cycle now() const noexcept { return now_; }
  bool idle() const noexcept { return in_flight_ == 0; }
  std::uint64_t packets_in_flight() const noexcept { return in_flight_; }

  /// Total flit-hops traversed (a first-order dynamic-energy proxy: the
  /// paper's power argument counts context bits crossing the network).
  std::uint64_t flit_hops() const noexcept { return flit_hops_; }
  std::uint64_t packets_delivered() const noexcept { return delivered_count_; }

  /// Flits that traversed the directed link (node -> neighbor in `out`)
  /// on `vn` since construction.  Ejection (kLocal) is not a link.
  std::uint64_t link_flits(CoreId node, Direction out, int vn) const {
    return link_flits_[fifo_index(node, static_cast<int>(out), vn)];
  }

  /// Aggregates the per-(link, vnet) flit counters over the cycles stepped
  /// so far; the calibration layer feeds the result into the M/D/1
  /// correction (noc/contention.hpp).  Zero cycles yields all-zero
  /// utilizations.
  FabricUtilization utilization() const;

  /// End-to-end packet latency statistics per vnet.
  const RunningStat& latency_stat(std::int32_t vn) const {
    return latency_[static_cast<std::size_t>(vn)];
  }

  /// Consecutive cycles in which traffic was in flight but no flit moved.
  /// Non-zero transients are normal under backpressure; a large value
  /// (>> diameter * depth) indicates deadlock — tests assert it stays 0 at
  /// quiescence.
  Cycle stalled_cycles() const noexcept { return stalled_cycles_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// A flit in a router input ring (or the derived front of an
  /// injection queue).  No arrival stamp: a flit may move again only in a
  /// strictly later cycle than it entered its FIFO, and the only fronts
  /// that entered this cycle are the ones the per-node fresh_ mask names.
  struct Flit {
    std::uint32_t packet = 0;  // slot in packets_
    bool head = false;
    bool tail = false;
  };

  struct PacketState {
    Packet packet;
    Cycle injected = 0;
    /// Next packet in the same injection queue (or the next free slot).
    std::uint32_t next = kNone;
  };

  /// Injection queue of one (node, vnet): a packet list plus how many
  /// flits of the front packet have already left.
  struct SourceQueue {
    std::uint32_t first = kNone;
    std::uint32_t last = kNone;
    std::int32_t sent = 0;
  };

  /// Occupied window of one input FIFO's ring.
  struct Ring {
    std::uint32_t start = 0;
    std::uint32_t count = 0;
  };

  /// FIFO (node, port, vnet) — also the index of the (node, out-port,
  /// vnet) link counter.  Equals node * candidates + candidate.
  std::size_t fifo_index(CoreId node, int port, int vn) const noexcept {
    return static_cast<std::size_t>(node) * candidates_ +
           static_cast<std::size_t>(port) * vnets_ +
           static_cast<std::size_t>(vn);
  }
  /// Moves the front flit of candidate `cand` (= in_port * num_vnets +
  /// vn) at `node` through output `out`, which the caller has checked is
  /// grantable.  Shared verbatim by the masked and exhaustive arbiters,
  /// so they can only differ in how they pick the candidate.
  void grant(std::size_t node, std::uint32_t out, std::uint32_t cand);
  /// The exhaustive arbiter's per-candidate check, from raw FIFO state.
  bool grantable(std::size_t node, std::uint32_t out,
                 std::uint32_t cand) const;
  /// The front flit of candidate `cand`'s non-empty FIFO at `node`.
  Flit front(std::size_t node, std::uint32_t cand) const noexcept;
  /// Records `out` as the output the front flit of FIFO `fi` (candidate
  /// `cand` at `node`) heads for.
  void set_front_out(std::size_t node, std::size_t fi, std::uint32_t cand,
                     std::uint32_t out) noexcept;
  /// XY next-hop output of a head at `node` bound for `dst`.
  std::uint32_t route(std::size_t node, CoreId dst) const noexcept {
    return static_cast<std::uint32_t>(
        mesh_.route_xy(static_cast<CoreId>(node), dst));
  }

  Mesh mesh_;
  NetworkParams params_;
  std::uint32_t vnets_ = 0;
  std::uint32_t candidates_ = 0;  // kNumDirections * vnets_
  std::uint32_t depth_ = 0;

  // Static tables, per (node, output): the neighbour the output links to
  // (the node itself for kLocal, kNoCore at a mesh edge), the index of
  // the downstream input FIFO for vnet 0, and that FIFO's candidate
  // number at the neighbour.  Per candidate: its vnet.
  std::vector<CoreId> neighbour_;
  std::vector<std::size_t> down_fifo_;
  std::vector<std::uint32_t> down_cand_;
  std::vector<std::uint32_t> cand_vnet_;
  /// Bit i*num_vnets for every port i: multiplying a per-vnet mask by it
  /// copies the mask onto every input port's candidates.
  std::uint64_t spread_ = 0;
  std::uint64_t vnet_mask_ = 0;

  // Per FIFO (node x port x vnet).  Ports 1..4 are rings of depth_ flits
  // in slots_; port 0 (kLocal) is the node's injection queue, whose ring
  // entries stay unused.
  std::vector<Ring> rings_;
  std::vector<Flit> slots_;
  /// The output the FIFO's front flit heads for: a head's XY route, or —
  /// for the body and tail flits behind it — the output that head locked.
  /// Valid while the FIFO is non-empty; kept across empty spells, since
  /// the next flit to arrive behind a granted head follows its lock.
  std::vector<std::uint8_t> front_out_;
  /// Flit traversals per (node, out-port, vnet); same layout as the
  /// FIFOs.  Only non-local ports accumulate (ejection is not a shared
  /// resource).
  std::vector<std::uint64_t> link_flits_;

  // Per (node, vnet): the injection queues.
  std::vector<SourceQueue> source_;
  std::vector<PacketState> packets_;
  std::uint32_t free_packet_ = kNone;  // recycled slot list

  // Per node, candidate bits (in_port * num_vnets + vn):
  //   occupancy_ — the FIFO is non-empty (idle routers are skipped);
  //   heads_     — its front flit is a head (needs the output's lock);
  //   full_      — its ring holds vc_depth flits (no room upstream);
  //   fresh_     — its front entered this cycle (cannot move until the
  //                next one; cleared at every step).
  // And wormhole locks, bit (out_port * num_vnets + vn): set while a
  // packet streams through that output.
  std::vector<std::uint64_t> occupancy_;
  std::vector<std::uint64_t> heads_;
  std::vector<std::uint64_t> full_;
  std::vector<std::uint64_t> fresh_;
  std::vector<std::uint64_t> locks_;
  /// Per (node, output), candidate bits: the non-empty FIFOs whose front
  /// flit heads for this output.  Every non-empty FIFO has its bit in
  /// exactly one output's mask; the union over a node's outputs is its
  /// occupancy mask.
  std::vector<std::uint64_t> want_;
  /// Per (node, output): the candidate the rotating round-robin priority
  /// probes first (one past the last grant, wrapped).
  std::vector<std::uint32_t> rr_;

  // step() scratch: FIFOs of the router being arbitrated that already
  // moved a flit this cycle (an input FIFO feeds the switch at most one
  // flit per cycle; the exhaustive probe checks it, the masked arbiter
  // snapshots the wants instead), and whether any flit moved anywhere.
  std::uint64_t popped_ = 0;
  bool any_movement_ = false;

  std::vector<Delivery> delivered_;
  std::vector<RunningStat> latency_;
  Cycle now_ = 0;
  std::uint64_t in_flight_ = 0;
  std::uint64_t flit_hops_ = 0;
  std::uint64_t delivered_count_ = 0;
  Cycle stalled_cycles_ = 0;
};

}  // namespace em2
