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

#include <array>
#include <cstddef>
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
  /// calibration replay of stream-cold takes 90 ms vs 990 ms with the
  /// exhaustive probe (median thread CPU time, 4-CPU Xeon host), which
  /// false retains as the reference arbiter.
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
/// Storage is router-major: one 128-byte block per router holds every
/// arbitration mask of that router, one record per input FIFO holds its
/// vc_depth-flit ring next to the counter of the link that feeds it, and
/// each unbounded injection queue is an intrusive list of packet slots
/// whose front flit is derived (head = first unsent flit, tail = last)
/// instead of materialized per flit.  Packet slots are recycled at
/// delivery, so fabric memory is bounded by the packets in flight, not by
/// the packets ever injected.
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
  std::uint64_t link_flits(CoreId node, Direction out, int vn) const;

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
  /// that entered this cycle are the ones their router's fresh mask names.
  struct Flit {
    std::uint32_t packet;  // slot in packets_
    bool head;
    bool tail;
    /// In a ring: the output the flit takes at the ring's router, its
    /// packet's XY route there (unused in a derived front).
    std::uint8_t out;
  };

  /// Occupied window of one input FIFO's ring.
  struct Ring {
    std::uint32_t start;
    std::uint32_t count;
  };

  /// One 8-byte unit of a FIFO record (its members are trivial, as a
  /// union's must be).  The record of FIFO `fi` is units
  /// [fi * stride_, (fi + 1) * stride_): the ring header, the flit
  /// counter of the link that feeds the FIFO, then vc_depth flit slots.
  union Unit {
    std::uint64_t link_flits = 0;
    Ring ring;
    Flit flit;
  };

  /// Every arbitration mask of one router.  Candidate bits are
  /// in_port * num_vnets + vn:
  ///   heads — the FIFO's front flit is a head (needs the output's lock);
  ///   full  — its ring holds vc_depth flits (no room upstream);
  ///   fresh — its front entered this cycle and cannot move until the
  ///           next one.  Set only while the router is still to be
  ///           visited this cycle, and cleared by the visit, so no
  ///           router needs a per-cycle reset;
  ///   want[out] — the non-empty FIFOs whose front heads for output
  ///           `out`: a head's XY route, or the output its head locked.
  ///           Every non-empty FIFO has its bit in exactly one output's
  ///           mask, so a router with no want bit is idle.
  /// locks holds bit (out_port * num_vnets + vn) while a packet streams
  /// through that output; rr[out] is the candidate the rotating
  /// round-robin priority probes first (one past the last grant).
  struct alignas(64) Router {
    std::array<std::uint64_t, kNumDirections> want{};
    std::uint64_t heads = 0;
    std::uint64_t full = 0;
    std::uint64_t fresh = 0;
    std::uint64_t locks = 0;
    std::array<std::uint8_t, kNumDirections> rr{};
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

  /// FIFO (node, port, vnet).  Equals node * candidates + candidate.
  std::size_t fifo_index(std::size_t node, std::uint32_t cand) const noexcept {
    return node * candidates_ + cand;
  }
  Ring& ring(std::size_t fi) noexcept { return units_[fi * stride_].ring; }
  const Ring& ring(std::size_t fi) const noexcept {
    return units_[fi * stride_].ring;
  }
  Flit& slot(std::size_t fi, std::uint32_t k) noexcept {
    return units_[fi * stride_ + 2 + k].flit;
  }
  const Flit& slot(std::size_t fi, std::uint32_t k) const noexcept {
    return units_[fi * stride_ + 2 + k].flit;
  }
  /// Moves the front flit of candidate `cand` (= in_port * num_vnets +
  /// vn) at `node` through output `out`, which the caller has checked is
  /// grantable.  Shared verbatim by the masked and exhaustive arbiters,
  /// so they can only differ in how they pick the candidate.
  void grant(std::size_t node, std::uint32_t out, std::uint32_t cand);
  /// The exhaustive arbiter's per-candidate check, from raw FIFO state;
  /// `fresh` is the visited router's fresh mask.
  bool grantable(std::size_t node, std::uint64_t fresh, std::uint32_t out,
                 std::uint32_t cand) const;
  /// The front flit of candidate `cand`'s non-empty FIFO at `node`.
  Flit front(std::size_t node, std::uint32_t cand) const noexcept;
  /// XY next-hop output at `node` of packet slot `packet`: a head's
  /// route, and so also the output its body and tail follow.
  std::uint32_t route(std::size_t node, std::uint32_t packet) const noexcept {
    const Coord at = mesh_.coord_of(static_cast<CoreId>(node));
    const Coord to = dst_[packet];
    // Sign of each remaining offset, -1..1, indexes the 3x3 table.
    const int sx = (at.x < to.x) - (at.x > to.x);
    const int sy = (at.y < to.y) - (at.y > to.y);
    return kRouteXy[static_cast<std::size_t>((sx + 1) * 3 + sy + 1)];
  }
  /// XY routing by offset sign: x first, then y, then eject.
  static constexpr std::array<std::uint8_t, 9> kRouteXy = {
      2, 2, 2,  // x behind: West
      3, 0, 4,  // same column: North, Local, South
      1, 1, 1,  // x ahead: East
  };

  Mesh mesh_;
  NetworkParams params_;
  std::uint32_t vnets_ = 0;
  std::uint32_t candidates_ = 0;  // kNumDirections * vnets_
  std::uint32_t depth_ = 0;
  std::size_t stride_ = 0;  // units per FIFO record: 2 + depth_

  // Per output: the offset of the router it links to (XY routing never
  // points off the mesh, so no edge check is needed) and the downstream
  // FIFO's candidate number for vnet 0 there.  Per candidate: its vnet.
  std::array<std::ptrdiff_t, kNumDirections> step_to_{};
  std::array<std::uint32_t, kNumDirections> down_cand_{};
  std::array<std::uint8_t, 64> cand_vnet_{};
  /// Bit i*num_vnets for every port i: multiplying a per-vnet mask by it
  /// copies the mask onto every input port's candidates.
  std::uint64_t spread_ = 0;
  std::uint64_t vnet_mask_ = 0;

  std::vector<Router> routers_;
  /// FIFO records (node x port x vnet).  Ports 1..4 are rings; port 0
  /// (kLocal) is the node's injection queue, whose record stays unused
  /// (ejection is not a link).
  std::vector<Unit> units_;

  // Per (node, vnet): the injection queues.
  std::vector<SourceQueue> source_;
  std::vector<PacketState> packets_;
  /// Per packet slot: its destination, which route() reads at every hop.
  std::vector<Coord> dst_;
  std::uint32_t free_packet_ = kNone;  // recycled slot list

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
