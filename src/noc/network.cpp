#include "noc/network.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "util/assert.hpp"

namespace em2 {
namespace {

/// Input port at the downstream router for a flit travelling in `d`.
int arrival_port(Direction d) {
  switch (d) {
    case Direction::kEast:
      return static_cast<int>(Direction::kWest);
    case Direction::kWest:
      return static_cast<int>(Direction::kEast);
    case Direction::kNorth:
      return static_cast<int>(Direction::kSouth);
    case Direction::kSouth:
      return static_cast<int>(Direction::kNorth);
    case Direction::kLocal:
      break;
  }
  return static_cast<int>(Direction::kLocal);
}

}  // namespace

Network::Network(const Mesh& mesh, const NetworkParams& params)
    : mesh_(mesh), params_(params) {
  EM2_ASSERT(params.num_vnets >= 1, "need at least one virtual network");
  EM2_ASSERT(params.vc_depth >= 1, "VC FIFOs need at least one slot");
  vnets_ = static_cast<std::uint32_t>(params_.num_vnets);
  candidates_ = static_cast<std::uint32_t>(kNumDirections) * vnets_;
  depth_ = static_cast<std::uint32_t>(params_.vc_depth);
  stride_ = 2 + static_cast<std::size_t>(depth_);
  EM2_ASSERT(candidates_ <= 64,
             "per-router occupancy mask holds at most 64 (port, vnet) "
             "candidates");
  vnet_mask_ = (std::uint64_t{1} << vnets_) - 1;
  for (std::uint32_t port = 0; port < kNumDirections; ++port) {
    spread_ |= std::uint64_t{1} << (port * vnets_);
  }
  const std::ptrdiff_t width = mesh_.width();
  for (int out = 1; out < kNumDirections; ++out) {
    const auto dir = static_cast<Direction>(out);
    step_to_[out] = dir == Direction::kEast    ? 1
                    : dir == Direction::kWest  ? -1
                    : dir == Direction::kNorth ? -width
                                               : width;
    down_cand_[out] = static_cast<std::uint32_t>(arrival_port(dir)) * vnets_;
  }
  for (std::uint32_t c = 0; c < candidates_; ++c) {
    cand_vnet_[c] = static_cast<std::uint8_t>(c % vnets_);
  }
  const auto nodes = static_cast<std::size_t>(mesh_.num_cores());
  const std::size_t fifos = nodes * candidates_;
  routers_.assign(nodes, Router{});
  units_.resize(fifos * stride_);
  for (std::size_t fi = 0; fi < fifos; ++fi) {
    units_[fi * stride_].ring = Ring{};
    units_[fi * stride_ + 1].link_flits = 0;
    for (std::uint32_t k = 0; k < depth_; ++k) {
      slot(fi, k) = Flit{0, false, false, 0};
    }
  }
  source_.assign(nodes * vnets_, SourceQueue{});
  latency_.resize(vnets_);
}

EM2_ALWAYS_INLINE Network::Flit Network::front(
    std::size_t node, std::uint32_t cand) const noexcept {
  if (cand < vnets_) {
    // Injection queue (port 0, candidate = vnet): the front packet's
    // next unsent flit, derived.
    const SourceQueue& q = source_[node * vnets_ + cand];
    return Flit{q.first, q.sent == 0,
                q.sent == packets_[q.first].packet.flits - 1, 0};
  }
  const std::size_t fi = fifo_index(node, cand);
  return slot(fi, ring(fi).start);
}

void Network::inject(const Packet& packet) {
  EM2_ASSERT(packet.vnet >= 0 && packet.vnet < params_.num_vnets,
             "packet vnet out of range");
  EM2_ASSERT(packet.flits >= 1, "packet must carry at least one flit");
  EM2_ASSERT(packet.src >= 0 && packet.src < mesh_.num_cores() &&
                 packet.dst >= 0 && packet.dst < mesh_.num_cores(),
             "packet endpoints outside the mesh");
  std::uint32_t slot = free_packet_;
  if (slot != kNone) {
    free_packet_ = packets_[slot].next;
    packets_[slot] = PacketState{packet, now_, kNone};
    dst_[slot] = mesh_.coord_of(packet.dst);
  } else {
    EM2_ASSERT(packets_.size() < kNone, "too many packets in flight");
    slot = static_cast<std::uint32_t>(packets_.size());
    packets_.push_back(PacketState{packet, now_, kNone});
    dst_.push_back(mesh_.coord_of(packet.dst));
  }
  ++in_flight_;
  // The source queue is unbounded (a processor-side send queue feeding
  // the network interface); injection backpressure is exerted by the
  // switch, which drains at most one flit per cycle per output.  Its
  // flits entered before the next step() began, so they are never fresh.
  const auto node = static_cast<std::size_t>(packet.src);
  const auto cand = static_cast<std::uint32_t>(packet.vnet);
  SourceQueue& q = source_[node * vnets_ + cand];
  if (q.first == kNone) {
    q.first = slot;
    q.sent = 0;
    Router& r = routers_[node];
    r.heads |= std::uint64_t{1} << cand;
    r.want[route(node, slot)] |= std::uint64_t{1} << cand;
  } else {
    packets_[q.last].next = slot;
  }
  q.last = slot;
}

bool Network::grantable(std::size_t node, std::uint64_t fresh,
                        std::uint32_t out, std::uint32_t cand) const {
  const std::uint64_t bit = std::uint64_t{1} << cand;
  const std::size_t fi = fifo_index(node, cand);
  const bool empty = cand < vnets_
                         ? source_[node * vnets_ + cand].first == kNone
                         : ring(fi).count == 0;
  if (empty || ((popped_ | fresh) & bit) != 0) {
    return false;
  }
  // Heads choose their output by XY routing; body/tail flits follow the
  // lock their head acquired, which is the same output.
  const Flit flit = front(node, cand);
  if (route(node, flit.packet) != out) {
    return false;
  }
  // Heads must acquire the (output, vnet) wormhole lock.
  const std::uint32_t vn = cand_vnet_[cand];
  if (flit.head && (routers_[node].locks >> (out * vnets_ + vn) & 1) != 0) {
    return false;
  }
  // Downstream space (ejection is an infinite sink).
  if (out == 0) {
    return true;
  }
  const auto next = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(node) + step_to_[out]);
  return ring(fifo_index(next, down_cand_[out] + vn)).count < depth_;
}

EM2_ALWAYS_INLINE void Network::grant(std::size_t node, std::uint32_t out,
                                      std::uint32_t cand) {
  const std::uint64_t bit = std::uint64_t{1} << cand;
  const std::size_t fi = fifo_index(node, cand);
  const std::uint32_t vn = cand_vnet_[cand];
  const std::uint32_t lock = out * vnets_ + vn;
  Router& r = routers_[node];
  Flit flit;

  // Pop, and find the output the flit behind wants: its packet's XY
  // route, which is a fresh head's own route after a tail and the output
  // its head locked after a head or body.  The front's want bit lives in
  // THIS output's mask by construction.
  popped_ |= bit;
  any_movement_ = true;
  r.want[out] &= ~bit;
  bool drained = false;
  std::uint32_t behind_out = 0;
  if (cand < vnets_) {
    SourceQueue& q = source_[node * vnets_ + cand];
    flit = front(node, cand);
    if (flit.tail) {
      q.first = packets_[flit.packet].next;
      q.sent = 0;
    } else {
      ++q.sent;
    }
    drained = q.first == kNone;
    behind_out = route(node, drained ? flit.packet : q.first);
  } else {
    Ring& q = ring(fi);
    flit = slot(fi, q.start);
    q.start = q.start + 1 == depth_ ? 0 : q.start + 1;
    --q.count;
    drained = q.count == 0;
    // A drained ring's stale slot still names a valid output.
    behind_out = slot(fi, q.start).out;
    r.full &= ~bit;
  }
  const std::uint64_t stays = bit & (0 - static_cast<std::uint64_t>(!drained));
  r.want[behind_out] |= stays;
  r.heads = (r.heads & ~bit) |
            (stays & (0 - static_cast<std::uint64_t>(flit.tail)));
  // A multi-flit packet's head takes the (output, vnet) wormhole lock
  // and its tail releases it: both toggle the bit.
  r.locks ^= (std::uint64_t{1} << lock) &
             (0 - static_cast<std::uint64_t>(flit.head != flit.tail));

  if (out == 0) {
    if (flit.tail) {
      PacketState& done = packets_[flit.packet];
      delivered_.push_back(Delivery{done.packet, done.injected, now_});
      ++delivered_count_;
      --in_flight_;
      latency_[vn].add(static_cast<double>(now_ - done.injected));
      done.next = free_packet_;
      free_packet_ = flit.packet;
    }
  } else {
    const auto next = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(node) + step_to_[out]);
    const std::uint32_t dcand = down_cand_[out] + vn;
    const std::uint64_t dbit = std::uint64_t{1} << dcand;
    const std::size_t down = fifo_index(next, dcand);
    Router& d = routers_[next];
    Ring& q = ring(down);
    std::uint32_t at = q.start + q.count;
    if (at >= depth_) {
      at -= depth_;
    }
    const std::uint32_t to = route(next, flit.packet);
    slot(down, at) = Flit{flit.packet, flit.head, flit.tail,
                          static_cast<std::uint8_t>(to)};
    ++q.count;
    d.full |= dbit & (0 - static_cast<std::uint64_t>(q.count == depth_));
    // A flit reaching an empty FIFO is its new front.  It may move next
    // cycle; only a router still to be visited this cycle needs telling
    // not yet.
    const std::uint64_t front_bit =
        dbit & (0 - static_cast<std::uint64_t>(q.count == 1));
    d.fresh |= front_bit & (0 - static_cast<std::uint64_t>(next > node));
    d.heads |= front_bit & (0 - static_cast<std::uint64_t>(flit.head));
    d.want[to] |= front_bit;
    ++flit_hops_;
    ++units_[down * stride_ + 1].link_flits;
  }
  r.rr[out] = static_cast<std::uint8_t>(cand + 1 == candidates_ ? 0 : cand + 1);
}

void Network::step() {
  ++now_;
  any_movement_ = false;
  const auto nodes = static_cast<std::size_t>(mesh_.num_cores());
  for (std::size_t node = 0; node < nodes; ++node) {
    Router& r = routers_[node];
    std::uint64_t busy = 0;
    for (const std::uint64_t w : r.want) {
      busy |= w;
    }
    if (busy == 0 && params_.occupancy_mask) {
      continue;  // idle router: no candidate, and so no fresh front either
    }
    const std::uint64_t fresh = r.fresh;
    r.fresh = 0;
    popped_ = 0;
    if (params_.occupancy_mask) {
      // A grant at one output cannot change what another output of this
      // router may grant: each candidate's want bit names one output, a
      // popped FIFO's next front is barred until the next cycle, and a
      // grant moves only its own output's lock and downstream FIFO.  So
      // snapshot the wants (minus fronts that entered this cycle) up
      // front, and visit only the outputs that have any.
      std::array<std::uint64_t, kNumDirections> wants{};
      std::uint32_t outs = 0;
      for (std::uint32_t out = 0; out < kNumDirections; ++out) {
        wants[out] = r.want[out] & ~fresh;
        outs |= static_cast<std::uint32_t>(wants[out] != 0) << out;
      }
      // Pick every output's candidate first, prefetching the FIFO
      // records its grant will pop from and push to, then grant.
      std::array<std::uint32_t, kNumDirections> picks{};
      std::uint32_t granted = 0;
      for (; outs != 0; outs &= outs - 1) {
        const auto out = static_cast<std::uint32_t>(std::countr_zero(outs));
        // Drop the candidates the exhaustive scan would reject at the
        // lock or flow-control check: heads whose (output, vnet) lock is
        // held, and every vnet whose downstream FIFO is full.  What is
        // left is exactly the set of candidates the scan would grant.
        const std::uint64_t locked = (r.locks >> (out * vnets_)) & vnet_mask_;
        std::uint64_t avail = wants[out] & ~(r.heads & locked * spread_);
        const auto next = static_cast<std::size_t>(
            static_cast<std::ptrdiff_t>(node) + step_to_[out]);
        if (out != 0) {
          const std::uint64_t full =
              (routers_[next].full >> down_cand_[out]) & vnet_mask_;
          avail &= ~(full * spread_);
        }
        if (avail == 0) {
          continue;
        }
        // The scan visits start..nc-1, then 0..start-1 and grants the
        // first grantable candidate.
        const std::uint32_t start = r.rr[out];
        const std::uint64_t from_start = avail & (~std::uint64_t{0} << start);
        const auto cand = static_cast<std::uint32_t>(
            std::countr_zero(from_start != 0 ? from_start : avail));
        picks[out] = cand;
        granted |= 1u << out;
        __builtin_prefetch(&units_[fifo_index(node, cand) * stride_]);
        __builtin_prefetch(
            &units_[fifo_index(next, down_cand_[out] + cand_vnet_[cand]) *
                    stride_]);
      }
      for (; granted != 0; granted &= granted - 1) {
        const auto out = static_cast<std::uint32_t>(std::countr_zero(granted));
        grant(node, out, picks[out]);
      }
    } else {
      // Reference arbiter: exhaustive probe over every candidate.
      for (std::uint32_t out = 0; out < kNumDirections; ++out) {
        if (mesh_.neighbor(static_cast<CoreId>(node),
                           static_cast<Direction>(out)) == kNoCore) {
          continue;  // mesh edge: no link in this direction
        }
        const std::uint32_t start = r.rr[out];
        for (std::uint32_t probe = 0; probe < candidates_; ++probe) {
          const std::uint32_t cand = (start + probe) % candidates_;
          if (grantable(node, fresh, out, cand)) {
            grant(node, out, cand);
            break;
          }
        }
      }
    }
  }

  if (in_flight_ > 0 && !any_movement_) {
    ++stalled_cycles_;
  } else {
    stalled_cycles_ = 0;
  }
}

bool Network::run_until_drained(Cycle max_cycles) {
  const Cycle deadline = now_ + max_cycles;
  while (!idle() && now_ < deadline) {
    step();
  }
  return idle();
}

std::uint64_t Network::link_flits(CoreId node, Direction out, int vn) const {
  const CoreId next = mesh_.neighbor(node, out);
  if (out == Direction::kLocal || next == kNoCore) {
    return 0;
  }
  const std::size_t down = fifo_index(
      static_cast<std::size_t>(next),
      down_cand_[static_cast<std::size_t>(out)] + static_cast<std::uint32_t>(vn));
  return units_[down * stride_ + 1].link_flits;
}

FabricUtilization Network::utilization() const {
  const auto vnets = static_cast<std::size_t>(params_.num_vnets);
  FabricUtilization u;
  u.cycles = now_;
  u.mean_by_vnet.assign(vnets, 0.0);
  u.weighted_by_vnet.assign(vnets, 0.0);
  u.seen_by_vnet.assign(vnets, 0.0);
  u.peak_by_vnet.assign(vnets, 0.0);
  u.flits_by_vnet.assign(vnets, 0);
  u.dropped_by_vnet.assign(vnets, 0);
  u.retransmitted_by_vnet.assign(vnets, 0);
  // Sums over directed inter-router links; the flit-weighted means are
  // sum(flits_l * rho_l) / sum(flits_l) — the occupancy (own vnet's, or
  // the link total across vnets for `seen`) the average flit of the vnet
  // experienced.
  std::vector<double> weighted_num(vnets, 0.0);
  std::vector<double> seen_num(vnets, 0.0);
  for (CoreId node = 0; node < mesh_.num_cores(); ++node) {
    for (int out = 1; out < kNumDirections; ++out) {  // skip kLocal
      if (mesh_.neighbor(node, static_cast<Direction>(out)) == kNoCore) {
        continue;
      }
      ++u.num_links;
      std::uint64_t link_total = 0;
      for (std::size_t vn = 0; vn < vnets; ++vn) {
        link_total += link_flits(node, static_cast<Direction>(out),
                                 static_cast<int>(vn));
      }
      for (std::size_t vn = 0; vn < vnets; ++vn) {
        const std::uint64_t flits = link_flits(
            node, static_cast<Direction>(out), static_cast<int>(vn));
        u.flits_by_vnet[vn] += flits;
        if (now_ == 0 || flits == 0) {
          continue;
        }
        const double rho =
            static_cast<double>(flits) / static_cast<double>(now_);
        const double rho_total =
            static_cast<double>(link_total) / static_cast<double>(now_);
        weighted_num[vn] += static_cast<double>(flits) * rho;
        seen_num[vn] += static_cast<double>(flits) * rho_total;
        if (rho > u.peak_by_vnet[vn]) {
          u.peak_by_vnet[vn] = rho;
        }
        if (rho > u.peak) {
          u.peak = rho;
        }
      }
    }
  }
  for (std::size_t vn = 0; vn < vnets; ++vn) {
    if (now_ > 0 && u.num_links > 0) {
      u.mean_by_vnet[vn] = static_cast<double>(u.flits_by_vnet[vn]) /
                           (static_cast<double>(u.num_links) *
                            static_cast<double>(now_));
    }
    if (u.flits_by_vnet[vn] > 0) {
      const double den = static_cast<double>(u.flits_by_vnet[vn]);
      u.weighted_by_vnet[vn] = weighted_num[vn] / den;
      u.seen_by_vnet[vn] = seen_num[vn] / den;
    }
  }
  return u;
}

std::vector<Delivery> Network::drain_delivered() {
  std::vector<Delivery> out;
  out.swap(delivered_);
  return out;
}

}  // namespace em2
