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
  EM2_ASSERT(candidates_ <= 64,
             "per-router occupancy mask holds at most 64 (port, vnet) "
             "candidates");
  vnet_mask_ = (std::uint64_t{1} << vnets_) - 1;
  for (std::uint32_t port = 0; port < kNumDirections; ++port) {
    spread_ |= std::uint64_t{1} << (port * vnets_);
  }
  const auto nodes = static_cast<std::size_t>(mesh_.num_cores());
  const std::size_t fifos = nodes * candidates_;
  const std::size_t outputs = nodes * static_cast<std::size_t>(kNumDirections);
  neighbour_.assign(outputs, kNoCore);
  down_fifo_.assign(outputs, 0);
  down_cand_.assign(outputs, 0);
  for (CoreId node = 0; node < mesh_.num_cores(); ++node) {
    for (int out = 0; out < kNumDirections; ++out) {
      const auto dir = static_cast<Direction>(out);
      const CoreId next = mesh_.neighbor(node, dir);
      const std::size_t o =
          static_cast<std::size_t>(node) * kNumDirections +
          static_cast<std::size_t>(out);
      neighbour_[o] = next;
      if (next != kNoCore && dir != Direction::kLocal) {
        const int port = arrival_port(dir);
        down_fifo_[o] = fifo_index(next, port, 0);
        down_cand_[o] = static_cast<std::uint32_t>(port) * vnets_;
      }
    }
  }
  cand_vnet_.resize(candidates_);
  for (std::uint32_t c = 0; c < candidates_; ++c) {
    cand_vnet_[c] = c % vnets_;
  }
  rings_.assign(fifos, Ring{});
  slots_.assign(fifos * depth_, Flit{});
  front_out_.assign(fifos, 0);
  link_flits_.assign(fifos, 0);
  source_.assign(nodes * vnets_, SourceQueue{});
  occupancy_.assign(nodes, 0);
  heads_.assign(nodes, 0);
  full_.assign(nodes, 0);
  fresh_.assign(nodes, 0);
  locks_.assign(nodes, 0);
  want_.assign(outputs, 0);
  rr_.assign(outputs, 0);
  latency_.resize(vnets_);
}

void Network::set_front_out(std::size_t node, std::size_t fi,
                            std::uint32_t cand, std::uint32_t out) noexcept {
  front_out_[fi] = static_cast<std::uint8_t>(out);
  want_[node * kNumDirections + out] |= std::uint64_t{1} << cand;
}

Network::Flit Network::front(std::size_t node,
                             std::uint32_t cand) const noexcept {
  if (cand < vnets_) {
    // Injection queue (port 0, candidate = vnet): the front packet's
    // next unsent flit, derived.
    const SourceQueue& q = source_[node * vnets_ + cand];
    return Flit{q.first, q.sent == 0,
                q.sent == packets_[q.first].packet.flits - 1};
  }
  const std::size_t fi = node * candidates_ + cand;
  return slots_[fi * depth_ + rings_[fi].start];
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
  } else {
    EM2_ASSERT(packets_.size() < kNone, "too many packets in flight");
    slot = static_cast<std::uint32_t>(packets_.size());
    packets_.push_back(PacketState{packet, now_, kNone});
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
    occupancy_[node] |= std::uint64_t{1} << cand;
    heads_[node] |= std::uint64_t{1} << cand;
    set_front_out(node, node * candidates_ + cand, cand,
                  route(node, packet.dst));
  } else {
    packets_[q.last].next = slot;
  }
  q.last = slot;
}

bool Network::grantable(std::size_t node, std::uint32_t out,
                        std::uint32_t cand) const {
  const std::uint64_t bit = std::uint64_t{1} << cand;
  const std::size_t fi = node * candidates_ + cand;
  const bool empty = cand < vnets_
                         ? source_[node * vnets_ + cand].first == kNone
                         : rings_[fi].count == 0;
  if (empty || (popped_ & bit) != 0 || (fresh_[node] & bit) != 0) {
    return false;
  }
  const Flit flit = front(node, cand);
  const std::uint32_t vn = cand_vnet_[cand];
  if (flit.head) {
    // Heads choose their output by XY routing and must acquire the
    // (output, vnet) wormhole lock.
    if (route(node, packets_[flit.packet].packet.dst) != out ||
        (locks_[node] >> (out * vnets_ + vn) & 1) != 0) {
      return false;
    }
  } else if (front_out_[fi] != out) {
    return false;  // body/tail flits follow the lock their head acquired
  }
  // Downstream space (ejection is an infinite sink).
  const std::size_t o = node * kNumDirections + out;
  return out == 0 || rings_[down_fifo_[o] + vn].count < depth_;
}

void Network::grant(std::size_t node, std::uint32_t out,
                    std::uint32_t cand) {
  const std::uint64_t bit = std::uint64_t{1} << cand;
  const std::size_t fi = node * candidates_ + cand;
  const std::size_t o = node * kNumDirections + out;
  const std::uint32_t vn = cand_vnet_[cand];
  const std::uint32_t lock = out * vnets_ + vn;
  const Flit flit = front(node, cand);

  // Pop.  The front's want bit lives in THIS output's mask by
  // construction.
  popped_ |= bit;
  any_movement_ = true;
  want_[o] &= ~bit;
  bool drained = false;
  if (cand < vnets_) {
    SourceQueue& q = source_[node * vnets_ + cand];
    if (flit.tail) {
      q.first = packets_[flit.packet].next;
      q.sent = 0;
      drained = q.first == kNone;
    } else {
      ++q.sent;
    }
  } else {
    Ring& r = rings_[fi];
    r.start = r.start + 1 == depth_ ? 0 : r.start + 1;
    --r.count;
    drained = r.count == 0;
    full_[node] &= ~bit;
  }
  if (drained) {
    occupancy_[node] &= ~bit;
    heads_[node] &= ~bit;
  } else if (flit.tail) {
    // A fresh head reached the front: it wants its own XY route.
    heads_[node] |= bit;
    set_front_out(node, fi, cand,
                  route(node, packets_[front(node, cand).packet].packet.dst));
  } else {
    // The next flit of the same packet follows this one's output.
    heads_[node] &= ~bit;
    want_[o] |= bit;
  }
  // A multi-flit packet's head takes the (output, vnet) wormhole lock
  // and its tail releases it: both toggle the bit.
  locks_[node] ^= (std::uint64_t{1} << lock) &
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
    const std::size_t down = down_fifo_[o] + vn;
    const auto next = static_cast<std::size_t>(neighbour_[o]);
    const std::uint32_t dcand = down_cand_[o] + vn;
    const std::uint64_t dbit = std::uint64_t{1} << dcand;
    Ring& r = rings_[down];
    std::uint32_t slot = r.start + r.count;
    if (slot >= depth_) {
      slot -= depth_;
    }
    slots_[down * depth_ + slot] = flit;
    ++r.count;
    full_[next] |= dbit & (0 - static_cast<std::uint64_t>(r.count == depth_));
    if (r.count == 1) {
      occupancy_[next] |= dbit;
      fresh_[next] |= dbit;
      if (flit.head) {
        heads_[next] |= dbit;
        set_front_out(next, down, dcand,
                      route(next, packets_[flit.packet].packet.dst));
      } else {
        // A body landing at an empty FIFO follows the lock its head took
        // at `next`, which front_out_ still names.
        set_front_out(next, down, dcand, front_out_[down]);
      }
    }
    ++flit_hops_;
    ++link_flits_[node * candidates_ + lock];
  }
  rr_[o] = cand + 1 == candidates_ ? 0 : cand + 1;
}

void Network::step() {
  ++now_;
  any_movement_ = false;
  std::fill(fresh_.begin(), fresh_.end(), 0);
  const auto nodes = static_cast<std::size_t>(mesh_.num_cores());
  for (std::size_t node = 0; node < nodes; ++node) {
    popped_ = 0;
    if (params_.occupancy_mask) {
      if (occupancy_[node] == 0) {
        continue;  // idle router: no candidate on any output
      }
      // A grant at one output cannot change what another output of this
      // router may grant: each candidate's want bit names one output, a
      // popped FIFO's next front is barred until the next cycle, and a
      // grant moves only its own output's lock and downstream FIFO.  So
      // snapshot the wants (minus fronts that entered this cycle) up
      // front, and visit only the outputs that have any.
      const std::uint64_t fresh = fresh_[node];
      std::array<std::uint64_t, kNumDirections> wants{};
      std::uint32_t outs = 0;
      for (std::uint32_t out = 0; out < kNumDirections; ++out) {
        wants[out] = want_[node * kNumDirections + out] & ~fresh;
        outs |= static_cast<std::uint32_t>(wants[out] != 0) << out;
      }
      for (; outs != 0; outs &= outs - 1) {
        const auto out = static_cast<std::uint32_t>(std::countr_zero(outs));
        const std::size_t o = node * kNumDirections + out;
        // Drop the candidates the exhaustive scan would reject at the
        // lock or flow-control check: heads whose (output, vnet) lock is
        // held, and every vnet whose downstream FIFO is full.  What is
        // left is exactly the set of candidates the scan would grant.
        const std::uint64_t locked =
            (locks_[node] >> (out * vnets_)) & vnet_mask_;
        std::uint64_t avail = wants[out] & ~(heads_[node] & locked * spread_);
        if (out != 0) {
          const auto next = static_cast<std::size_t>(neighbour_[o]);
          const std::uint64_t full =
              (full_[next] >> down_cand_[o]) & vnet_mask_;
          avail &= ~(full * spread_);
        }
        if (avail == 0) {
          continue;
        }
        // The scan visits start..nc-1, then 0..start-1 and grants the
        // first grantable candidate.
        const std::uint32_t start = rr_[o];
        const std::uint64_t from_start = avail & (~std::uint64_t{0} << start);
        const auto cand = static_cast<std::uint32_t>(
            std::countr_zero(from_start != 0 ? from_start : avail));
        grant(node, out, cand);
      }
    } else {
      // Reference arbiter: exhaustive probe over every candidate.
      for (std::uint32_t out = 0; out < kNumDirections; ++out) {
        const std::size_t o = node * kNumDirections + out;
        if (neighbour_[o] == kNoCore) {
          continue;  // mesh edge: no link in this direction
        }
        const std::uint32_t start = rr_[o];
        for (std::uint32_t probe = 0; probe < candidates_; ++probe) {
          const std::uint32_t cand = (start + probe) % candidates_;
          if (grantable(node, out, cand)) {
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
        link_total += link_flits_[fifo_index(node, out, static_cast<int>(vn))];
      }
      for (std::size_t vn = 0; vn < vnets; ++vn) {
        const std::uint64_t flits =
            link_flits_[fifo_index(node, out, static_cast<int>(vn))];
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
