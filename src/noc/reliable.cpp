#include "noc/reliable.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace em2 {

ReliableNetwork::ReliableNetwork(const Mesh& mesh,
                                 const NetworkParams& params,
                                 const FaultInjector& faults,
                                 Cycle base_timeout)
    : net_(mesh, params),
      faults_(faults),
      dropped_by_vnet_(static_cast<std::size_t>(params.num_vnets), 0),
      retransmitted_by_vnet_(static_cast<std::size_t>(params.num_vnets),
                             0) {
  if (base_timeout > 0) {
    base_timeout_ = base_timeout;
  } else {
    // A packet that is merely crossing an unloaded mesh must not time
    // out: bound a round trip by twice the diameter in hops (data out,
    // ACK back) with per-hop slack for arbitration, and never go below
    // the spec's configured timeout.
    const Cycle diameter =
        static_cast<Cycle>(mesh.width() + mesh.height());
    base_timeout_ =
        std::max<Cycle>(faults.spec().retry_timeout, 4 * (diameter + 2));
  }
}

Cycle ReliableNetwork::timeout_for(const Message& m,
                                   std::uint32_t attempt) const noexcept {
  // Serialization rides on top of the base bound; exponential backoff
  // with the same shift cap the protocol-level recovery uses.
  return (base_timeout_ + static_cast<Cycle>(m.flits))
         << (attempt < 6 ? attempt : 6u);
}

std::uint64_t ReliableNetwork::send(CoreId src, CoreId dst,
                                    std::int32_t vnet, std::int32_t flits,
                                    std::uint64_t token) {
  const std::uint64_t tid = msgs_.size();
  Message m;
  m.src = src;
  m.dst = dst;
  m.vnet = vnet;
  m.flits = flits;
  m.token = token;
  m.first_injected = net_.now();
  msgs_.push_back(m);
  ++live_;
  transmit(tid, 0);
  return tid;
}

void ReliableNetwork::transmit(std::uint64_t tid, std::uint32_t attempt) {
  const Message& m = msgs_[static_cast<std::size_t>(tid)];
  Packet p;
  p.id = tid * 2;  // even = data, odd = ACK
  p.src = m.src;
  p.dst = m.dst;
  p.vnet = m.vnet;
  p.flits = m.flits;
  p.token = attempt;  // the drop draw at ejection needs the attempt
  net_.inject(p);
  timers_.push(Timeout{net_.now() + timeout_for(m, attempt), tid, attempt});
  if (attempt > 0) {
    ++retransmissions_;
    ++retransmitted_by_vnet_[static_cast<std::size_t>(m.vnet)];
  }
}

void ReliableNetwork::on_eject(const Delivery& d) {
  const std::uint64_t tid = d.packet.id / 2;
  const auto attempt = static_cast<std::uint32_t>(d.packet.token);
  Message& m = msgs_[static_cast<std::size_t>(tid)];
  if ((d.packet.id & 1) != 0) {
    // ACK.  Droppable like any packet; a lost ACK is recovered by the
    // sender's timer plus receiver dedup.
    if (faults_.drop_packet(d.packet.id, attempt)) {
      ++drops_;
      ++dropped_by_vnet_[static_cast<std::size_t>(d.packet.vnet)];
      return;
    }
    if (!m.acked) {
      m.acked = true;
      --live_;
    }
    return;
  }
  // Data packet.
  if (faults_.drop_packet(d.packet.id, attempt)) {
    ++drops_;
    ++dropped_by_vnet_[static_cast<std::size_t>(d.packet.vnet)];
    return;
  }
  if (!m.delivered) {
    m.delivered = true;
    ++delivered_count_;
    Packet app;
    app.id = tid;
    app.src = m.src;
    app.dst = m.dst;
    app.vnet = m.vnet;
    app.flits = m.flits;
    app.token = m.token;
    delivered_app_.push_back(Delivery{app, m.first_injected, net_.now()});
  } else {
    ++duplicates_;
  }
  // Always ACK, duplicates included — the duplicate means the original
  // ACK (or the data's first copy) was lost.
  Packet ack;
  ack.id = tid * 2 + 1;
  ack.src = m.dst;
  ack.dst = m.src;
  ack.vnet = m.vnet;
  ack.flits = 1;
  ack.token = attempt;
  net_.inject(ack);
}

void ReliableNetwork::step() {
  net_.step();
  net_.drain_delivered([this](const Delivery& d) { on_eject(d); });
  while (!timers_.empty() && timers_.top().deadline <= net_.now()) {
    const Timeout t = timers_.top();
    timers_.pop();
    Message& m = msgs_[static_cast<std::size_t>(t.tid)];
    if (m.acked || t.attempt != m.attempt) {
      continue;  // acknowledged, or a newer attempt owns the timer
    }
    ++m.attempt;
    transmit(t.tid, m.attempt);
  }
}

bool ReliableNetwork::run_until_drained(Cycle max_cycles) {
  const Cycle deadline = net_.now() + max_cycles;
  while (!idle() && net_.now() < deadline) {
    step();
  }
  return idle();
}

std::vector<Delivery> ReliableNetwork::drain_delivered() {
  std::vector<Delivery> out;
  out.swap(delivered_app_);
  return out;
}

bool ReliableNetwork::verify_conservation() const noexcept {
  std::uint64_t delivered = 0;
  std::uint64_t unacked = 0;
  for (const Message& m : msgs_) {
    delivered += m.delivered;
    unacked += !m.acked;
    if (m.acked && !m.delivered) {
      return false;  // an ACK can only follow a delivery
    }
  }
  // Every unacknowledged message must still be retried (live), and the
  // exactly-once count must match what the application saw.
  return delivered == delivered_count_ && unacked == live_;
}

FabricUtilization ReliableNetwork::utilization() const {
  FabricUtilization u = net_.utilization();
  u.dropped_by_vnet = dropped_by_vnet_;
  u.retransmitted_by_vnet = retransmitted_by_vnet_;
  return u;
}

}  // namespace em2
