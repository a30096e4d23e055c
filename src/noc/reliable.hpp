// Reliable transport over the lossy cycle-level mesh: positive ACKs, a
// retransmission timer with exponential backoff, and receiver-side
// deduplication, so every message is delivered to the application exactly
// once even when the fault injector discards packets.
//
// Loss model: a packet is dropped AT EJECTION — it traversed (and
// occupied) every link of its path first, so lost traffic still loads the
// fabric, exactly the property the contention correction needs to price
// retransmission load into the corrected cost tables.  The drop draw is
// the injector's stateless (transport id, attempt) hash, so a given
// (spec, seed) loses the identical packets on every replay.
//
// ACKs are single-flit headers travelling back on the SAME vnet as their
// data packet.  On this fabric that cannot deadlock: ejection is an
// infinite sink (consumption is guaranteed by construction), so a
// request-reply dependency never backs up into the network.  ACKs are
// themselves droppable; the receiver re-ACKs every duplicate, so a lost
// ACK only costs one spurious retransmission.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "noc/network.hpp"
#include "sim/faults.hpp"

namespace em2 {

/// Reliable exactly-once message layer over Network.  Usage mirrors the
/// raw fabric: send() any number of messages, step() once per cycle,
/// consume application-level deliveries via drain_delivered().  The
/// injector must outlive the transport.
class ReliableNetwork {
 public:
  /// `base_timeout` is the attempt-0 retransmission timeout in cycles;
  /// 0 auto-derives max(spec.retry_timeout, a mesh-round-trip bound) so
  /// small spec timeouts on big meshes do not retransmit packets that
  /// are merely still in flight.  Attempt k waits
  /// (base_timeout + flits) << min(k, 6).
  ReliableNetwork(const Mesh& mesh, const NetworkParams& params,
                  const FaultInjector& faults, Cycle base_timeout = 0);

  /// Queues one reliable message; returns its transport id.  `token` is
  /// returned in the application-level Delivery (whose Packet::id is the
  /// transport id).
  std::uint64_t send(CoreId src, CoreId dst, std::int32_t vnet,
                     std::int32_t flits, std::uint64_t token = 0);

  /// Advances the fabric one cycle, processes ejections (drops, dedup,
  /// ACK generation) and fires due retransmission timers.
  void step();

  /// Runs until the transport fully quiesces (every message delivered
  /// AND acknowledged, fabric empty) or `max_cycles` elapse; returns
  /// true iff quiesced.  Total loss (drop_rate == 1) therefore cannot
  /// hang — it returns false at the bound.
  bool run_until_drained(Cycle max_cycles);

  /// Exactly-once application deliveries since the last drain.
  /// Delivery::injected is the FIRST attempt's send cycle, so the
  /// latency includes every retransmission round.
  std::vector<Delivery> drain_delivered();

  /// Calls `f(const Delivery&)` for each application-level delivery since
  /// the last drain, then forgets them (keeping the buffer's capacity).
  /// `f` must not re-enter the transport.
  template <typename F>
  void drain_delivered(F&& f) {
    for (const Delivery& d : delivered_app_) {
      f(d);
    }
    delivered_app_.clear();
  }

  Cycle now() const noexcept { return net_.now(); }
  /// Fully quiesced: nothing unacknowledged and the fabric is empty.
  bool idle() const noexcept { return live_ == 0 && net_.idle(); }
  /// Messages sent but not yet acknowledged (the closed-loop window's
  /// in-flight count).
  std::uint64_t live_messages() const noexcept { return live_; }

  std::uint64_t messages_sent() const noexcept { return msgs_.size(); }
  std::uint64_t messages_delivered() const noexcept {
    return delivered_count_;
  }
  /// Packets lost at ejection (data + ACKs).
  std::uint64_t drops() const noexcept { return drops_; }
  /// Data retransmissions (attempts beyond each first).
  std::uint64_t retransmissions() const noexcept { return retransmissions_; }
  /// Duplicate data deliveries suppressed by receiver dedup.
  std::uint64_t duplicates() const noexcept { return duplicates_; }

  /// No-lost-message accounting: an acknowledged message was delivered,
  /// and an undelivered message still has a live retransmission timer.
  /// Checked cheaply at any time; tests assert it at quiescence.
  bool verify_conservation() const noexcept;

  /// Fabric utilization with the per-vnet drop/retransmit counters
  /// filled in — what the measured-contention calibration consumes.
  FabricUtilization utilization() const;

  const Network& fabric() const noexcept { return net_; }

 private:
  struct Message {
    CoreId src = 0;
    CoreId dst = 0;
    std::int32_t vnet = 0;
    std::int32_t flits = 1;
    std::uint64_t token = 0;
    Cycle first_injected = 0;
    std::uint32_t attempt = 0;  ///< latest attempt number
    bool delivered = false;
    bool acked = false;
  };
  struct Timeout {
    Cycle deadline = 0;
    std::uint64_t tid = 0;
    std::uint32_t attempt = 0;
    /// Min-heap on (deadline, tid) — tid tiebreak keeps firing order
    /// deterministic.
    friend bool operator>(const Timeout& a, const Timeout& b) noexcept {
      return a.deadline != b.deadline ? a.deadline > b.deadline
                                      : a.tid > b.tid;
    }
  };

  void transmit(std::uint64_t tid, std::uint32_t attempt);
  void on_eject(const Delivery& d);
  Cycle timeout_for(const Message& m, std::uint32_t attempt) const noexcept;

  Network net_;
  const FaultInjector& faults_;
  Cycle base_timeout_ = 0;
  std::vector<Message> msgs_;
  std::priority_queue<Timeout, std::vector<Timeout>, std::greater<>>
      timers_;
  std::vector<Delivery> delivered_app_;
  std::vector<std::uint64_t> dropped_by_vnet_;
  std::vector<std::uint64_t> retransmitted_by_vnet_;
  std::uint64_t live_ = 0;
  std::uint64_t delivered_count_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace em2
