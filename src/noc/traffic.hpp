// Protocol-packet capture: the bridge between the analytic protocol
// engines and the cycle-level fabric.
//
// The trace-driven engines (em2/trace_sim, em2ra/hybrid_sim,
// coherence/cc_sim) charge closed-form packet latencies and never touch
// the cycle-level router.  For contention calibration we need the packets
// themselves: every machine accepts an optional TrafficSink and reports
// each packet it would inject (source, destination, virtual network,
// payload bits).  The round-robin trace driver (trace/round_robin.hpp)
// stamps each recorded packet with the issuing thread's virtual clock — accumulated compute + uncontended
// network cycles — which approximates the open-loop offered load the
// M/D/1 correction (noc/contention.hpp) assumes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/types.hpp"

namespace em2 {

/// One protocol-level packet as an analytic engine would inject it.
struct TrafficEvent {
  CoreId src = 0;
  CoreId dst = 0;
  std::int32_t vnet = 0;
  std::uint64_t payload_bits = 0;
  /// Virtual injection time: the issuing thread's accumulated cycles
  /// (one per access plus its uncontended network/memory latency) at the
  /// moment the packet leaves.  Stamped by the trace driver, not the machine.
  Cycle when = 0;
};

/// Observer of individual protocol packets.  Registered on a machine via
/// set_traffic_sink(); called once per packet the protocol would inject
/// (never for src == dst, which generates no network traffic).  Runs on
/// the protocol hot path: implementations must be O(1)-ish and must not
/// re-enter the machine.
class TrafficSink {
 public:
  virtual ~TrafficSink() = default;
  virtual void on_packet(CoreId src, CoreId dst, std::int32_t vn,
                         std::uint64_t payload_bits) = 0;
};

/// Whether the trace driver may end a recorded run early (see
/// TrafficRecorder::complete).
enum class CaptureStop : bool {
  kRunToEnd,   ///< recording never changes the run: it always completes
  kWhenFinal,  ///< the run exists only for its packets: stop once final
};

/// Accumulating sink used by the calibration pass.  The machine appends
/// packets without timestamps; after each access the trace driver
/// calls stamp() to assign the issuing thread's virtual clock to everything
/// recorded since the previous stamp (an access's migration, its
/// eviction, or its remote request/reply pair all depart together).
///
/// A capped recorder keeps only the `cap` earliest packets by (virtual
/// time, record order) — O(cap) memory on arbitrarily long recordings.
/// Batch compaction with a stable sort makes the kept set exactly what
/// an unbounded recording followed by a stable time-sort + truncation
/// would keep: stable_sort puts survivors into the (when, record-order)
/// total order, later arrivals append after them, and re-sorting the
/// union resolves every tie old-first — i.e. by record order.
class TrafficRecorder final : public TrafficSink {
 public:
  /// `cap` = 0 records everything (the estimated path integrates the
  /// whole run); the measured path caps at its calibration budget and
  /// passes CaptureStop::kWhenFinal, since it discards the run's report.
  explicit TrafficRecorder(std::uint64_t cap = 0,
                           CaptureStop stop = CaptureStop::kRunToEnd)
      : cap_(cap), stop_(stop) {}

  void on_packet(CoreId src, CoreId dst, std::int32_t vn,
                 std::uint64_t payload_bits) override {
    events_.push_back(TrafficEvent{src, dst, vn, payload_bits, 0});
  }

  /// Timestamps every packet recorded since the previous stamp().
  void stamp(Cycle when) {
    for (std::size_t i = stamped_; i < events_.size(); ++i) {
      events_[i].when = when;
    }
    stamped_ = events_.size();
    if (cap_ > 0 && events_.size() >= 2 * cap_) {
      compact();
    }
  }

  /// Asked by the round-robin trace driver after each round, with
  /// `min_clock` the smallest virtual clock, after the round, among the
  /// threads that had an access in it: true iff the walk may stop because
  /// no packet it could still record can enter the kept set.  That holds
  /// once min_clock reaches the stamp T of the cap-th earliest packet at
  /// the last compaction: per-thread clocks never decrease, so every
  /// later packet is stamped >= T, and it loses the tie to the cap
  /// packets already at or before T because it is recorded after them.
  /// Never true for CaptureStop::kRunToEnd, nor, while any thread still
  /// runs, before the first compaction.
  bool complete(Cycle min_clock) const noexcept {
    return stop_ == CaptureStop::kWhenFinal && min_clock >= final_at_;
  }

  std::vector<TrafficEvent>& events() noexcept { return events_; }
  const std::vector<TrafficEvent>& events() const noexcept {
    return events_;
  }

 private:
  void compact() {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const TrafficEvent& a, const TrafficEvent& b) {
                       return a.when < b.when;
                     });
    events_.resize(static_cast<std::size_t>(cap_));
    stamped_ = events_.size();
    final_at_ = events_.back().when;
  }

  std::uint64_t cap_ = 0;
  CaptureStop stop_ = CaptureStop::kRunToEnd;
  /// Stamp of the cap-th earliest packet as of the last compaction;
  /// unreachable until the first one.
  Cycle final_at_ = std::numeric_limits<Cycle>::max();
  std::vector<TrafficEvent> events_;
  std::size_t stamped_ = 0;
};

}  // namespace em2
