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
#include <utility>
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

/// Accumulating sink used by the calibration pass.  The machine reports
/// packets without timestamps; after each access the trace driver calls
/// stamp() to assign the issuing thread's virtual clock to everything
/// reported since the previous stamp (an access's migration, its
/// eviction, or its remote request/reply pair all depart together).
///
/// A capped recorder keeps only the `cap` earliest packets by (virtual
/// time, record order): exactly what an unbounded recording followed by
/// a stable time-sort and truncation would keep.  It holds them in a
/// bounded max-heap on that key, so at any moment it holds at most `cap`
/// events (40 bytes each with their record index) plus the packets of the
/// access being recorded, and a packet that cannot enter the kept set is
/// dropped as soon as it is stamped.  events() sorts the heap once.
class TrafficRecorder final : public TrafficSink {
 public:
  /// `cap` = 0 records everything (the estimated path integrates the
  /// whole run); the measured path caps at its calibration budget and
  /// passes CaptureStop::kWhenFinal, since it discards the run's report.
  explicit TrafficRecorder(std::uint64_t cap = 0,
                           CaptureStop stop = CaptureStop::kRunToEnd)
      : cap_(cap), stop_(stop) {}

  /// Out of line, like stamp(): LTO would otherwise inline it into the
  /// per-access loops at every machine's sink call, where it only bloats
  /// the runs that record nothing.
  EM2_NOINLINE void on_packet(CoreId src, CoreId dst, std::int32_t vn,
                              std::uint64_t payload_bits) override {
    pending_.push_back(TrafficEvent{src, dst, vn, payload_bits, 0});
  }

  /// Timestamps every packet reported since the previous stamp() and
  /// records it (or, capped, drops it if it cannot be kept).
  EM2_NOINLINE void stamp(Cycle when) {
    for (TrafficEvent& e : pending_) {
      e.when = when;
      keep(e);
    }
    pending_.clear();
  }

  /// Asked by the round-robin trace driver after each round, with
  /// `min_clock` the smallest virtual clock, after the round, among the
  /// threads that had an access in it: true iff the walk may stop because
  /// no packet it could still record can enter the kept set.  That holds
  /// once the recorder keeps `cap` packets and min_clock reaches the stamp
  /// T of the latest of them: per-thread clocks never decrease, so every
  /// later packet is stamped >= T, and it loses the tie to the packets
  /// already kept because it is recorded after them.  Never true for
  /// CaptureStop::kRunToEnd, nor, while any thread still runs, before the
  /// recorder holds `cap` packets.
  bool complete(Cycle min_clock) const noexcept {
    return stop_ == CaptureStop::kWhenFinal && cap_ > 0 &&
           events_.size() == cap_ && min_clock >= latest_kept().when;
  }

  /// The recorded packets: in record order when uncapped, in (virtual
  /// time, record order) when capped.
  std::vector<TrafficEvent>& events() {
    if (cap_ > 0 && !sorted_) {
      // Heapsort in place: move the latest kept packet behind the heap.
      for (std::size_t n = events_.size(); n > 1; --n) {
        swap_kept(0, n - 1);
        sift_down(0, n - 1);
      }
      sorted_ = true;
    }
    return events_;
  }

 private:
  void keep(const TrafficEvent& e) {
    const std::uint64_t order = recorded_++;
    if (cap_ == 0) {
      events_.push_back(e);
      return;
    }
    if (sorted_) {
      // A descending array is a max-heap.
      std::reverse(events_.begin(), events_.end());
      std::reverse(order_.begin(), order_.end());
      sorted_ = false;
    }
    if (events_.size() < cap_) {
      if (events_.size() == events_.capacity()) {
        // Grow by doubling, but never past the cap.
        const std::size_t room = std::min<std::uint64_t>(
            cap_, std::max<std::size_t>(16, 2 * events_.capacity()));
        events_.reserve(room);
        order_.reserve(room);
      }
      events_.push_back(e);
      order_.push_back(order);
      sift_up(events_.size() - 1);
    } else if (e.when < events_.front().when) {
      // Recorded after every kept packet, `e` loses each tie: it
      // displaces the latest kept packet only with a strictly earlier
      // stamp.
      events_.front() = e;
      order_.front() = order;
      sift_down(0, events_.size());
    }
  }

  const TrafficEvent& latest_kept() const noexcept {
    return sorted_ ? events_.back() : events_.front();
  }

  /// Kept packet `a` is later than `b` in (virtual time, record order).
  bool later(std::size_t a, std::size_t b) const noexcept {
    return events_[a].when != events_[b].when
               ? events_[a].when > events_[b].when
               : order_[a] > order_[b];
  }
  void swap_kept(std::size_t a, std::size_t b) noexcept {
    std::swap(events_[a], events_[b]);
    std::swap(order_[a], order_[b]);
  }
  void sift_up(std::size_t i) noexcept {
    while (i > 0 && later(i, (i - 1) / 2)) {
      swap_kept(i, (i - 1) / 2);
      i = (i - 1) / 2;
    }
  }
  /// Restores the max-heap over the first `n` kept packets below `i`.
  void sift_down(std::size_t i, std::size_t n) noexcept {
    for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n && later(child + 1, child)) {
        ++child;
      }
      if (!later(child, i)) {
        return;
      }
      swap_kept(i, child);
      i = child;
    }
  }

  std::uint64_t cap_ = 0;
  CaptureStop stop_ = CaptureStop::kRunToEnd;
  /// Uncapped: every stamped packet in record order.  Capped: the kept
  /// packets, a max-heap on (when, record order) until events() sorts
  /// them ascending (`sorted_`); order_ holds each one's record index.
  std::vector<TrafficEvent> events_;
  std::vector<std::uint64_t> order_;
  bool sorted_ = false;
  /// Reported since the last stamp().
  std::vector<TrafficEvent> pending_;
  std::uint64_t recorded_ = 0;
};

}  // namespace em2
