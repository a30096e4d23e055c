// The round-robin trace driver: the one deterministic interleave every
// trace-mode consumer replays (the em2, em2 + ro-replication, em2-ra and
// cc engines, and first-touch placement).
//
// Threads start together and each issues one access per round, threads
// in id order, until every cursor is exhausted — the deterministic
// stand-in for concurrent execution.  The driver also owns the
// contention-calibration capture protocol: per-thread virtual clocks,
// the stamp of each access's packets, and the early stop of a
// capture-only run (TrafficRecorder::complete).
#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "noc/traffic.hpp"
#include "trace/trace.hpp"

namespace em2 {

/// Every thread's native core, in thread order.
inline std::vector<CoreId> native_cores(const TraceSource& traces) {
  std::vector<CoreId> native;
  native.reserve(traces.num_threads());
  for (std::size_t t = 0; t < traces.num_threads(); ++t) {
    native.push_back(traces.native_core(t));
  }
  return native;
}

/// Replays `traces` round-robin, calling `step(t, access)` for thread t's
/// next access.  `step` returns the cycles the access took: one cycle of
/// compute plus its uncontended network/memory latency.
///
/// With a non-null `recorder` (which the step's machine reports packets
/// to) the driver keeps one virtual clock per thread: every packet
/// recorded during a step is stamped with its thread's clock from before
/// the access, which then advances by the step's cycles — the open-loop
/// injection schedule the fabric replay uses.  After each round the
/// driver asks recorder->complete() with the smallest post-round clock
/// among the threads that had an access, and ends the walk once it says
/// every packet the recorder keeps is final.  A null recorder, or one
/// built with CaptureStop::kRunToEnd, always walks to the end.
template <typename Step>
void for_each_round_robin(const TraceSource& traces,
                          TrafficRecorder* recorder, Step&& step) {
  const std::size_t nthreads = traces.num_threads();
  std::vector<std::unique_ptr<AccessCursor>> cursor;
  cursor.reserve(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    cursor.push_back(traces.make_cursor(t));
  }
  std::vector<Cycle> clock(recorder != nullptr ? nthreads : 0, 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    Cycle round_min = std::numeric_limits<Cycle>::max();
    for (std::size_t t = 0; t < nthreads; ++t) {
      const Access* a = cursor[t]->next();
      if (a == nullptr) {
        continue;
      }
      progressed = true;
      const Cycle took = step(t, *a);
      if (recorder != nullptr) {
        recorder->stamp(clock[t]);
        clock[t] += took;
        round_min = std::min(round_min, clock[t]);
      }
    }
    if (recorder != nullptr && recorder->complete(round_min)) {
      break;  // a capture-only run: every packet it keeps is recorded
    }
  }
}

}  // namespace em2
