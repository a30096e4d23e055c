// Sequential-consistency witness for execution-driven runs.
//
// The paper: "Because each thread always accesses a given address from the
// same core, threads never disagree about the contents of memory locations
// so sequential consistency is trivially ensured."  We do not take that on
// faith: execution-driven simulations register every access in global
// simulation order with this checker, which verifies that (a) every load
// returns the value of the most recent store to that address in the global
// order (atomic memory), and (b) each address is only ever accessed at its
// home core (the EM2 single-home invariant the proof rests on).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/page_table.hpp"
#include "util/types.hpp"

namespace em2 {

/// A recorded consistency violation.
struct ConsistencyViolation {
  std::string what;
  ThreadId thread = kNoThread;
  Addr addr = 0;
};

/// Global-order memory checker.  Single-threaded by design (the simulators
/// are deterministic and serialize accesses).
class ConsistencyChecker {
 public:
  /// Registers a store of `value` to `addr` by `thread`, executed at core
  /// `at` whose home is `home`.
  void on_store(ThreadId thread, Addr addr, std::uint32_t value, CoreId at,
                CoreId home);

  /// Registers a load observing `value`; checks it equals the latest
  /// store (or 0 for never-written addresses).
  void on_load(ThreadId thread, Addr addr, std::uint32_t value, CoreId at,
               CoreId home);

  bool ok() const noexcept { return violations_.empty(); }
  const std::vector<ConsistencyViolation>& violations() const noexcept {
    return violations_;
  }
  std::uint64_t checked_accesses() const noexcept { return checked_; }

 private:
  void check_home(ThreadId thread, Addr addr, CoreId at, CoreId home);

  /// Latest stored value per byte address (0 = never written).  The
  /// witness keeps its own cells and never reads the functional memory
  /// it checks, so an indexing bug on the memory side still surfaces as
  /// a violation here.
  PageTable<std::array<std::uint32_t, kWordsPerPage>> last_value_;
  std::vector<ConsistencyViolation> violations_;
  std::uint64_t checked_ = 0;
};

}  // namespace em2
