// Workload: ONE handle per named workload that runs in every mode from
// one memory trace — same seed, same logical access stream.
//
// The paper's claims are about *programs* whose computation migrates, but
// the registry kernels produce TraceSets.  The trace IS the specification
// of the program's memory behaviour: exec mode replays each thread's
// trace on the register machine through a ReplayCursor
// (workload/replay.hpp), which yields the replay program (same addresses,
// same ops, same order, `gap` filler instructions preserved) one
// instruction at a time without materializing it.  So the trace-driven
// and execution-driven modes of System::run see the same logical
// workload and their access mixes are directly comparable.  programs()
// drains the same cursors into a stored program suite for callers that
// drive ExecSystem with programs of their own.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/reg_isa.hpp"
#include "trace/trace.hpp"
#include "util/types.hpp"
#include "workload/replay.hpp"

namespace em2::workload {

/// A named workload at a fixed (threads, scale, seed) operating point,
/// carrying its trace.  Handles are cheap to copy (the trace is
/// shared, immutable) and safe to use concurrently from sweep workers.
class Workload {
 public:
  Workload(std::string name, std::int32_t threads, std::int32_t scale,
           std::uint64_t seed, TraceSet traces);

  const std::string& name() const noexcept { return name_; }
  std::int32_t threads() const noexcept { return threads_; }
  std::int32_t scale() const noexcept { return scale_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// The shared logical access stream (generated once, at construction).
  const TraceSet& traces() const noexcept { return *traces_; }

  /// The owning handle to the trace — copies of a Workload share it, so
  /// its address is a stable identity for caches keyed by trace content
  /// (System pins it in its placement cache to rule out address reuse).
  const std::shared_ptr<const TraceSet>& shared_traces() const noexcept {
    return traces_;
  }

  /// The replay programs as a stored suite, one per thread
  /// (compile_replay_programs over the same traces; pure function,
  /// thread-safe).  System::run does not call it: exec mode replays the
  /// traces in place.
  std::vector<RProgram> programs() const {
    return compile_replay_programs(*traces_);
  }

  /// Human-readable identity string ("name@threads/scale/seed") for
  /// report labels and logs.  NOT a cache key: the constructor is public
  /// and accepts arbitrary traces, so two distinct Workloads may share
  /// this string — caches key on shared_traces() instead.
  std::string identity() const;

 private:
  std::string name_;
  std::int32_t threads_;
  std::int32_t scale_;
  std::uint64_t seed_;
  std::shared_ptr<const TraceSet> traces_;
};

}  // namespace em2::workload
