// TraceSource: the pull-based access-stream abstraction the trace-mode
// engines run against.
//
// The paper's model "assumes knowledge of the full memory trace"; the
// engines do not — they only ever consume each thread's accesses in
// program order, one per round-robin turn of the trace driver
// (trace/round_robin.hpp).  TraceSource captures exactly that contract:
// per-thread metadata plus a forward cursor, implemented by an in-memory
// TraceSet (MemoryTraceSource, zero-copy) or by an on-disk EM2S file
// (TraceStream in reader.hpp, bounded-memory batches).  The one driver
// serves both, so streamed and in-memory runs are the same code path and
// their reports are byte-identical by construction.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>

#include "trace/trace.hpp"
#include "util/types.hpp"

namespace em2 {

/// Forward iterator over one thread's accesses.  next() is non-virtual
/// and inlines to a pointer bump in the common case; implementations only
/// pay an indirect call per exhausted batch (refill), so the in-memory
/// path costs the same as indexing the ThreadTrace vector directly.
class AccessCursor {
 public:
  virtual ~AccessCursor() = default;
  AccessCursor(const AccessCursor&) = delete;
  AccessCursor& operator=(const AccessCursor&) = delete;

  /// The next access in program order, or nullptr at end of stream.  The
  /// pointee stays valid until the next next() call on this cursor.
  EM2_ALWAYS_INLINE const Access* next() {
    if (cur_ != end_) {
      return cur_++;
    }
    return advance();
  }

 protected:
  AccessCursor() = default;

  /// Loads the next non-empty batch into [cur_, end_); leaves them equal
  /// at end of stream.  May throw (e.g. TraceFormatError on a corrupt
  /// chunk).
  virtual void refill() = 0;

  const Access* cur_ = nullptr;
  const Access* end_ = nullptr;

 private:
  EM2_NOINLINE const Access* advance() {
    if (done_) {
      return nullptr;
    }
    refill();
    if (cur_ == end_) {
      done_ = true;
      return nullptr;
    }
    return cur_++;
  }

  bool done_ = false;
};

/// An application trace the engines can run: per-thread natives and
/// cursors plus the block geometry placement operates on.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  std::size_t num_threads() const noexcept { return num_threads_; }
  std::uint32_t block_bytes() const noexcept { return block_bytes_; }

  /// Maps a byte address to its placement block, matching
  /// TraceSet::block_of.
  Addr block_of(Addr addr) const noexcept { return addr >> block_shift_; }

  virtual CoreId native_core(std::size_t thread) const = 0;
  virtual std::uint64_t total_accesses() const = 0;

  /// A fresh cursor at the start of `thread`'s stream.  Cursors are
  /// independent: a source must support any number of them, concurrently
  /// (each engine run opens its own set).
  virtual std::unique_ptr<AccessCursor> make_cursor(
      std::size_t thread) const = 0;

  /// The backing TraceSet when this source is an in-memory view, else
  /// nullptr.  Exec and optimal modes need the whole trace (program
  /// compilation / DP over full sequences); a streamed source without a
  /// backing set is materialized for them instead.
  virtual const TraceSet* backing_traces() const { return nullptr; }

  /// Applies a total resident-memory budget in bytes for this source's
  /// read-side buffers (0 = unlimited).  In-memory sources ignore it;
  /// TraceStream divides it across per-thread cursors and throws
  /// std::invalid_argument below min_stream_window().  Const because the
  /// budget is a read-side tuning knob, not trace content — RunSpec
  /// carries it per run.
  virtual void set_stream_window(std::uint64_t bytes) const {
    (void)bytes;
  }
  /// Smallest accepted non-zero stream window (0 for in-memory sources).
  virtual std::uint64_t min_stream_window() const { return 0; }

  /// Reader-buffer accounting: bytes currently resident / high-water
  /// mark.  The bounded-memory acceptance tests assert peak <= window
  /// against these numbers.  Always 0 for in-memory sources (the trace
  /// itself is the caller's allocation, not the reader's).
  virtual std::uint64_t resident_trace_bytes() const { return 0; }
  virtual std::uint64_t peak_resident_trace_bytes() const { return 0; }

 protected:
  TraceSource() = default;
  TraceSource(std::size_t num_threads, std::uint32_t block_bytes) {
    init_geometry(num_threads, block_bytes);
  }

  /// For implementations that learn the geometry after construction
  /// (e.g. by parsing a file header).
  void init_geometry(std::size_t num_threads, std::uint32_t block_bytes) {
    num_threads_ = num_threads;
    block_bytes_ = block_bytes;
    block_shift_ =
        static_cast<std::uint32_t>(std::countr_zero(block_bytes));
  }

 private:
  std::size_t num_threads_ = 0;
  std::uint32_t block_bytes_ = 64;
  std::uint32_t block_shift_ = 6;
};

/// Zero-copy TraceSource view over a TraceSet the caller keeps alive.
class MemoryTraceSource final : public TraceSource {
 public:
  explicit MemoryTraceSource(const TraceSet& traces)
      : TraceSource(traces.num_threads(), traces.block_bytes()),
        traces_(traces) {}

  CoreId native_core(std::size_t thread) const override {
    return traces_.thread(thread).native_core();
  }
  std::uint64_t total_accesses() const override {
    return traces_.total_accesses();
  }
  std::unique_ptr<AccessCursor> make_cursor(
      std::size_t thread) const override;
  const TraceSet* backing_traces() const override { return &traces_; }

 private:
  const TraceSet& traces_;
};

}  // namespace em2
