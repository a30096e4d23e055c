// Memory traces: the substrate of the paper's analytical model.
//
// Section 3 of the paper assumes "knowledge of the full memory trace of the
// application as well as the address-to-core data placement".  A TraceSet
// holds one ThreadTrace per thread; each access record carries the operation
// kind, byte address, and the number of non-memory instructions executed
// since the previous access (used by the execution-driven simulator for
// timing, and by cost accounting for instructions executed at remote cores).
//
// A ThreadTrace stores its accesses in one of two layouts.  Narrow: 4
// bytes per access.  The thread keeps up to four region bases (the address
// with its low 24 bits cleared), and each record packs the region index,
// the gap (0-31), the op and the 24-bit offset into the region; every
// registry workload fits.  Wide: the 16-byte Access itself.  A thread is
// narrow until it appends an access that needs a fifth region or a gap
// above 31, and then re-lays itself out wide once.  TraceSet::add_thread
// trims each thread to exact capacity.  Only this module knows the narrow
// encoding; callers see Access values.
//
// The trace-mode engines do not need the full trace: they consume each
// thread's accesses in program order, one per round-robin turn of the
// trace driver (trace/round_robin.hpp).  TraceSource captures exactly that
// contract — per-thread metadata plus a forward AccessCursor — and has two
// implementations: TraceSet itself (cursors that decode a narrow thread
// 64 accesses at a time and walk a wide one in place) and the on-disk
// EM2S reader TraceStream (trace/stream/reader.hpp, bounded-memory
// batches).  One driver serves both, so streamed and in-memory runs are
// the same code path and their reports are byte-identical by
// construction.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace em2 {

/// One memory access in a thread's dynamic instruction stream.
struct Access {
  Addr addr = 0;
  MemOp op = MemOp::kRead;
  /// Non-memory instructions executed after the previous access and before
  /// this one (the paper's "possibly other non-memory instructions").
  std::uint32_t gap = 0;

  friend bool operator==(const Access&, const Access&) = default;
};

namespace detail {
class MemoryCursor;
}  // namespace detail

/// The dynamic memory-access sequence of a single thread, narrow or wide
/// (see the file comment).
class ThreadTrace {
 private:
  /// The narrow record, high bits first: region(2) | gap(5) | op(1) |
  /// offset(24).  The address is the region's base plus the offset.
  using Packed = std::uint32_t;
  static constexpr int kOffsetBits = 24;
  static constexpr Addr kOffsetMask = (Addr{1} << kOffsetBits) - 1;
  static constexpr std::uint32_t kRegions = 4;
  static constexpr std::uint32_t kNarrowMaxGap = 31;
  static_assert(static_cast<std::uint32_t>(MemOp::kWrite) == 1,
                "the narrow layout keeps the op in one bit");
  using Bases = std::array<Addr, kRegions>;

  static Access unpack(Packed p, const Bases& bases) noexcept {
    return Access{bases[p >> 30] + (p & kOffsetMask),
                  static_cast<MemOp>(p >> kOffsetBits & 1),
                  p >> (kOffsetBits + 1) & kNarrowMaxGap};
  }

 public:
  ThreadTrace() = default;
  ThreadTrace(ThreadId thread, CoreId native_core)
      : thread_(thread), native_core_(native_core) {}

  ThreadId thread() const noexcept { return thread_; }

  /// The core this thread originated on: where its native hardware context
  /// and (for stack-EM2) its stack memory live.
  CoreId native_core() const noexcept { return native_core_; }

  void append(Access a) {
    max_addr_ = a.addr > max_addr_ ? a.addr : max_addr_;
    if (wide_.empty()) {
      if (a.gap <= kNarrowMaxGap) {
        const std::uint32_t region = region_of(a.addr);
        if (region < kRegions) {
          narrow_.push_back(region << 30 | a.gap << (kOffsetBits + 1) |
                            static_cast<std::uint32_t>(a.op) << kOffsetBits |
                            static_cast<std::uint32_t>(a.addr & kOffsetMask));
          return;
        }
      }
      widen();
    }
    wide_.push_back(a);
  }
  void append(Addr addr, MemOp op, std::uint32_t gap = 0) {
    append(Access{addr, op, gap});
  }

  std::size_t size() const noexcept {
    return wide_.empty() ? narrow_.size() : wide_.size();
  }
  bool empty() const noexcept { return size() == 0; }
  Access operator[](std::size_t i) const noexcept {
    return wide_.empty() ? unpack(narrow_[i], bases_) : wide_[i];
  }

  /// Calls f(const Access&) for each access in program order.
  template <class F>
  void for_each(F&& f) const {
    if (wide_.empty()) {
      for (const Packed p : narrow_) {
        f(unpack(p, bases_));
      }
    } else {
      for (const Access& a : wide_) {
        f(a);
      }
    }
  }

  /// Reads accesses by index straight from the storage, without going
  /// through the ThreadTrace: for a loop that holds its place in the
  /// thread across calls.  Holds the region bases by value, so it stays
  /// valid when the ThreadTrace itself moves; not after the next append.
  class Reader {
   public:
    Access operator[](std::size_t i) const noexcept {
      return narrow_ != nullptr ? unpack(narrow_[i], bases_) : wide_[i];
    }

   private:
    friend class ThreadTrace;
    const Packed* narrow_ = nullptr;
    const Access* wide_ = nullptr;
    Bases bases_{};
  };
  Reader reader() const noexcept {
    Reader r;
    if (wide_.empty()) {
      r.narrow_ = narrow_.data();
      r.bases_ = bases_;
    } else {
      r.wide_ = wide_.data();
    }
    return r;
  }

  /// The largest address appended; 0 for an empty thread.
  Addr max_addr() const noexcept { return max_addr_; }

  /// Whether the thread holds 16-byte records (an access needed a fifth
  /// region or a gap above 31, so it outgrew the 4-byte layout).
  bool wide() const noexcept { return !wide_.empty(); }

  /// Bytes the record storage holds, spare capacity included.
  std::size_t storage_bytes() const noexcept {
    return narrow_.capacity() * sizeof(Packed) +
           wide_.capacity() * sizeof(Access);
  }

 private:
  friend class detail::MemoryCursor;
  friend class TraceSet;

  /// Releases the spare capacity appends left behind.
  void shrink_to_fit() {
    narrow_.shrink_to_fit();
    wide_.shrink_to_fit();
  }

  /// The index of the region holding `addr`, claiming a free one if
  /// needed; kRegions when all four hold other bases.
  std::uint32_t region_of(Addr addr) noexcept {
    const Addr base = addr & ~kOffsetMask;
    std::uint32_t r = 0;
    while (r < regions_ && bases_[r] != base) {
      ++r;
    }
    if (r == regions_ && r < kRegions) {
      bases_[regions_++] = base;
    }
    return r;
  }

  /// Moves every narrow record into wide_ and frees narrow_.  The caller
  /// appends the access that did not fit, so wide_ is non-empty after.
  void widen();

  ThreadId thread_ = kNoThread;
  CoreId native_core_ = kNoCore;
  Addr max_addr_ = 0;
  // Exactly one layout holds the accesses: wide_ once it is non-empty,
  // else narrow_, whose records index bases_[0, regions_).
  std::vector<Packed> narrow_;
  std::vector<Access> wide_;
  Bases bases_{};
  std::uint32_t regions_ = 0;
};

/// Forward iterator over one thread's accesses.  next() is non-virtual
/// and inlines to a pointer bump in the common case; implementations only
/// pay an indirect call per exhausted batch (refill): every 64 accesses
/// of a narrow in-memory thread, which the refill decodes into the
/// cursor's own batch, and never for a wide one, walked in place.
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

class TraceSet;

/// An application trace the engines can run: per-thread natives and
/// cursors plus the block geometry placement operates on.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  std::size_t num_threads() const noexcept { return num_threads_; }

  /// Cache-line size used to map byte addresses to placement blocks.
  /// A power of two.
  std::uint32_t block_bytes() const noexcept { return block_bytes_; }

  /// Maps a byte address to its placement block (line) index.
  Addr block_of(Addr addr) const noexcept { return addr >> block_shift_; }

  virtual CoreId native_core(std::size_t thread) const = 0;

  /// Total access count across all threads.
  virtual std::uint64_t total_accesses() const = 0;

  /// A fresh cursor at the start of `thread`'s stream.  Cursors are
  /// independent: a source must support any number of them, concurrently
  /// (each engine run opens its own set).
  virtual std::unique_ptr<AccessCursor> make_cursor(
      std::size_t thread) const = 0;

  /// The source itself when it is an in-memory TraceSet, else nullptr.
  /// Exec and optimal modes need the whole trace (program compilation /
  /// DP over full sequences); a streamed source is materialized for them
  /// instead.
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
  TraceSource(const TraceSource&) = default;
  TraceSource& operator=(const TraceSource&) = default;

  /// Sets the geometry; for implementations that learn it after
  /// construction (a file header, a growing TraceSet).  `block_bytes`
  /// must be a power of two.
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

/// A whole-application trace in memory: one ThreadTrace per thread, plus
/// the block (cache-line) size that placement operates on.  As a
/// TraceSource its cursors decode narrow threads in 64-access batches and
/// walk wide threads in place.
class TraceSet final : public TraceSource {
 public:
  explicit TraceSet(std::uint32_t block_bytes = 64);

  /// Adds a thread trace; thread ids must be dense and added in order.
  void add_thread(ThreadTrace trace);

  const ThreadTrace& thread(std::size_t i) const noexcept {
    return threads_[i];
  }
  std::span<const ThreadTrace> threads() const noexcept { return threads_; }

  CoreId native_core(std::size_t thread) const override {
    return threads_[thread].native_core();
  }
  std::uint64_t total_accesses() const noexcept override;
  std::unique_ptr<AccessCursor> make_cursor(
      std::size_t thread) const override;
  const TraceSet* backing_traces() const override { return this; }

  /// All distinct blocks touched, sorted ascending.
  std::vector<Addr> touched_blocks() const;

 private:
  std::vector<ThreadTrace> threads_;
};

}  // namespace em2
