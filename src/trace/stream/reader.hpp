// TraceStream: the bounded-memory EM2S reader.
//
// Opening a stream parses and authenticates only the fixed-size header
// and the CRC-protected footer (chunk index); access payloads stay on
// disk.  Each ThreadCursor then decodes its thread's chunks one batch at
// a time into a small buffer sized from the stream window, so the peak
// resident footprint of a run is window-bounded no matter how large the
// trace is: budget-per-cursor = stream_window / num_threads, of which
// half holds decoded accesses and a quarter stages raw file bytes (the
// remainder is slack for the transient codec buffers).
//
// Byte acquisition has two backends behind one decode path: mmap when
// available (zero-copy; varints decode straight out of the page cache)
// and a plain buffered-ifstream fallback (portable; also selectable via
// Options::force_istream, which the parity tests use).  Reports from
// either backend are byte-identical — only how bytes reach the decoder
// differs.
//
// Every way a file can lie throws TraceFormatError naming the defect:
// truncation anywhere destroys the trailer; footer corruption fails the
// trailer CRC; a chunk header that disagrees with the authenticated
// index is named field-by-field; payload corruption fails the per-chunk
// CRC; varints that overrun or overflow, record counts that cannot fit
// their payload, and chunk-count/total mismatches are all rejected at
// open or first touch.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/stream/format.hpp"
#include "trace/trace.hpp"

namespace em2 {

class TraceStream final : public TraceSource {
 public:
  struct Options {
    /// Skip the mmap backend even where available (parity testing,
    /// diagnostics).
    bool force_istream = false;
  };

  /// Opens and validates `path` (header, trailer, footer CRC, full chunk
  /// index).  Throws TraceFormatError on any defect.
  TraceStream(const std::string& path, const Options& opts);
  explicit TraceStream(const std::string& path)
      : TraceStream(path, Options{}) {}
  ~TraceStream() override;

  CoreId native_core(std::size_t thread) const override;
  std::uint64_t total_accesses() const override {
    return total_accesses_;
  }
  std::unique_ptr<AccessCursor> make_cursor(
      std::size_t thread) const override;

  /// Hard budget for this stream's read-side buffers, divided evenly
  /// across per-thread cursors (0 = unlimited: cursors use a fixed
  /// default batch size instead).  Applies to cursors created after the
  /// call.  Throws std::invalid_argument for a non-zero window below
  /// min_stream_window().
  void set_stream_window(std::uint64_t bytes) const override;
  std::uint64_t stream_window() const noexcept {
    return window_.load(std::memory_order_relaxed);
  }
  std::uint64_t min_stream_window() const override {
    return static_cast<std::uint64_t>(num_threads()) * kMinCursorBytes;
  }

  std::uint64_t resident_trace_bytes() const override {
    return resident_.load(std::memory_order_relaxed);
  }
  std::uint64_t peak_resident_trace_bytes() const override {
    return peak_.load(std::memory_order_relaxed);
  }

  bool using_mmap() const noexcept { return map_ != nullptr; }
  std::uint64_t file_bytes() const noexcept { return file_size_; }
  std::uint32_t version() const noexcept { return version_; }

  /// Smallest per-cursor budget: below this a cursor cannot hold one
  /// decode batch plus its staging buffer.
  static constexpr std::uint64_t kMinCursorBytes = 4096;
  /// Per-cursor budget when the window is unlimited (0).
  static constexpr std::uint64_t kDefaultCursorBytes = 256 * 1024;

 private:
  friend class ThreadCursor;

  struct ThreadMeta {
    CoreId native = kNoCore;
    std::uint64_t total_records = 0;
    std::vector<em2s::ChunkMeta> chunks;
  };

  void charge(std::uint64_t bytes) const;
  void release(std::uint64_t bytes) const;

  std::string path_;
  std::uint64_t file_size_ = 0;
  std::uint32_t version_ = 0;
  std::uint64_t total_accesses_ = 0;
  std::vector<ThreadMeta> threads_;

  /// mmap backend state (null when the ifstream fallback is active).
  const std::uint8_t* map_ = nullptr;
  std::uint64_t map_len_ = 0;
  int fd_ = -1;

  mutable std::atomic<std::uint64_t> window_{0};
  mutable std::atomic<std::uint64_t> resident_{0};
  mutable std::atomic<std::uint64_t> peak_{0};
};

}  // namespace em2
