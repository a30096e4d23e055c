// TraceWriter: append-only EM2S writer with bounded buffering.
//
// Accesses arrive in any thread interleaving; each thread's stream is
// delta/varint-encoded into a per-thread buffer that flushes to the file
// as a self-contained chunk whenever it reaches the chunk target — so
// writer memory is O(threads * chunk_bytes) no matter how long the trace
// is.  close() (or the destructor) flushes the tails and writes the
// chunk-index footer + CRC trailer that make the file seekable and
// verifiable.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "trace/stream/codec.hpp"
#include "trace/stream/format.hpp"
#include "trace/trace.hpp"
#include "util/types.hpp"

namespace em2 {

class TraceWriter {
 public:
  struct Options {
    /// Flush a thread's chunk once its raw encoding reaches this size.
    std::uint32_t chunk_bytes = 64 * 1024;
    /// Per-chunk em2z compression when set; nullptr stores payloads
    /// verbatim (codec id 0).  The pointee must outlive the writer.
    const em2s::Em2zCodec* codec = nullptr;
  };

  /// Opens `path` for writing and commits the header.  `natives[t]` is
  /// thread t's native core; the thread count is natives.size().
  TraceWriter(const std::string& path, std::uint32_t block_bytes,
              std::span<const CoreId> natives, const Options& opts);
  TraceWriter(const std::string& path, std::uint32_t block_bytes,
              std::span<const CoreId> natives)
      : TraceWriter(path, block_bytes, natives, Options{}) {}
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Appends one access to `thread`'s stream (program order per thread).
  void append(std::size_t thread, const Access& a);

  /// Flushes tails, writes footer + trailer, and closes the file.
  /// Returns false if any write failed.  Idempotent; the destructor
  /// calls it if the caller did not.
  bool close();

  bool ok() const noexcept { return ok_; }

 private:
  struct PerThread {
    CoreId native = kNoCore;
    Addr prev_addr = 0;
    std::uint32_t buffered_records = 0;
    std::uint64_t total_records = 0;
    std::vector<std::uint8_t> raw;  // encoded, pre-codec
    std::vector<em2s::ChunkMeta> chunks;
  };

  void flush_chunk(std::size_t thread);

  std::ofstream out_;
  Options opts_;
  std::vector<PerThread> threads_;
  std::uint64_t file_offset_ = 0;
  bool ok_ = true;
  bool closed_ = false;
};

}  // namespace em2
