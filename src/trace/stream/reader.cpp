#include "trace/stream/reader.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>

#include "trace/stream/codec.hpp"
#include "trace/trace_io.hpp"
#include "util/assert.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define EM2_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace em2 {
namespace {

[[noreturn]] void fail(const std::string& why) {
  throw TraceFormatError("trace stream load failed: " + why);
}

/// Bounds-checked cursor over the in-memory footer bytes.
class FooterParser {
 public:
  explicit FooterParser(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  template <typename T>
  T take(const char* what) {
    if (bytes_.size() - pos_ < sizeof(T)) {
      fail(std::string("truncated footer (while reading ") + what + ")");
    }
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

void check_block_bytes(std::uint64_t block_bytes) {
  if (block_bytes == 0 || block_bytes > (std::uint64_t{1} << 31) ||
      !std::has_single_bit(block_bytes)) {
    fail("block size must be a power of two in [1, 2^31], got " +
         std::to_string(block_bytes));
  }
}

}  // namespace

/// Per-thread EM2S cursor: walks the thread's chunk list, authenticating
/// each chunk header against the footer index and each payload against
/// its CRC, and decodes records batch-by-batch into a budget-sized
/// buffer.  One decode path serves both byte backends (mmap pointer or
/// staged ifstream reads).
class ThreadCursor final : public AccessCursor {
 public:
  ThreadCursor(const TraceStream& stream, std::size_t thread)
      : stream_(stream),
        meta_(stream.threads_[thread]),
        thread_(thread) {
    const std::uint64_t window =
        stream.window_.load(std::memory_order_relaxed);
    const std::uint64_t budget =
        window == 0 ? TraceStream::kDefaultCursorBytes
                    : window / stream.num_threads();
    const std::size_t batch_cap = static_cast<std::size_t>(
        std::max<std::uint64_t>(16, budget / 2 / sizeof(Access)));
    batch_.resize(batch_cap);
    base_charge_ = batch_cap * sizeof(Access);
    if (stream_.map_ == nullptr) {
      in_.open(stream_.path_, std::ios::binary);
      if (!in_) {
        fail("cannot reopen " + stream_.path_);
      }
      staging_.resize(static_cast<std::size_t>(
          std::max<std::uint64_t>(64, budget / 4)));
      base_charge_ += staging_.size();
    }
    stream_.charge(base_charge_);
  }

  ~ThreadCursor() override {
    stream_.release(base_charge_ + chunk_charge_);
  }

 protected:
  void refill() override {
    std::size_t n = 0;
    while (n < batch_.size()) {
      if (!in_chunk_) {
        if (chunk_idx_ == meta_.chunks.size()) {
          break;
        }
        open_chunk();
      }
      const em2s::ChunkMeta& c = meta_.chunks[chunk_idx_];
      if (direct_ != nullptr) {
        n = decode_direct(c.records, n);
      } else {
        while (n < batch_.size() && records_done_ < c.records) {
          batch_[n++] = decode_record();
        }
      }
      if (records_done_ == c.records) {
        close_chunk();
      }
    }
    cur_ = batch_.data();
    end_ = batch_.data() + n;
  }

 private:
  /// Hot path for the direct backends (mmap or a decompressed chunk):
  /// decodes a batch straight off the payload pointer with all cursor
  /// state in locals, so the per-record cost is two varint loops and one
  /// store — the generic per-byte path below only serves the staged
  /// ifstream fallback.  Bounds still hold: every byte read is checked
  /// against the chunk end, with the (cold, outlined) failure helpers
  /// building the diagnostic.
  std::size_t decode_direct(std::uint32_t chunk_records, std::size_t n) {
    const std::uint8_t* p = direct_;
    const std::uint8_t* const end = p + (raw_bytes_ - consumed_);
    Addr prev = prev_addr_;
    std::uint32_t done = records_done_;
    Access* const out = batch_.data();
    const std::size_t cap = batch_.size();
    while (n < cap && done < chunk_records) {
      std::uint64_t delta = 0;
      std::uint64_t packed = 0;
      unsigned shift = 0;
      while (true) {
        if (p == end) {
          fail_record_overruns_payload(done);
        }
        const std::uint8_t b = *p++;
        delta |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
        if ((b & 0x80u) == 0) {
          break;
        }
        shift += 7;
        if (shift > 63) {
          fail_varint_too_long(done);
        }
      }
      shift = 0;
      while (true) {
        if (p == end) {
          fail_record_overruns_payload(done);
        }
        const std::uint8_t b = *p++;
        packed |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
        if ((b & 0x80u) == 0) {
          break;
        }
        shift += 7;
        if (shift > 63) {
          fail_varint_too_long(done);
        }
      }
      if ((packed >> 1) > 0xFFFFFFFFull) {
        fail_gap_out_of_range(packed >> 1, done);
      }
      prev += em2s::zigzag_decode(delta);
      out[n].addr = prev;
      out[n].op = static_cast<MemOp>(packed & 1);
      out[n].gap = static_cast<std::uint32_t>(packed >> 1);
      ++n;
      ++done;
    }
    consumed_ += static_cast<std::uint64_t>(p - direct_);
    direct_ = p;
    prev_addr_ = prev;
    records_done_ = done;
    return n;
  }

  [[noreturn]] EM2_NOINLINE void fail_record_overruns_payload(
      std::uint32_t record) const {
    fail("corrupt varint: record runs past the chunk payload (thread " +
         std::to_string(thread_) + ", chunk " + std::to_string(chunk_idx_) +
         ", record " + std::to_string(record) + ")");
  }

  [[noreturn]] EM2_NOINLINE void fail_varint_too_long(
      std::uint32_t record) const {
    fail("corrupt varint: longer than 10 bytes (thread " +
         std::to_string(thread_) + ", chunk " + std::to_string(chunk_idx_) +
         ", record " + std::to_string(record) + ")");
  }

  [[noreturn]] EM2_NOINLINE void fail_gap_out_of_range(
      std::uint64_t gap, std::uint32_t record) const {
    fail("gap " + std::to_string(gap) + " out of range (thread " +
         std::to_string(thread_) + ", chunk " + std::to_string(chunk_idx_) +
         ", record " + std::to_string(record) + ")");
  }

  void open_chunk() {
    const em2s::ChunkMeta& c = meta_.chunks[chunk_idx_];
    // Authenticate the on-disk chunk header against the CRC-protected
    // footer index: a reader never acts on an unauthenticated header.
    std::array<std::uint8_t, em2s::kChunkHeaderBytes> header;
    read_at(c.offset, header.data(), header.size());
    std::uint32_t thread32 = 0;
    std::uint32_t records = 0;
    std::uint32_t payload_bytes = 0;
    std::uint32_t raw_bytes = 0;
    std::uint8_t codec = 0;
    std::uint32_t crc = 0;
    std::memcpy(&thread32, header.data(), 4);
    std::memcpy(&records, header.data() + 4, 4);
    std::memcpy(&payload_bytes, header.data() + 8, 4);
    std::memcpy(&raw_bytes, header.data() + 12, 4);
    std::memcpy(&codec, header.data() + 16, 1);
    std::memcpy(&crc, header.data() + 17, 4);
    const auto where = [&] {
      return " (thread " + std::to_string(thread_) + ", chunk " +
             std::to_string(chunk_idx_) + ")";
    };
    if (thread32 != thread_) {
      fail("chunk header contradicts the footer index: thread " +
           std::to_string(thread32) + where());
    }
    if (records != c.records) {
      fail("chunk header contradicts the footer index: record count " +
           std::to_string(records) + " vs " + std::to_string(c.records) +
           where());
    }
    if (payload_bytes != c.payload_bytes || raw_bytes != c.raw_bytes ||
        codec != c.codec || crc != c.payload_crc) {
      fail("chunk header contradicts the footer index" + where());
    }
    const std::uint64_t payload_off = c.offset + em2s::kChunkHeaderBytes;
    raw_bytes_ = c.raw_bytes;
    consumed_ = 0;
    records_done_ = 0;
    prev_addr_ = 0;
    if (c.codec != 0) {
      // em2z chunk (the only compressed id the index admits): stage the
      // stored payload whole, verify, then decode from the decompressed
      // buffer (compression trades the strict per-record budget for
      // smaller files).  decompress yields exactly raw_bytes or throws.
      std::vector<std::uint8_t> stored(c.payload_bytes);
      read_at(payload_off, stored.data(), stored.size());
      if (em2s::crc32(stored) != c.payload_crc) {
        fail("chunk payload CRC mismatch" + where());
      }
      raw_buf_ = em2s::Em2zCodec{}.decompress(stored, c.raw_bytes);
      chunk_charge_ = stored.size() + raw_buf_.size();
      stream_.charge(chunk_charge_);
      direct_ = raw_buf_.data();
    } else if (stream_.map_ != nullptr) {
      const std::uint8_t* payload = stream_.map_ + payload_off;
      if (em2s::crc32({payload, c.payload_bytes}) != c.payload_crc) {
        fail("chunk payload CRC mismatch" + where());
      }
      direct_ = payload;
    } else {
      // ifstream backend: one CRC pass over the payload in staging-sized
      // pieces, then rewind and decode through the same staging buffer.
      std::uint32_t running = 0;
      std::uint64_t left = c.payload_bytes;
      in_.seekg(static_cast<std::streamoff>(payload_off));
      while (left > 0) {
        const std::size_t piece =
            static_cast<std::size_t>(std::min<std::uint64_t>(
                staging_.size(), left));
        if (!in_.read(reinterpret_cast<char*>(staging_.data()),
                      static_cast<std::streamsize>(piece))) {
          fail("unexpected end of file inside chunk" + where());
        }
        running = em2s::crc32({staging_.data(), piece}, running);
        left -= piece;
      }
      if (running != c.payload_crc) {
        fail("chunk payload CRC mismatch" + where());
      }
      in_.seekg(static_cast<std::streamoff>(payload_off));
      direct_ = nullptr;
      loaded_ = 0;
      staging_pos_ = 0;
      staging_len_ = 0;
    }
    in_chunk_ = true;
  }

  void close_chunk() {
    if (consumed_ != raw_bytes_) {
      fail("chunk payload has " +
           std::to_string(raw_bytes_ - consumed_) +
           " leftover bytes after the last record (thread " +
           std::to_string(thread_) + ", chunk " +
           std::to_string(chunk_idx_) + ")");
    }
    if (chunk_charge_ != 0) {
      stream_.release(chunk_charge_);
      chunk_charge_ = 0;
      raw_buf_.clear();
    }
    in_chunk_ = false;
    ++chunk_idx_;
  }

  EM2_ALWAYS_INLINE std::uint8_t next_byte() {
    if (consumed_ == raw_bytes_) {
      fail("corrupt varint: record runs past the chunk payload (thread " +
           std::to_string(thread_) + ", chunk " +
           std::to_string(chunk_idx_) + ", record " +
           std::to_string(records_done_) + ")");
    }
    ++consumed_;
    if (direct_ != nullptr) {
      return *direct_++;
    }
    if (staging_pos_ == staging_len_) {
      fill_staging();
    }
    return staging_[staging_pos_++];
  }

  void fill_staging() {
    const std::uint64_t left = raw_bytes_ - loaded_;
    const std::size_t piece = static_cast<std::size_t>(
        std::min<std::uint64_t>(staging_.size(), left));
    if (piece == 0 ||
        !in_.read(reinterpret_cast<char*>(staging_.data()),
                  static_cast<std::streamsize>(piece))) {
      fail("unexpected end of file inside chunk (thread " +
           std::to_string(thread_) + ", chunk " +
           std::to_string(chunk_idx_) + ")");
    }
    loaded_ += piece;
    staging_len_ = piece;
    staging_pos_ = 0;
  }

  std::uint64_t get_varint() {
    std::uint64_t value = 0;
    unsigned shift = 0;
    while (true) {
      const std::uint8_t b = next_byte();
      value |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) {
        return value;
      }
      shift += 7;
      if (shift > 63) {
        fail("corrupt varint: longer than 10 bytes (thread " +
             std::to_string(thread_) + ", chunk " +
             std::to_string(chunk_idx_) + ", record " +
             std::to_string(records_done_) + ")");
      }
    }
  }

  Access decode_record() {
    Access a;
    prev_addr_ += em2s::zigzag_decode(get_varint());
    a.addr = prev_addr_;
    const std::uint64_t packed = get_varint();
    if ((packed >> 1) > 0xFFFFFFFFull) {
      fail("gap " + std::to_string(packed >> 1) +
           " out of range (thread " + std::to_string(thread_) +
           ", chunk " + std::to_string(chunk_idx_) + ", record " +
           std::to_string(records_done_) + ")");
    }
    a.op = static_cast<MemOp>(packed & 1);
    a.gap = static_cast<std::uint32_t>(packed >> 1);
    ++records_done_;
    return a;
  }

  void read_at(std::uint64_t offset, std::uint8_t* dst, std::size_t n) {
    if (stream_.map_ != nullptr) {
      std::memcpy(dst, stream_.map_ + offset, n);
      return;
    }
    in_.seekg(static_cast<std::streamoff>(offset));
    if (!in_.read(reinterpret_cast<char*>(dst),
                  static_cast<std::streamsize>(n))) {
      fail("unexpected end of file (thread " + std::to_string(thread_) +
           ", chunk " + std::to_string(chunk_idx_) + ")");
    }
  }

  const TraceStream& stream_;
  const TraceStream::ThreadMeta& meta_;
  std::size_t thread_;

  std::vector<Access> batch_;
  std::uint64_t base_charge_ = 0;
  std::uint64_t chunk_charge_ = 0;

  // Chunk walk state.
  std::size_t chunk_idx_ = 0;
  bool in_chunk_ = false;
  std::uint32_t records_done_ = 0;
  std::uint64_t raw_bytes_ = 0;
  std::uint64_t consumed_ = 0;
  Addr prev_addr_ = 0;

  // Byte backends: `direct_` walks mmap'd or decompressed memory; the
  // staging buffer pages the ifstream fallback.
  const std::uint8_t* direct_ = nullptr;
  std::vector<std::uint8_t> raw_buf_;
  std::ifstream in_;
  std::vector<std::uint8_t> staging_;
  std::uint64_t loaded_ = 0;
  std::size_t staging_pos_ = 0;
  std::size_t staging_len_ = 0;
};

TraceStream::TraceStream(const std::string& path, const Options& opts)
    : path_(path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail("cannot open " + path);
  }
  in.seekg(0, std::ios::end);
  file_size_ = static_cast<std::uint64_t>(in.tellg());
  if (file_size_ < em2s::kHeaderBytes + em2s::kTrailerBytes) {
    fail("truncated file (" + std::to_string(file_size_) +
         " bytes; an EM2S stream needs at least " +
         std::to_string(em2s::kHeaderBytes + em2s::kTrailerBytes) + ")");
  }

  // Header.
  in.seekg(0);
  std::array<char, 4> magic{};
  std::uint32_t block_bytes = 0;
  std::uint32_t nthreads = 0;
  in.read(magic.data(), magic.size());
  in.read(reinterpret_cast<char*>(&version_), 4);
  in.read(reinterpret_cast<char*>(&block_bytes), 4);
  in.read(reinterpret_cast<char*>(&nthreads), 4);
  if (!in || magic != em2s::kMagic) {
    fail("bad magic (not an EM2S trace stream)");
  }
  if (version_ != em2s::kVersion) {
    fail("unsupported version " + std::to_string(version_) +
         " (expected " + std::to_string(em2s::kVersion) + ")");
  }
  check_block_bytes(block_bytes);
  if (nthreads > em2s::kMaxThreads) {
    fail("implausible thread count " + std::to_string(nthreads));
  }

  // Trailer, then the CRC-authenticated footer.
  in.seekg(static_cast<std::streamoff>(file_size_ - em2s::kTrailerBytes));
  std::uint64_t footer_offset = 0;
  std::uint32_t footer_crc = 0;
  std::array<char, 4> trailer_magic{};
  in.read(reinterpret_cast<char*>(&footer_offset), 8);
  in.read(reinterpret_cast<char*>(&footer_crc), 4);
  in.read(trailer_magic.data(), trailer_magic.size());
  if (!in || trailer_magic != em2s::kTrailerMagic) {
    fail("bad trailer magic (truncated or not an EM2S trace stream)");
  }
  if (footer_offset < em2s::kHeaderBytes ||
      footer_offset > file_size_ - em2s::kTrailerBytes) {
    fail("footer offset " + std::to_string(footer_offset) +
         " out of range");
  }
  std::vector<std::uint8_t> footer(static_cast<std::size_t>(
      file_size_ - em2s::kTrailerBytes - footer_offset));
  in.seekg(static_cast<std::streamoff>(footer_offset));
  if (!footer.empty() &&
      !in.read(reinterpret_cast<char*>(footer.data()),
               static_cast<std::streamsize>(footer.size()))) {
    fail("truncated footer");
  }
  if (em2s::crc32(footer) != footer_crc) {
    fail("footer CRC mismatch (corrupt chunk index)");
  }

  // Chunk index: everything a cursor will later act on is validated
  // here, against the authenticated bytes.
  FooterParser fp(footer);
  const auto footer_threads = fp.take<std::uint32_t>("thread count");
  if (footer_threads != nthreads) {
    fail("footer thread count " + std::to_string(footer_threads) +
         " disagrees with header " + std::to_string(nthreads));
  }
  const std::uint64_t max_chunks =
      file_size_ / (em2s::kChunkHeaderBytes + 1);
  threads_.resize(nthreads);
  for (std::uint32_t t = 0; t < nthreads; ++t) {
    ThreadMeta& tm = threads_[t];
    tm.native = fp.take<CoreId>("native core");
    if (tm.native < 0) {
      fail("negative native core " + std::to_string(tm.native) +
           " for thread " + std::to_string(t));
    }
    tm.total_records = fp.take<std::uint64_t>("record total");
    const auto nchunks = fp.take<std::uint32_t>("chunk count");
    if (nchunks > max_chunks) {
      fail("implausible chunk count " + std::to_string(nchunks) +
           " for thread " + std::to_string(t));
    }
    tm.chunks.reserve(nchunks);
    std::uint64_t records_sum = 0;
    for (std::uint32_t k = 0; k < nchunks; ++k) {
      em2s::ChunkMeta c;
      c.offset = fp.take<std::uint64_t>("chunk offset");
      c.records = fp.take<std::uint32_t>("chunk record count");
      c.payload_bytes = fp.take<std::uint32_t>("chunk payload size");
      c.raw_bytes = fp.take<std::uint32_t>("chunk raw size");
      c.codec = fp.take<std::uint8_t>("chunk codec");
      c.payload_crc = fp.take<std::uint32_t>("chunk CRC");
      const auto where = " (thread " + std::to_string(t) + ", chunk " +
                         std::to_string(k) + ")";
      if (c.offset < em2s::kHeaderBytes ||
          c.offset + em2s::kChunkHeaderBytes + c.payload_bytes >
              footer_offset) {
        fail("chunk extends past the footer" + where);
      }
      if (c.records == 0 || c.payload_bytes == 0 || c.raw_bytes == 0) {
        fail("empty chunk" + where);
      }
      if (c.raw_bytes > em2s::kMaxChunkBytes) {
        fail("implausible chunk size " + std::to_string(c.raw_bytes) +
             where);
      }
      if (c.records > c.raw_bytes / em2s::kMinRecordBytes) {
        fail("record count " + std::to_string(c.records) +
             " cannot fit a payload of " + std::to_string(c.raw_bytes) +
             " bytes" + where);
      }
      if (c.codec == 0 && c.payload_bytes != c.raw_bytes) {
        fail("stored size " + std::to_string(c.payload_bytes) +
             " disagrees with raw size " + std::to_string(c.raw_bytes) +
             " for an uncompressed chunk" + where);
      }
      if (c.codec != 0 && c.codec != em2s::Em2zCodec::kId) {
        fail("unknown chunk codec id " + std::to_string(c.codec) +
             " (EM2S knows 0 = verbatim and 1 = em2z)" + where);
      }
      if (c.codec == em2s::Em2zCodec::kId &&
          c.raw_bytes > em2s::Em2zCodec::max_raw_bytes(c.payload_bytes)) {
        fail("em2z chunk declares " + std::to_string(c.raw_bytes) +
             " raw bytes, more than its " +
             std::to_string(c.payload_bytes) +
             "-byte payload can decode to" + where);
      }
      records_sum += c.records;
      tm.chunks.push_back(c);
    }
    if (records_sum != tm.total_records) {
      fail("chunk index sums to " + std::to_string(records_sum) +
           " records but thread " + std::to_string(t) + " promises " +
           std::to_string(tm.total_records));
    }
    total_accesses_ += tm.total_records;
  }
  if (fp.remaining() != 0) {
    fail("footer has " + std::to_string(fp.remaining()) +
         " trailing bytes");
  }
  in.close();
  init_geometry(nthreads, block_bytes);

#if EM2_HAVE_MMAP
  if (!opts.force_istream) {
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ >= 0) {
      void* m = ::mmap(nullptr, static_cast<std::size_t>(file_size_),
                       PROT_READ, MAP_PRIVATE, fd_, 0);
      if (m != MAP_FAILED) {
        map_ = static_cast<const std::uint8_t*>(m);
        map_len_ = file_size_;
      } else {
        ::close(fd_);
        fd_ = -1;
      }
    }
  }
#else
  (void)opts;
#endif
}

TraceStream::~TraceStream() {
#if EM2_HAVE_MMAP
  if (map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_),
             static_cast<std::size_t>(map_len_));
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
#endif
}

CoreId TraceStream::native_core(std::size_t thread) const {
  EM2_ASSERT(thread < threads_.size(), "thread id outside the stream");
  return threads_[thread].native;
}

std::unique_ptr<AccessCursor> TraceStream::make_cursor(
    std::size_t thread) const {
  EM2_ASSERT(thread < threads_.size(), "thread id outside the stream");
  return std::make_unique<ThreadCursor>(*this, thread);
}

void TraceStream::set_stream_window(std::uint64_t bytes) const {
  if (bytes != 0 && bytes < min_stream_window()) {
    throw std::invalid_argument(
        "stream window of " + std::to_string(bytes) +
        " bytes is below the minimum of " +
        std::to_string(min_stream_window()) + " (" +
        std::to_string(num_threads()) + " threads x " +
        std::to_string(kMinCursorBytes) + " bytes per cursor)");
  }
  window_.store(bytes, std::memory_order_relaxed);
}

void TraceStream::charge(std::uint64_t bytes) const {
  const std::uint64_t now =
      resident_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t prev = peak_.load(std::memory_order_relaxed);
  while (prev < now && !peak_.compare_exchange_weak(
                           prev, now, std::memory_order_relaxed)) {
  }
}

void TraceStream::release(std::uint64_t bytes) const {
  resident_.fetch_sub(bytes, std::memory_order_relaxed);
}

}  // namespace em2
