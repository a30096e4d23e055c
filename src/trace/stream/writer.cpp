#include "trace/stream/writer.hpp"

#include "util/assert.hpp"

namespace em2 {
namespace {

template <typename T>
void put(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path, std::uint32_t block_bytes,
                         std::span<const CoreId> natives,
                         const Options& opts)
    : out_(path, std::ios::binary), opts_(opts) {
  EM2_ASSERT(opts_.chunk_bytes >= 64, "chunk target too small to batch");
  EM2_ASSERT(opts_.chunk_bytes <= em2s::kMaxChunkBytes,
             "chunk target above the reader's acceptance cap");
  threads_.resize(natives.size());
  for (std::size_t t = 0; t < natives.size(); ++t) {
    threads_[t].native = natives[t];
    threads_[t].raw.reserve(opts_.chunk_bytes + em2s::kMaxRecordBytes);
  }
  if (!out_) {
    ok_ = false;
    return;
  }
  out_.write(em2s::kMagic.data(), em2s::kMagic.size());
  put(out_, em2s::kVersion);
  put(out_, block_bytes);
  put(out_, static_cast<std::uint32_t>(natives.size()));
  file_offset_ = em2s::kHeaderBytes;
  ok_ = static_cast<bool>(out_);
}

TraceWriter::~TraceWriter() { close(); }

void TraceWriter::append(std::size_t thread, const Access& a) {
  EM2_ASSERT(thread < threads_.size(), "thread id outside the header");
  PerThread& pt = threads_[thread];
  em2s::put_varint(pt.raw, em2s::zigzag_encode(a.addr - pt.prev_addr));
  em2s::put_varint(pt.raw, (static_cast<std::uint64_t>(a.gap) << 1) |
                               static_cast<std::uint64_t>(a.op));
  pt.prev_addr = a.addr;
  ++pt.buffered_records;
  ++pt.total_records;
  if (pt.raw.size() >= opts_.chunk_bytes) {
    flush_chunk(thread);
  }
}

void TraceWriter::flush_chunk(std::size_t thread) {
  PerThread& pt = threads_[thread];
  if (pt.buffered_records == 0 || !ok_) {
    return;
  }
  const std::vector<std::uint8_t>* stored = &pt.raw;
  std::vector<std::uint8_t> compressed;
  std::uint8_t codec = 0;
  if (opts_.codec != nullptr) {
    compressed = opts_.codec->compress(pt.raw);
    if (compressed.size() <= pt.raw.size()) {
      stored = &compressed;
      codec = em2s::Em2zCodec::kId;
    }
    // else: incompressible chunk (the codec's tokens only added
    // overhead) — stored verbatim under codec id 0, so compression can
    // never make a file larger than the uncompressed one.
  }
  em2s::ChunkMeta meta;
  meta.offset = file_offset_;
  meta.records = pt.buffered_records;
  meta.payload_bytes = static_cast<std::uint32_t>(stored->size());
  meta.raw_bytes = static_cast<std::uint32_t>(pt.raw.size());
  meta.codec = codec;
  meta.payload_crc = em2s::crc32(*stored);
  put(out_, static_cast<std::uint32_t>(thread));
  put(out_, meta.records);
  put(out_, meta.payload_bytes);
  put(out_, meta.raw_bytes);
  put(out_, meta.codec);
  put(out_, meta.payload_crc);
  out_.write(reinterpret_cast<const char*>(stored->data()),
             static_cast<std::streamsize>(stored->size()));
  file_offset_ += em2s::kChunkHeaderBytes + stored->size();
  pt.chunks.push_back(meta);
  pt.raw.clear();
  pt.buffered_records = 0;
  pt.prev_addr = 0;  // chunks decode independently
  ok_ = ok_ && static_cast<bool>(out_);
}

bool TraceWriter::close() {
  if (closed_) {
    return ok_;
  }
  closed_ = true;
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    flush_chunk(t);
  }
  const std::uint64_t footer_offset = file_offset_;
  // The footer is serialized into memory first so its CRC can go into the
  // trailer.
  std::vector<std::uint8_t> footer;
  auto put_mem = [&footer](const auto& value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    footer.insert(footer.end(), p, p + sizeof(value));
  };
  put_mem(static_cast<std::uint32_t>(threads_.size()));
  for (const PerThread& pt : threads_) {
    put_mem(pt.native);
    put_mem(pt.total_records);
    put_mem(static_cast<std::uint32_t>(pt.chunks.size()));
    for (const em2s::ChunkMeta& c : pt.chunks) {
      put_mem(c.offset);
      put_mem(c.records);
      put_mem(c.payload_bytes);
      put_mem(c.raw_bytes);
      put_mem(c.codec);
      put_mem(c.payload_crc);
    }
  }
  out_.write(reinterpret_cast<const char*>(footer.data()),
             static_cast<std::streamsize>(footer.size()));
  put(out_, footer_offset);
  put(out_, em2s::crc32(footer));
  out_.write(em2s::kTrailerMagic.data(), em2s::kTrailerMagic.size());
  out_.flush();
  ok_ = ok_ && static_cast<bool>(out_);
  out_.close();
  return ok_;
}

}  // namespace em2
