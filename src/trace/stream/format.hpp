// The EM2S on-disk trace format: byte-level layout, varint coding and
// CRC.
//
// EM2S is the repository's binary trace format.  Instead of one
// monolithic per-thread record array (which would force the reader to
// materialize whole threads), the access stream is cut into bounded
// *chunks* that a cursor can decode one batch at a time, so a trace far
// larger than RAM runs through the trace-mode engines under a hard memory
// budget.
//
// File layout (all integers host-endian):
//
//   header   magic "EM2S" | u32 version=1 | u32 block_bytes | u32 nthreads
//   chunks   back-to-back, append order:
//              u32 thread | u32 records | u32 payload_bytes
//              | u32 raw_bytes | u8 codec | u32 payload_crc
//              | payload_bytes bytes of payload
//   footer   u32 nthreads, then per thread:
//              i32 native | u64 total_records | u32 nchunks
//              | nchunks * { u64 offset | u32 records | u32 payload_bytes
//                            | u32 raw_bytes | u8 codec | u32 payload_crc }
//   trailer  u64 footer_offset | u32 footer_crc | magic "EM2F"
//
// A chunk's *raw* payload is the delta/varint coding of its records: per
// record varint(zigzag64(addr - prev_addr)) then varint((gap << 1) | op),
// with prev_addr = 0 at each chunk start (chunks decode independently).
// The *stored* payload is the raw payload run through the chunk's codec
// (id 0 = stored verbatim, id 1 = em2z, codec.hpp; any other id is
// rejected at open); payload_crc covers the stored bytes.
//
// Trust model: the trailer CRC authenticates the footer, and the footer's
// chunk index repeats every chunk-header field — so a reader never has to
// believe an unauthenticated chunk header: any disagreement between the
// two is a named TraceFormatError, truncation anywhere kills the trailer,
// and payload corruption fails the per-chunk CRC.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace em2::em2s {

inline constexpr std::array<char, 4> kMagic = {'E', 'M', '2', 'S'};
inline constexpr std::array<char, 4> kTrailerMagic = {'E', 'M', '2', 'F'};
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::size_t kChunkHeaderBytes = 21;
inline constexpr std::size_t kTrailerBytes = 16;
/// Largest raw (decoded) chunk payload a reader will accept; the writer
/// cuts chunks far below this.
inline constexpr std::uint32_t kMaxChunkBytes = 1u << 26;
/// A thread count beyond this is rejected outright: the mesh tops out
/// orders of magnitude lower.
inline constexpr std::uint32_t kMaxThreads = 1u << 20;
/// A varint for a 64-bit value needs at most 10 bytes; a record is two.
inline constexpr std::size_t kMaxVarintBytes = 10;
inline constexpr std::size_t kMaxRecordBytes = 2 * kMaxVarintBytes;
/// Smallest possible record: two one-byte varints.  Record counts are
/// validated against payload sizes through this bound.
inline constexpr std::size_t kMinRecordBytes = 2;

/// One chunk-index entry: the fields of a chunk header, as repeated in
/// the CRC-protected footer (which is why a reader never has to trust
/// the header copy).
struct ChunkMeta {
  std::uint64_t offset = 0;  ///< file offset of the chunk header
  std::uint32_t records = 0;
  std::uint32_t payload_bytes = 0;  ///< stored (post-codec) size
  std::uint32_t raw_bytes = 0;      ///< encoded (pre-codec) size
  std::uint8_t codec = 0;
  std::uint32_t payload_crc = 0;  ///< crc32 of the stored payload
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), restartable:
/// pass the previous return value as `seed` to extend a running checksum.
std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t seed = 0);

/// ZigZag maps signed deltas to small unsigned varints: 0, -1, 1, -2 ->
/// 0, 1, 2, 3.  Defined on the raw two's-complement difference, so any
/// u64 address pair round-trips exactly.
constexpr std::uint64_t zigzag_encode(std::uint64_t diff) {
  return (diff << 1) ^
         static_cast<std::uint64_t>(static_cast<std::int64_t>(diff) >> 63);
}
constexpr std::uint64_t zigzag_decode(std::uint64_t z) {
  return (z >> 1) ^ (0 - (z & 1));
}

/// Appends the LEB128 varint coding of `value` to `out`.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value);

}  // namespace em2::em2s
