// em2z: the EM2S chunk codec (id 1), the only one besides id 0 (stored
// verbatim).  TraceWriter compresses with it when Options::codec points at
// an Em2zCodec; TraceStream decodes id-1 chunks with it unconditionally.
//
// A chunk's raw payload is already delta/varint coded, so general-purpose
// entropy coding has little left to squeeze — but trace loops revisit the
// same address strides over and over, which leaves long *repeats* of the
// exact varint byte sequences.  em2z is a byte-oriented LZSS that targets
// exactly that: back-references into the bytes already produced, literals
// for everything else.
//
// Token stream (decoded until exactly raw_bytes have been produced):
//
//   control byte c
//     c & 1 == 0   literal run: the next (c >> 1) + 1 bytes (1..128)
//                  are copied to the output verbatim
//     c & 1 == 1   match: (c >> 1) + 4 bytes (4..131) are copied from
//                  `dist` bytes behind the current output position,
//                  where `dist` is the LEB128 varint that follows the
//                  control byte (dist >= 1; overlapping copies are legal
//                  and proceed byte-by-byte, RLE-style)
//
// Hostile input is rejected with TraceFormatError: a truncated token,
// a run or match that would overrun raw_bytes, a distance of zero or
// beyond the produced output, a varint that overruns or overflows, and
// trailing bytes after the final token are all named defects.  The
// stream reader additionally enforces the exact-raw_bytes contract, the
// expansion bound (max_raw_bytes) and the stored-payload CRC before the
// codec ever sees the bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace em2::em2s {

class Em2zCodec {
 public:
  /// Codec id stored in the chunk header of every em2z chunk.
  static constexpr std::uint8_t kId = 1;
  /// The most raw bytes `stored_bytes` of token stream can decode to.
  /// A token that produces more than it stores is a match: a control
  /// byte plus a distance varint of at least one byte, producing at most
  /// 131 bytes.  So every 2 stored bytes yield at most 131 raw ones.
  static constexpr std::uint64_t max_raw_bytes(
      std::uint64_t stored_bytes) noexcept {
    return 131 * (stored_bytes / 2);
  }
  std::vector<std::uint8_t> compress(
      std::span<const std::uint8_t> raw) const;
  /// Produces exactly `raw_bytes` bytes or throws TraceFormatError.
  std::vector<std::uint8_t> decompress(
      std::span<const std::uint8_t> stored, std::size_t raw_bytes) const;
};

}  // namespace em2::em2s
