// The em2z chunk codec: byte-level round trips (including the RLE-style
// overlapping match and the incompressible worst case), the token-level
// decoder against the full hostile-input matrix (every named defect in
// the format doc), and the file-level contract — an em2z-compressed EM2S
// file opens with a default-constructed reader (em2z is built in), and
// the writer stores chunks verbatim when compression does not shrink
// them, so a compressed file is never larger than the verbatim one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "trace/stream/codec.hpp"
#include "trace/stream/convert.hpp"
#include "trace/stream/format.hpp"
#include "trace/stream/reader.hpp"
#include "trace/stream/writer.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "workload/registry.hpp"

namespace em2 {
namespace {

using Bytes = std::vector<std::uint8_t>;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "em2z_test_" + name;
}

Bytes roundtrip(const Bytes& raw) {
  const em2s::Em2zCodec codec;
  const Bytes stored = codec.compress(raw);
  return codec.decompress(stored, raw.size());
}

/// Expects a TraceFormatError whose message contains `needle`.
template <typename Fn>
void expect_defect(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected TraceFormatError mentioning '" << needle << "'";
  } catch (const TraceFormatError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Byte-level round trips.

TEST(Em2zCodec, RoundTripsRepresentativePayloads) {
  std::vector<Bytes> payloads;
  payloads.push_back({});                     // empty chunk
  payloads.push_back({0x42});                 // below kMinMatch
  payloads.push_back({1, 2, 3});              // still below kMinMatch
  payloads.push_back(Bytes(500, 0x00));       // pure RLE (overlap match)
  {
    Bytes stride;  // the payload shape em2z exists for: repeated varint
    const std::uint8_t pat[] = {0x81, 0x02, 0x10, 0x81, 0x02, 0x11};
    for (int rep = 0; rep < 64; ++rep) {  // byte sequences
      stride.insert(stride.end(), std::begin(pat), std::end(pat));
    }
    payloads.push_back(std::move(stride));
  }
  {
    Bytes ramp;  // every byte value, twice: matches at distance 256
    for (int rep = 0; rep < 2; ++rep) {
      for (int b = 0; b < 256; ++b) {
        ramp.push_back(static_cast<std::uint8_t>(b));
      }
    }
    payloads.push_back(std::move(ramp));
  }
  {
    std::mt19937 rng(7);  // incompressible: literals end to end
    Bytes noise(1000);
    for (std::uint8_t& b : noise) {
      b = static_cast<std::uint8_t>(rng());
    }
    payloads.push_back(std::move(noise));
  }
  {
    Bytes runs;  // long literal stretch (> kMaxLiteralRun) then repeats
    for (int i = 0; i < 200; ++i) {
      runs.push_back(static_cast<std::uint8_t>(i * 37 + (i >> 3)));
    }
    const Bytes head = runs;
    runs.insert(runs.end(), head.begin(), head.end());
    payloads.push_back(std::move(runs));
  }
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(roundtrip(payloads[i]), payloads[i]) << "payload " << i;
  }
}

TEST(Em2zCodec, CompressesStrideRepeatsWell) {
  Bytes raw;
  const std::uint8_t pat[] = {0x81, 0x02, 0x10, 0x04};
  for (int rep = 0; rep < 256; ++rep) {
    raw.insert(raw.end(), std::begin(pat), std::end(pat));
  }
  const em2s::Em2zCodec codec;
  const Bytes stored = codec.compress(raw);
  // 1024 repeat bytes must collapse to a small handful of match tokens.
  EXPECT_LT(stored.size(), raw.size() / 8)
      << stored.size() << " vs " << raw.size();
  EXPECT_EQ(codec.decompress(stored, raw.size()), raw);
}

TEST(Em2zCodec, DecodesOverlappingMatchRleStyle) {
  // Hand-built token stream: one literal 'A', then a match of length 4
  // at distance 1 — legal overlap, must expand byte-by-byte to "AAAAA".
  const Bytes stored = {0x00, 'A', 0x01, 0x01};
  const em2s::Em2zCodec codec;
  EXPECT_EQ(codec.decompress(stored, 5), Bytes(5, 'A'));
}

// ---------------------------------------------------------------------
// Hostile input: every named defect the decoder rejects.

TEST(Em2zCodec, RejectsHostileTokenStreams) {
  const em2s::Em2zCodec codec;
  const auto decode = [&](const Bytes& stored, std::size_t raw_bytes) {
    return [&codec, stored, raw_bytes] {
      (void)codec.decompress(stored, raw_bytes);
    };
  };
  // Empty input but bytes promised.
  expect_defect(decode({}, 5), "em2z: truncated token stream");
  // Literal run promising more bytes than the stored stream holds.
  expect_defect(decode({0x08, 1, 2}, 5), "truncated token stream");
  // Literal run overrunning the declared raw size (run of 5 into 2).
  expect_defect(decode({0x08, 1, 2, 3, 4, 5}, 2),
                "literal run overruns the declared raw size");
  // Match control byte with no varint behind it.
  expect_defect(decode({0x01}, 4), "truncated token stream");
  // Match distance of zero.
  expect_defect(decode({0x06, 1, 2, 3, 4, 0x01, 0x00}, 8),
                "match distance of 0");
  // Match distance beyond the produced output (5 back with 4 produced).
  expect_defect(decode({0x06, 1, 2, 3, 4, 0x01, 0x05}, 8),
                "reaches outside the produced output");
  // Match overrunning the declared raw size (len 4 into 2 remaining).
  expect_defect(decode({0x06, 1, 2, 3, 4, 0x01, 0x01}, 6),
                "match overruns the declared raw size");
  // Varint that never terminates within 64 bits.
  expect_defect(
      decode({0x06, 1, 2, 3, 4, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
              0xFF, 0xFF, 0xFF, 0xFF},
             8),
      "varint overflows 64 bits");
  // Trailing bytes after the final token.
  expect_defect(decode({0x00, 'A', 0x00}, 1),
                "trailing bytes after the final token");
  // A valid stream decoded against a too-small raw size: the decoder
  // stops at raw_bytes and the leftover tokens are the trailing defect.
  expect_defect(decode({0x00, 'A', 0x00, 'B'}, 1), "trailing bytes");
}

// ---------------------------------------------------------------------
// Differential: the decoder against a byte-at-a-time reference.

/// The decoder the token format describes, one output byte at a time and
/// with no validation: the oracle for decompress on well-formed streams.
Bytes reference_decode(const Bytes& stored) {
  Bytes out;
  std::size_t p = 0;
  while (p < stored.size()) {
    const std::uint8_t c = stored[p++];
    if ((c & 1) == 0) {
      for (std::size_t k = 0; k <= static_cast<std::size_t>(c >> 1); ++k) {
        out.push_back(stored[p++]);
      }
      continue;
    }
    const std::size_t len = static_cast<std::size_t>(c >> 1) + 4;
    std::uint64_t dist = 0;
    for (std::uint32_t shift = 0;; shift += 7) {
      const std::uint8_t b = stored[p++];
      dist |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        break;
      }
    }
    for (std::size_t k = 0; k < len; ++k) {
      out.push_back(out[out.size() - dist]);
    }
  }
  return out;
}

/// Every em2z chunk of `path`, as (stored payload, raw size), walked
/// from the first chunk header to the footer the trailer points at.
std::vector<std::pair<Bytes, std::size_t>> em2z_chunks(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const Bytes file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::uint64_t footer = 0;
  std::memcpy(&footer, file.data() + file.size() - em2s::kTrailerBytes, 8);
  std::vector<std::pair<Bytes, std::size_t>> chunks;
  for (std::size_t at = em2s::kHeaderBytes; at < footer;) {
    std::uint32_t payload = 0;
    std::uint32_t raw = 0;
    std::memcpy(&payload, file.data() + at + 8, 4);
    std::memcpy(&raw, file.data() + at + 12, 4);
    const std::uint8_t codec = file[at + 16];
    at += em2s::kChunkHeaderBytes;
    if (codec == 1) {
      chunks.emplace_back(Bytes(file.begin() + static_cast<std::ptrdiff_t>(at),
                                file.begin() + static_cast<std::ptrdiff_t>(
                                                   at + payload)),
                          raw);
    }
    at += payload;
  }
  return chunks;
}

TEST(Em2zCodec, DecoderMatchesByteAtATimeReferenceOnWorkloadChunks) {
  const em2s::Em2zCodec codec;
  for (const char* name : {"sharing-mix", "ocean"}) {
    SCOPED_TRACE(name);
    const std::string path = tmp_path(std::string(name) + ".em2s");
    TraceWriter::Options wopts;
    wopts.codec = &codec;
    ASSERT_TRUE(write_trace_stream(
        path, workload::make_workload(name, 64).traces(), wopts));
    const auto chunks = em2z_chunks(path);
    std::remove(path.c_str());
    ASSERT_FALSE(chunks.empty());
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      const auto& [stored, raw] = chunks[i];
      const Bytes want = reference_decode(stored);
      ASSERT_EQ(want.size(), raw) << "chunk " << i;
      ASSERT_EQ(codec.decompress(stored, raw), want) << "chunk " << i;
    }
  }
}

TEST(Em2zCodec, DecoderMatchesByteAtATimeReferenceOnEveryMatchShape) {
  // A 16-byte literal, then one match of every distance 1..16 and every
  // length 4..131, then a literal tail: the RLE overlaps (distance < 8)
  // and the 8-byte-step copies on both sides of their boundary.
  const em2s::Em2zCodec codec;
  for (std::uint8_t dist = 1; dist <= 16; ++dist) {
    for (std::size_t len = 4; len <= 131; ++len) {
      Bytes stored = {15 << 1};
      for (int b = 0; b < 16; ++b) {
        stored.push_back(static_cast<std::uint8_t>(b * 37 + 11));
      }
      stored.push_back(static_cast<std::uint8_t>(((len - 4) << 1) | 1));
      stored.push_back(dist);
      stored.insert(stored.end(), {2 << 1, 0xA5, 0x5A, 0x3C});
      const Bytes want = reference_decode(stored);
      ASSERT_EQ(want.size(), 16 + len + 3);
      ASSERT_EQ(codec.decompress(stored, want.size()), want)
          << "distance " << int{dist} << " length " << len;
    }
  }
}

// ---------------------------------------------------------------------
// File-level contract.

TEST(Em2zCodec, CompressedFileOpensWithoutRegistration) {
  // em2z is built in: a compressed EM2S file round-trips through a
  // default-constructed reader, on both backends.
  const std::string path = tmp_path("builtin.em2s");
  const auto traces = workload::make_by_name("ocean", 8, 1, 7);
  ASSERT_TRUE(traces.has_value());
  const em2s::Em2zCodec codec;
  TraceWriter::Options wopts;
  wopts.codec = &codec;
  ASSERT_TRUE(write_trace_stream(path, *traces, wopts));
  EXPECT_TRUE(equal_traces(*traces, read_trace_stream(path)));
  TraceStream::Options ropts;
  ropts.force_istream = true;
  EXPECT_TRUE(equal_traces(*traces, read_trace_stream(path, ropts)));
  std::remove(path.c_str());
}

TEST(Em2zCodec, WriterFallsBackToVerbatimWhenCompressionDoesNotShrink) {
  // Incompressible payloads (random addresses, no stride repeats) must
  // not grow the file: the writer keeps the verbatim chunk when the
  // codec's output is not strictly smaller.  Observable bound: the
  // compressed file is never larger than the verbatim file.
  TraceSet noisy(64);
  std::mt19937_64 rng(11);
  ThreadTrace t0(0, 0);
  for (int i = 0; i < 4000; ++i) {
    t0.append((rng() >> 8) & 0xFFFF'FFFF'FFC0u,
              (rng() & 1) != 0u ? MemOp::kWrite : MemOp::kRead,
              static_cast<std::uint32_t>(rng() & 0x3FF));
  }
  noisy.add_thread(std::move(t0));
  const std::string plain = tmp_path("verbatim.em2s");
  const std::string packed = tmp_path("packed.em2s");
  ASSERT_TRUE(write_trace_stream(plain, noisy));
  const em2s::Em2zCodec codec;
  TraceWriter::Options wopts;
  wopts.codec = &codec;
  ASSERT_TRUE(write_trace_stream(packed, noisy, wopts));
  const TraceStream a(plain);
  const TraceStream b(packed);
  EXPECT_LE(b.file_bytes(), a.file_bytes());
  EXPECT_TRUE(equal_traces(read_trace_stream(plain),
                           read_trace_stream(packed)));
  std::remove(plain.c_str());
  std::remove(packed.c_str());
}

}  // namespace
}  // namespace em2
