// The EM2S streaming trace frontend: bit-identical TraceSet round-trips
// (every registry workload, extreme addresses, 32-bit gaps), bounded-
// memory cursor accounting, mmap/istream backend parity, em2z chunks,
// and the full hostile-input matrix — truncation at every
// offset, corrupt varints, CRC mismatches, and every field a footer or
// chunk header can lie about, each rejected with a TraceFormatError that
// names the defect (the PR-6 hardening contract extended to EM2S).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <span>
#include <string>
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

/// Per-test temp path: ctest runs each TEST as its own process, so the
/// name must be unique per test, not per run.
std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "em2s_test_" + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out) << path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

TraceSet sample_traces() {
  TraceSet ts(64);
  ThreadTrace t0(0, 0);
  t0.append(0x1000, MemOp::kRead, 3);
  t0.append(0x1004, MemOp::kWrite, 0);
  t0.append(0x2000, MemOp::kRead, 17);
  ThreadTrace t1(1, 2);
  t1.append(0xdeadbeef, MemOp::kRead, 0);
  t1.append(0x10, MemOp::kWrite, 1);  // backward delta
  ts.add_thread(std::move(t0));
  ts.add_thread(std::move(t1));
  return ts;
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
// Round trips.

TEST(TraceStream, SampleRoundTripsBitIdentically) {
  const std::string path = tmp_path("sample.em2s");
  const TraceSet original = sample_traces();
  ASSERT_TRUE(write_trace_stream(path, original));
  EXPECT_TRUE(equal_traces(original, read_trace_stream(path)));
  std::remove(path.c_str());
}

TEST(TraceStream, EveryRegistryWorkloadRoundTrips) {
  for (const std::string& name : workload::workload_names()) {
    const auto traces = workload::make_by_name(name, 8, 1, 7);
    ASSERT_TRUE(traces.has_value()) << name;
    const std::string path = tmp_path("registry_" + name + ".em2s");
    ASSERT_TRUE(write_trace_stream(path, *traces)) << name;
    EXPECT_TRUE(equal_traces(*traces, read_trace_stream(path))) << name;
    std::remove(path.c_str());
  }
}

TEST(TraceStream, ExtremeAddressesAndGapsRoundTrip) {
  // Addresses beyond 2^31 and at the u64 edge, deltas in both
  // directions, and the full 32-bit gap range — the varint/zigzag coding
  // must be exact everywhere.
  TraceSet ts(64);
  ThreadTrace t0(0, 1);
  t0.append(0, MemOp::kRead, 0);
  t0.append(std::uint64_t{1} << 31, MemOp::kWrite, 0xffffffffu);
  t0.append((std::uint64_t{1} << 31) - 1, MemOp::kRead, 1);
  t0.append(0xffffffffffffffffull, MemOp::kWrite, 42);
  t0.append(0x8000000000000000ull, MemOp::kRead, 0);
  t0.append(1, MemOp::kWrite, 0x7fffffffu);
  ts.add_thread(std::move(t0));
  const std::string path = tmp_path("extreme.em2s");
  ASSERT_TRUE(write_trace_stream(path, ts));
  EXPECT_TRUE(equal_traces(ts, read_trace_stream(path)));
  std::remove(path.c_str());
}

TEST(TraceStream, EmptyTraceSetAndEmptyThreadRoundTrip) {
  {
    const std::string path = tmp_path("empty_set.em2s");
    const TraceSet empty(128);
    ASSERT_TRUE(write_trace_stream(path, empty));
    const TraceSet loaded = read_trace_stream(path);
    EXPECT_EQ(loaded.num_threads(), 0u);
    EXPECT_EQ(loaded.block_bytes(), 128u);
    std::remove(path.c_str());
  }
  {
    // A thread with zero accesses gets a zero-chunk index entry.
    const std::string path = tmp_path("empty_thread.em2s");
    TraceSet ts(64);
    ts.add_thread(ThreadTrace(0, 3));
    ThreadTrace t1(1, 0);
    t1.append(0x40, MemOp::kRead, 0);
    ts.add_thread(std::move(t1));
    ASSERT_TRUE(write_trace_stream(path, ts));
    EXPECT_TRUE(equal_traces(ts, read_trace_stream(path)));
    std::remove(path.c_str());
  }
}

TEST(TraceStream, TinyChunksForceMultiChunkThreads) {
  // The smallest chunk budget the writer allows splits even the sample
  // into many chunks; decoding must restart the delta base at every
  // chunk boundary.
  const std::string path = tmp_path("multichunk.em2s");
  const auto traces = workload::make_by_name("ocean", 4, 1, 5);
  ASSERT_TRUE(traces.has_value());
  TraceWriter::Options opts;
  opts.chunk_bytes = 64;
  ASSERT_TRUE(write_trace_stream(path, *traces, opts));
  EXPECT_TRUE(equal_traces(*traces, read_trace_stream(path)));
  std::remove(path.c_str());
}

TEST(TraceStream, ExposesGeometryNativesAndTotals) {
  const std::string path = tmp_path("geometry.em2s");
  const TraceSet original = sample_traces();
  ASSERT_TRUE(write_trace_stream(path, original));
  const TraceStream stream(path);
  EXPECT_EQ(stream.num_threads(), original.num_threads());
  EXPECT_EQ(stream.block_bytes(), original.block_bytes());
  EXPECT_EQ(stream.total_accesses(), original.total_accesses());
  for (std::size_t t = 0; t < original.num_threads(); ++t) {
    EXPECT_EQ(stream.native_core(t), original.thread(t).native_core());
  }
  EXPECT_EQ(stream.block_of(0x1000), original.block_of(0x1000));
  EXPECT_EQ(stream.version(), em2s::kVersion);
  EXPECT_GT(stream.file_bytes(), 0u);
  std::remove(path.c_str());
}

TEST(TraceStream, CursorDrainsToNullAndStaysNull) {
  const std::string path = tmp_path("drain.em2s");
  const TraceSet original = sample_traces();
  ASSERT_TRUE(write_trace_stream(path, original));
  const TraceStream stream(path);
  auto cursor = stream.make_cursor(0);
  const ThreadTrace& want = original.thread(0);
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Access* got = cursor->next();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, want[i]);
  }
  EXPECT_EQ(cursor->next(), nullptr);
  EXPECT_EQ(cursor->next(), nullptr);  // stays exhausted
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Backend parity and the memory budget.

TEST(TraceStream, MmapAndIstreamBackendsDecodeIdentically) {
  const std::string path = tmp_path("parity.em2s");
  const auto traces = workload::make_by_name("ocean", 4, 1, 9);
  ASSERT_TRUE(traces.has_value());
  ASSERT_TRUE(write_trace_stream(path, *traces));
  TraceStream::Options buffered;
  buffered.force_istream = true;
  const TraceStream fallback(path, buffered);
  EXPECT_FALSE(fallback.using_mmap());
  EXPECT_TRUE(equal_traces(*traces, materialize(fallback)));
  EXPECT_TRUE(equal_traces(*traces, materialize(TraceStream(path))));
  std::remove(path.c_str());
}

TEST(TraceStream, WindowBelowMinimumThrowsInvalidArgument) {
  const std::string path = tmp_path("window_min.em2s");
  ASSERT_TRUE(write_trace_stream(path, sample_traces()));
  const TraceStream stream(path);
  const std::uint64_t min =
      stream.num_threads() * TraceStream::kMinCursorBytes;
  EXPECT_EQ(stream.min_stream_window(), min);
  EXPECT_THROW(stream.set_stream_window(min - 1), std::invalid_argument);
  EXPECT_NO_THROW(stream.set_stream_window(min));
  EXPECT_NO_THROW(stream.set_stream_window(0));  // 0 = unlimited
  std::remove(path.c_str());
}

TEST(TraceStream, PeakResidentBytesStayWithinTheWindow) {
  // The acceptance property at unit scale: the reader's own accounting
  // never exceeds the configured window while a trace much larger than
  // the window streams through, and drops back to zero when the cursors
  // die.  Both backends must honour the budget.
  const std::string path = tmp_path("budget.em2s");
  TraceSet ts(64);
  for (std::int32_t t = 0; t < 4; ++t) {
    ThreadTrace tt(t, t);
    std::uint64_t addr = 0x1000u * static_cast<std::uint64_t>(t + 1);
    for (int k = 0; k < 60'000; ++k) {
      addr += static_cast<std::uint64_t>((k * 2654435761u) % 65536);
      tt.append(addr, (k & 3) == 0 ? MemOp::kWrite : MemOp::kRead,
                static_cast<std::uint32_t>(k % 7));
    }
    ts.add_thread(std::move(tt));
  }
  ASSERT_TRUE(write_trace_stream(path, ts));
  const std::uint64_t window = 64 * 1024;
  for (const bool force_istream : {false, true}) {
    TraceStream::Options opts;
    opts.force_istream = force_istream;
    const TraceStream stream(path, opts);
    ASSERT_GE(stream.file_bytes(), 10 * window)
        << "trace not out-of-core enough to prove anything";
    stream.set_stream_window(window);
    EXPECT_TRUE(equal_traces(ts, materialize(stream)));
    EXPECT_GT(stream.peak_resident_trace_bytes(), 0u);
    EXPECT_LE(stream.peak_resident_trace_bytes(), window)
        << (force_istream ? "istream" : "mmap");
    EXPECT_EQ(stream.resident_trace_bytes(), 0u);
  }
  std::remove(path.c_str());
}

TEST(TraceStream, TraceSetViewsWithoutCharging) {
  const TraceSet original = sample_traces();
  const TraceSource& source = original;
  EXPECT_EQ(source.backing_traces(), &original);
  EXPECT_EQ(source.peak_resident_trace_bytes(), 0u);
  EXPECT_NO_THROW(source.set_stream_window(1));  // ignored, not enforced
  EXPECT_TRUE(equal_traces(original, materialize(source)));
}

// ---------------------------------------------------------------------
// em2z chunks.

TEST(TraceStream, CodecRoundTripsThroughBothBackends) {
  // A strided loop: its varint bytes repeat, so em2z shrinks every chunk
  // and the file really carries codec id 1.
  TraceSet original(64);
  ThreadTrace t0(0, 0);
  for (int i = 0; i < 4000; ++i) {
    t0.append(0x1000 + static_cast<Addr>(i % 16) * 64,
              i % 3 == 0 ? MemOp::kWrite : MemOp::kRead, 1);
  }
  original.add_thread(std::move(t0));
  const std::string plain = tmp_path("codec_plain.em2s");
  const std::string packed = tmp_path("codec.em2s");
  ASSERT_TRUE(write_trace_stream(plain, original));
  const em2s::Em2zCodec em2z;
  TraceWriter::Options wopts;
  wopts.codec = &em2z;
  ASSERT_TRUE(write_trace_stream(packed, original, wopts));
  EXPECT_LT(TraceStream(packed).file_bytes(),
            TraceStream(plain).file_bytes());
  TraceStream::Options ropts;
  EXPECT_TRUE(equal_traces(original, read_trace_stream(packed, ropts)));
  ropts.force_istream = true;
  EXPECT_TRUE(equal_traces(original, read_trace_stream(packed, ropts)));
  std::remove(plain.c_str());
  std::remove(packed.c_str());
}

// ---------------------------------------------------------------------
// Hostile input: a hand-built one-thread, one-chunk file whose every
// field the test can set independently — including the lies a real
// writer cannot produce.

/// Little serializer mirroring the writer's host-endian layout.
struct Blob {
  std::string data;

  template <typename T>
  Blob& put(T value) {
    const char* p = reinterpret_cast<const char*>(&value);
    data.append(p, sizeof(T));
    return *this;
  }
  Blob& bytes(const void* p, std::size_t n) {
    data.append(static_cast<const char*>(p), n);
    return *this;
  }
};

struct MiniSpec {
  std::vector<std::uint8_t> payload;
  std::uint32_t records = 1;
  std::optional<std::uint32_t> raw_bytes;       // default: payload size
  std::optional<std::uint32_t> crc;             // default: true CRC
  std::optional<std::uint32_t> header_records;  // chunk-header-only lie
  std::optional<std::uint64_t> footer_total;    // default: records
  std::uint8_t codec = 0;                       // header and footer
  bool flip_footer_byte = false;
};

/// Serializes a one-thread, one-chunk EM2S file exactly as documented in
/// format.hpp, with the spec's lies applied.
std::string build_mini(const MiniSpec& s) {
  const auto raw = s.raw_bytes.value_or(
      static_cast<std::uint32_t>(s.payload.size()));
  const auto crc = s.crc.value_or(em2s::crc32(s.payload));
  Blob file;
  file.bytes(em2s::kMagic.data(), 4);
  file.put<std::uint32_t>(em2s::kVersion);
  file.put<std::uint32_t>(64);  // block_bytes
  file.put<std::uint32_t>(1);   // nthreads
  const std::uint64_t chunk_offset = file.data.size();
  file.put<std::uint32_t>(0);  // thread
  file.put<std::uint32_t>(s.header_records.value_or(s.records));
  file.put<std::uint32_t>(static_cast<std::uint32_t>(s.payload.size()));
  file.put<std::uint32_t>(raw);
  file.put<std::uint8_t>(s.codec);
  file.put<std::uint32_t>(crc);
  file.bytes(s.payload.data(), s.payload.size());
  const std::uint64_t footer_offset = file.data.size();
  Blob footer;
  footer.put<std::uint32_t>(1);  // nthreads
  footer.put<CoreId>(0);         // native
  footer.put<std::uint64_t>(s.footer_total.value_or(s.records));
  footer.put<std::uint32_t>(1);  // nchunks
  footer.put<std::uint64_t>(chunk_offset);
  footer.put<std::uint32_t>(s.records);
  footer.put<std::uint32_t>(static_cast<std::uint32_t>(s.payload.size()));
  footer.put<std::uint32_t>(raw);
  footer.put<std::uint8_t>(s.codec);
  footer.put<std::uint32_t>(crc);
  const std::uint32_t footer_crc = em2s::crc32(
      {reinterpret_cast<const std::uint8_t*>(footer.data.data()),
       footer.data.size()});
  if (s.flip_footer_byte) {
    footer.data[4] ^= 0x01;  // after the CRC: authentic bytes, bad sum
  }
  file.data += footer.data;
  file.put<std::uint64_t>(footer_offset);
  file.put<std::uint32_t>(footer_crc);
  file.bytes(em2s::kTrailerMagic.data(), 4);
  return file.data;
}

/// Raw payload encoding `records` exactly as the writer would.
std::vector<std::uint8_t> encode_records(
    const std::vector<Access>& records) {
  std::vector<std::uint8_t> out;
  std::uint64_t prev = 0;
  for (const Access& a : records) {
    em2s::put_varint(out, em2s::zigzag_encode(a.addr - prev));
    prev = a.addr;
    em2s::put_varint(out, (std::uint64_t{a.gap} << 1) |
                              static_cast<std::uint64_t>(a.op));
  }
  return out;
}

TEST(TraceStream, MiniFileBuilderProducesAValidStream) {
  // The builder must agree with the real reader on a well-formed file,
  // or every lie test below would prove nothing.
  const std::vector<Access> records = {{0x1000, MemOp::kRead, 2},
                                       {0x1040, MemOp::kWrite, 0}};
  MiniSpec s;
  s.payload = encode_records(records);
  s.records = 2;
  const std::string path = tmp_path("mini_valid.em2s");
  write_file(path, build_mini(s));
  const TraceSet loaded = read_trace_stream(path);
  ASSERT_EQ(loaded.num_threads(), 1u);
  ASSERT_EQ(loaded.thread(0).size(), 2u);
  EXPECT_EQ(loaded.thread(0)[0], records[0]);
  EXPECT_EQ(loaded.thread(0)[1], records[1]);
  std::remove(path.c_str());
}

TEST(TraceStream, UnknownCodecIdIsRejectedUpFront) {
  // A well-formed file whose chunk names codec id 7: the ctor walks the
  // chunk index and refuses it before any cursor touches a payload.
  MiniSpec s;
  s.payload = encode_records({{0x1000, MemOp::kRead, 0}});
  s.codec = 7;
  const std::string path = tmp_path("codec_unknown.em2s");
  write_file(path, build_mini(s));
  expect_defect([&] { (void)read_trace_stream(path); },
                "unknown chunk codec id 7");
  std::remove(path.c_str());
}

TEST(TraceStream, Em2zChunkLargerThanItsPayloadCanDecodeIsRejected) {
  // One em2z token turns at most 2 stored bytes into 131 raw bytes.  A
  // CRC-valid footer that declares 64 MiB over 4 payload bytes must
  // throw from the ctor, before a cursor allocates the declared size;
  // a chunk exactly at the bound still opens.
  MiniSpec s;
  s.payload = {0x01, 0x01, 0x01, 0x01};
  s.codec = em2s::Em2zCodec::kId;
  s.raw_bytes = em2s::kMaxChunkBytes;
  const std::string path = tmp_path("em2z_overdeclared.em2s");
  write_file(path, build_mini(s));
  expect_defect([&] { (void)TraceStream(path); },
                "em2z chunk declares 67108864 raw bytes, more than its "
                "4-byte payload can decode to");
  s.raw_bytes = 2 * 131;
  write_file(path, build_mini(s));
  EXPECT_NO_THROW((void)TraceStream(path));
  s.raw_bytes = 2 * 131 + 1;
  write_file(path, build_mini(s));
  expect_defect([&] { (void)TraceStream(path); }, "em2z chunk declares");
  std::remove(path.c_str());
}

TEST(TraceStream, EmptyAndHeaderOnlyFilesAreRejectedByBothBackends) {
  // mmap(len = 0) fails with EINVAL on Linux, so a zero-length file must
  // be rejected by the size gate BEFORE any mapping is attempted — and
  // the failure must name the truncation, not echo errno.  Same for a
  // header-only file: 16 valid bytes cannot carry a trailer.  Both
  // backends (the mmap default and the forced-ifstream fallback) must
  // agree, since the gate runs before the backend choice.
  const std::string path = tmp_path("tiny.em2s");
  TraceStream::Options istream_only;
  istream_only.force_istream = true;

  write_file(path, "");  // zero-length
  expect_defect([&] { (void)TraceStream(path); }, "truncated file");
  expect_defect([&] { (void)TraceStream(path, istream_only); },
                "truncated file");

  MiniSpec s;
  s.payload = encode_records({{0x40, MemOp::kRead, 0}});
  const std::string full = build_mini(s);
  write_file(path, full.substr(0, em2s::kHeaderBytes));  // header only
  expect_defect([&] { (void)TraceStream(path); }, "truncated file");
  expect_defect([&] { (void)TraceStream(path, istream_only); },
                "truncated file");
  std::remove(path.c_str());
}

TEST(TraceStream, HeaderPlusTrailerWithNoFooterIsRejected) {
  // The smallest file the size gate admits: a valid header butted
  // directly against a valid trailer (footer_offset == kHeaderBytes,
  // CRC of zero footer bytes).  The footer parser must then report the
  // truncation by the field it could not read, on both backends.
  Blob file;
  file.bytes(em2s::kMagic.data(), 4);
  file.put<std::uint32_t>(em2s::kVersion);
  file.put<std::uint32_t>(64);  // block_bytes
  file.put<std::uint32_t>(0);   // nthreads
  file.put<std::uint64_t>(em2s::kHeaderBytes);  // footer offset
  file.put<std::uint32_t>(em2s::crc32(std::span<const std::uint8_t>{}));
  file.bytes(em2s::kTrailerMagic.data(), 4);
  const std::string path = tmp_path("header_trailer_only.em2s");
  write_file(path, file.data);
  expect_defect([&] { (void)TraceStream(path); }, "truncated footer");
  TraceStream::Options istream_only;
  istream_only.force_istream = true;
  expect_defect([&] { (void)TraceStream(path, istream_only); },
                "truncated footer");
  std::remove(path.c_str());
}

TEST(TraceStream, TruncationAtEveryOffsetIsRejected) {
  // Every proper prefix must fail cleanly — the trailer dies first, so
  // no prefix can ever reach a cursor.  Every 7th prefix of a
  // multi-chunk file.
  const std::string full_path = tmp_path("trunc_full.em2s");
  TraceWriter::Options opts;
  opts.chunk_bytes = 64;
  ASSERT_TRUE(write_trace_stream(full_path, sample_traces(), opts));
  const std::string data = read_file(full_path);
  ASSERT_GT(data.size(), em2s::kHeaderBytes + em2s::kTrailerBytes);
  const std::string cut_path = tmp_path("trunc_cut.em2s");
  for (std::size_t cut = 0; cut < data.size(); cut += 7) {
    write_file(cut_path, data.substr(0, cut));
    EXPECT_THROW((void)TraceStream(cut_path), TraceFormatError) << cut;
  }
  std::remove(full_path.c_str());
  std::remove(cut_path.c_str());
}

TEST(TraceStream, BadMagicVersionBlockAndTrailerAreNamed) {
  MiniSpec s;
  s.payload = encode_records({{0x40, MemOp::kRead, 0}});
  const std::string good = build_mini(s);
  const std::string path = tmp_path("mini_patched.em2s");
  const auto patched = [&](std::size_t offset, char value) {
    std::string bad = good;
    bad[offset] = value;
    write_file(path, bad);
  };
  patched(0, 'X');
  expect_defect([&] { (void)TraceStream(path); }, "bad magic");
  patched(4, 99);  // version field
  expect_defect([&] { (void)TraceStream(path); }, "unsupported version");
  patched(8, 48);  // block_bytes low byte: 64 -> 48
  expect_defect([&] { (void)TraceStream(path); }, "power of two");
  patched(good.size() - 1, 'X');  // trailer magic
  expect_defect([&] { (void)TraceStream(path); }, "bad trailer magic");
  {
    // Footer offset pointing past the trailer.
    std::string bad = good;
    const std::uint64_t huge = good.size();
    std::memcpy(bad.data() + good.size() - em2s::kTrailerBytes, &huge, 8);
    write_file(path, bad);
    expect_defect([&] { (void)TraceStream(path); }, "footer offset");
  }
  std::remove(path.c_str());
}

TEST(TraceStream, FooterCrcMismatchIsRejected) {
  MiniSpec s;
  s.payload = encode_records({{0x40, MemOp::kRead, 0}});
  s.flip_footer_byte = true;
  const std::string path = tmp_path("mini_footer_crc.em2s");
  write_file(path, build_mini(s));
  expect_defect([&] { (void)TraceStream(path); }, "footer CRC mismatch");
  std::remove(path.c_str());
}

TEST(TraceStream, PayloadCrcMismatchIsRejectedByBothBackends) {
  // Header and footer agree on a wrong CRC (a consistent lie), so the
  // index parses; the payload check at chunk-open must still catch it.
  MiniSpec s;
  s.payload = encode_records({{0x40, MemOp::kRead, 0}});
  s.crc = em2s::crc32(s.payload) ^ 0xdeadbeefu;
  const std::string path = tmp_path("mini_payload_crc.em2s");
  write_file(path, build_mini(s));
  expect_defect([&] { (void)read_trace_stream(path); },
                "chunk payload CRC mismatch");
  TraceStream::Options opts;
  opts.force_istream = true;
  expect_defect([&] { (void)read_trace_stream(path, opts); },
                "chunk payload CRC mismatch");
  std::remove(path.c_str());
}

TEST(TraceStream, ChunkHeaderContradictingTheFooterIsRejected) {
  // The on-disk chunk header claims one more record than the
  // authenticated footer entry — exactly the unauthenticated-header
  // attack the trust model exists for.
  MiniSpec s;
  s.payload = encode_records({{0x40, MemOp::kRead, 0}});
  s.header_records = 2;
  const std::string path = tmp_path("mini_header_lie.em2s");
  write_file(path, build_mini(s));
  expect_defect([&] { (void)read_trace_stream(path); },
                "chunk header contradicts the footer index");
  std::remove(path.c_str());
}

TEST(TraceStream, RecordTotalDisagreeingWithChunkSumIsRejected) {
  MiniSpec s;
  s.payload = encode_records({{0x40, MemOp::kRead, 0}});
  s.footer_total = 6;
  const std::string path = tmp_path("mini_total_lie.em2s");
  write_file(path, build_mini(s));
  expect_defect([&] { (void)TraceStream(path); }, "chunk index sums to");
  std::remove(path.c_str());
}

TEST(TraceStream, OversizedRecordCountIsRejected) {
  // 4 payload bytes can hold at most 2 records (2 bytes minimum each);
  // a count of 4 must die in the ctor, before any allocation scales
  // with it.
  MiniSpec s;
  s.payload = {0x00, 0x00, 0x00, 0x00};
  s.records = 4;
  const std::string path = tmp_path("mini_oversized.em2s");
  write_file(path, build_mini(s));
  expect_defect([&] { (void)TraceStream(path); }, "cannot fit a payload");
  std::remove(path.c_str());
}

TEST(TraceStream, CorruptVarintLongerThanTenBytesIsRejected) {
  // Eleven continuation bytes: the decoder must bail at the 64-bit
  // bound, not keep shifting.
  MiniSpec s;
  s.payload.assign(11, 0x80);
  const std::string path = tmp_path("mini_varint_long.em2s");
  write_file(path, build_mini(s));
  expect_defect([&] { (void)read_trace_stream(path); },
                "corrupt varint: longer than 10 bytes");
  std::remove(path.c_str());
}

TEST(TraceStream, VarintRunningPastThePayloadIsRejected) {
  // First varint terminates; the second's continuation bit points past
  // the end of the chunk.
  MiniSpec s;
  s.payload = {0x00, 0x80};
  const std::string path = tmp_path("mini_varint_eof.em2s");
  write_file(path, build_mini(s));
  expect_defect([&] { (void)read_trace_stream(path); },
                "runs past the chunk payload");
  std::remove(path.c_str());
}

TEST(TraceStream, LeftoverPayloadBytesAreRejected) {
  // One record decodes from two bytes; the chunk claims four.  Silent
  // trailing garbage would mask encoder bugs, so it is an error.
  MiniSpec s;
  s.payload = {0x00, 0x00, 0x00, 0x00};
  s.records = 1;
  const std::string path = tmp_path("mini_leftover.em2s");
  write_file(path, build_mini(s));
  expect_defect([&] { (void)read_trace_stream(path); }, "leftover bytes");
  std::remove(path.c_str());
}

TEST(TraceStream, OutOfRangeGapIsRejected) {
  // addr delta 0, then packed gap/op varint of 2^33 — a gap beyond the
  // 32-bit field a real writer can never produce.
  MiniSpec s;
  std::vector<std::uint8_t> payload = {0x00};
  em2s::put_varint(payload, std::uint64_t{1} << 33);
  s.payload = payload;
  const std::string path = tmp_path("mini_gap.em2s");
  write_file(path, build_mini(s));
  expect_defect([&] { (void)read_trace_stream(path); }, "out of range");
  std::remove(path.c_str());
}

TEST(TraceStream, MissingFileIsRejected) {
  expect_defect([] { (void)TraceStream("/nonexistent/x.em2s"); },
                "cannot open");
}

}  // namespace
}  // namespace em2
