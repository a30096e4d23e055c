#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace em2 {
namespace {

TraceSet sample_traces() {
  TraceSet ts(64);
  ThreadTrace t0(0, 0);
  t0.append(0x1000, MemOp::kRead, 3);
  t0.append(0x1004, MemOp::kWrite, 0);
  ThreadTrace t1(1, 2);
  t1.append(0xdeadbeef, MemOp::kRead, 0);
  ts.add_thread(std::move(t0));
  ts.add_thread(std::move(t1));
  return ts;
}

void expect_equal(const TraceSet& a, const TraceSet& b) {
  ASSERT_EQ(a.num_threads(), b.num_threads());
  EXPECT_EQ(a.block_bytes(), b.block_bytes());
  for (std::size_t i = 0; i < a.num_threads(); ++i) {
    const ThreadTrace& ta = a.thread(i);
    const ThreadTrace& tb = b.thread(i);
    EXPECT_EQ(ta.thread(), tb.thread());
    EXPECT_EQ(ta.native_core(), tb.native_core());
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t k = 0; k < ta.size(); ++k) {
      EXPECT_EQ(ta[k], tb[k]);
    }
  }
}

TEST(TraceIo, TextRoundTrip) {
  const TraceSet original = sample_traces();
  std::stringstream ss;
  ASSERT_TRUE(write_trace_text(ss, original));
  expect_equal(original, read_trace_text(ss));
}

TEST(TraceIo, TextFormatIsHumanReadable) {
  std::stringstream ss;
  write_trace_text(ss, sample_traces());
  const std::string out = ss.str();
  EXPECT_NE(out.find("blocksize 64"), std::string::npos);
  EXPECT_NE(out.find("thread 0 native 0"), std::string::npos);
  EXPECT_NE(out.find("R 1000 3"), std::string::npos);
  EXPECT_NE(out.find("W 1004"), std::string::npos);
}

TEST(TraceIo, TextParserAcceptsCommentsAndBlankLines) {
  std::stringstream ss;
  ss << "# a comment\n\nblocksize 32\nthread 0 native 1\nR ff\n";
  const TraceSet loaded = read_trace_text(ss);
  EXPECT_EQ(loaded.block_bytes(), 32u);
  EXPECT_EQ(loaded.thread(0).native_core(), 1);
  EXPECT_EQ(loaded.thread(0)[0].addr, 0xffu);
}

TEST(TraceIo, TextParserRejectsGarbage) {
  std::stringstream ss;
  ss << "thread 0 native 0\nX 100\n";
  EXPECT_THROW(read_trace_text(ss), TraceFormatError);
}

TEST(TraceIo, TextParserRejectsAccessBeforeThread) {
  std::stringstream ss;
  ss << "R 100\n";
  EXPECT_THROW(read_trace_text(ss), TraceFormatError);
}

TEST(TraceIo, TextParserRejectsNonPowerOfTwoBlocksize) {
  // Used to reach TraceSet's internal assert; now a format error.
  std::stringstream ss;
  ss << "blocksize 48\nthread 0 native 0\nR 100\n";
  EXPECT_THROW(read_trace_text(ss), TraceFormatError);
}

TEST(TraceIo, TextParserRejectsNonDenseThreadIds) {
  std::stringstream ss;
  ss << "thread 3 native 0\nR 100\n";
  EXPECT_THROW(read_trace_text(ss), TraceFormatError);
}

TEST(TraceIo, TextParserRejectsNegativeNativeCore) {
  std::stringstream ss;
  ss << "thread 0 native -2\nR 100\n";
  EXPECT_THROW(read_trace_text(ss), TraceFormatError);
}

TEST(TraceIo, EmptyTraceSetRoundTrips) {
  const TraceSet empty(128);
  std::stringstream ss;
  ASSERT_TRUE(write_trace_text(ss, empty));
  const TraceSet loaded = read_trace_text(ss);
  EXPECT_EQ(loaded.num_threads(), 0u);
  EXPECT_EQ(loaded.block_bytes(), 128u);
}

TEST(TraceIo, LoadTraceThrowsOnMissingFile) {
  EXPECT_THROW(load_trace("/nonexistent/path/to/trace.bin"),
               TraceFormatError);
}

// ---------------------------------------------------------------------
// load_trace dispatches on content, not extension: the EM2S magic and a
// printable prefix decide; the extension is only a hint in the error
// message for unidentifiable bytes.

std::string io_tmp_path(const std::string& name) {
  return testing::TempDir() + "trace_io_" + name;
}

TEST(TraceIo, LoadTraceSniffsTextUnderABinaryExtension) {
  const std::string path = io_tmp_path("text_as.bin");
  std::ofstream out(path);
  ASSERT_TRUE(write_trace_text(out, sample_traces()));
  out.close();
  // The extension names no format; the bytes say text.  Content wins.
  expect_equal(sample_traces(), load_trace(path));
  std::remove(path.c_str());
}

TEST(TraceIo, LoadTraceSniffsStreamUnderAForeignExtension) {
  const std::string path = io_tmp_path("stream_as.trace");
  const TraceSet original = sample_traces();
  ASSERT_TRUE(save_trace(io_tmp_path("stream_as.em2s"), original));
  // Rename-by-rewrite: save under the canonical name, copy the bytes to
  // a name that hints no format.
  {
    std::ifstream in(io_tmp_path("stream_as.em2s"), std::ios::binary);
    std::ofstream out(path, std::ios::binary);
    out << in.rdbuf();
  }
  expect_equal(original, load_trace(path));
  std::remove(path.c_str());
  std::remove(io_tmp_path("stream_as.em2s").c_str());
}

TEST(TraceIo, SaveTraceEm2sExtensionRoundTrips) {
  const std::string path = io_tmp_path("canonical.em2s");
  const TraceSet original = sample_traces();
  ASSERT_TRUE(save_trace(path, original));
  expect_equal(original, load_trace(path));
  std::remove(path.c_str());
}

TEST(TraceIo, SaveTraceRejectsAnUnknownExtension) {
  const std::string path = io_tmp_path("unknown_extension.bin");
  try {
    (void)save_trace(path, sample_traces());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(".em2t"), std::string::npos) << what;
    EXPECT_NE(what.find(".em2s"), std::string::npos) << what;
  }
  // Nothing was written.
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(TraceIo, LoadTraceNamesBothCandidatesOnUnidentifiableBytes) {
  // No magic, not printable: the error must say what the sniff found
  // AND what the (here misleading) extension suggested.
  const std::string path = io_tmp_path("garbage.em2s");
  {
    std::ofstream out(path, std::ios::binary);
    const unsigned char junk[16] = {0xfe, 0x01, 0x9a, 0x00, 0x7f, 0xc3,
                                    0x11, 0x80, 0x55, 0xaa, 0x03, 0xe9,
                                    0x42, 0x00, 0xff, 0x10};
    out.write(reinterpret_cast<const char*>(junk), sizeof junk);
  }
  try {
    (void)load_trace(path);
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot identify the format"), std::string::npos)
        << what;
    EXPECT_NE(what.find("EM2S stream"), std::string::npos) << what;
    EXPECT_NE(what.find("candidates"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(TraceIo, ErrorMessagesNameTheDefect) {
  std::stringstream ss;
  ss << "blocksize 48\n";
  try {
    (void)read_trace_text(ss);
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("power of two"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace em2
