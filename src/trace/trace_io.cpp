#include "trace/trace_io.hpp"

#include <array>
#include <bit>
#include <cctype>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>

#include "trace/stream/convert.hpp"

namespace em2 {
namespace {

[[noreturn]] void fail(const std::string& why) {
  throw TraceFormatError("trace load failed: " + why);
}

/// Block sizes feed TraceSet's shift computation (an internal assert);
/// a file gets an exception instead.
void check_block_bytes(std::uint64_t block_bytes) {
  if (block_bytes == 0 || block_bytes > (std::uint64_t{1} << 31) ||
      !std::has_single_bit(block_bytes)) {
    fail("block size must be a power of two in [1, 2^31], got " +
         std::to_string(block_bytes));
  }
}

/// Thread ids must be dense and in order (TraceSet::add_thread asserts
/// it); natives merely non-negative — the mesh bound is the simulator's
/// concern, not the file format's.
void check_thread_header(ThreadId tid, CoreId native,
                         std::size_t expected) {
  if (tid != static_cast<ThreadId>(expected)) {
    fail("thread ids must be dense and ascending: expected " +
         std::to_string(expected) + ", got " + std::to_string(tid));
  }
  if (native < 0) {
    fail("negative native core " + std::to_string(native) + " for thread " +
         std::to_string(tid));
  }
}

}  // namespace

bool write_trace_text(std::ostream& os, const TraceSet& traces) {
  os << "# EM2 memory trace (text format v1)\n";
  os << "blocksize " << traces.block_bytes() << "\n";
  for (const auto& t : traces.threads()) {
    os << "thread " << t.thread() << " native " << t.native_core() << "\n";
    t.for_each([&](const Access& a) {
      os << to_string(a.op) << " " << std::hex << a.addr << std::dec;
      if (a.gap != 0) {
        os << " " << a.gap;
      }
      os << "\n";
    });
  }
  return static_cast<bool>(os);
}

TraceSet read_trace_text(std::istream& is) {
  std::string line;
  std::uint32_t block_bytes = 64;
  std::optional<TraceSet> result;
  std::optional<ThreadTrace> current;

  auto flush_thread = [&]() {
    if (current) {
      result->add_thread(std::move(*current));
      current.reset();
    }
  };

  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    std::string head;
    ls >> head;
    if (head == "blocksize") {
      if (result) {
        fail("blocksize after thread data");
      }
      std::uint64_t parsed = 0;
      if (!(ls >> parsed)) {
        fail("malformed blocksize line: " + line);
      }
      check_block_bytes(parsed);
      block_bytes = static_cast<std::uint32_t>(parsed);
    } else if (head == "thread") {
      if (!result) {
        check_block_bytes(block_bytes);
        result.emplace(block_bytes);
      }
      flush_thread();
      ThreadId tid = 0;
      std::string kw;
      CoreId native = 0;
      if (!(ls >> tid >> kw >> native) || kw != "native") {
        fail("malformed thread line: " + line);
      }
      check_thread_header(tid, native, result->num_threads());
      current.emplace(tid, native);
    } else if (head == "R" || head == "W") {
      if (!current) {
        fail("access record before any thread line");
      }
      Access a;
      a.op = head == "R" ? MemOp::kRead : MemOp::kWrite;
      if (!(ls >> std::hex >> a.addr >> std::dec)) {
        fail("malformed access line: " + line);
      }
      ls >> a.gap;  // optional; absence leaves gap = 0
      current->append(a);
    } else {
      fail("unknown directive: " + head);
    }
  }
  if (!result) {
    check_block_bytes(block_bytes);
    result.emplace(block_bytes);
  }
  flush_thread();
  return *std::move(result);
}

namespace {

bool has_suffix(const std::string& path, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return path.size() >= n &&
         path.compare(path.size() - n, n, suffix) == 0;
}

enum class SniffedFormat { kText, kStream, kUnknown };

const char* format_name(SniffedFormat f) {
  switch (f) {
    case SniffedFormat::kText:
      return "text";
    case SniffedFormat::kStream:
      return "EM2S stream";
    case SniffedFormat::kUnknown:
      break;
  }
  return "unknown";
}

/// What the leading bytes say the file is.  The EM2S magic is decisive;
/// a run of printable/whitespace bytes reads as the text format; anything
/// else is unidentifiable.
SniffedFormat sniff_format(const char* head, std::size_t n) {
  if (n >= 4 && std::memcmp(head, em2s::kMagic.data(), 4) == 0) {
    return SniffedFormat::kStream;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char c = static_cast<unsigned char>(head[i]);
    if (std::isprint(c) == 0 && std::isspace(c) == 0) {
      return SniffedFormat::kUnknown;
    }
  }
  return SniffedFormat::kText;
}

/// What the extension promises — used only as the tiebreaker in error
/// messages, never to override what the content says.
SniffedFormat extension_hint(const std::string& path) {
  if (has_suffix(path, ".em2t")) {
    return SniffedFormat::kText;
  }
  if (has_suffix(path, ".em2s")) {
    return SniffedFormat::kStream;
  }
  return SniffedFormat::kUnknown;
}

}  // namespace

bool save_trace(const std::string& path, const TraceSet& traces) {
  if (has_suffix(path, ".em2s")) {
    return write_trace_stream(path, traces);
  }
  if (!has_suffix(path, ".em2t")) {
    throw std::invalid_argument(
        "save_trace: cannot tell the format of " + path +
        " from its extension (use .em2t for text or .em2s for EM2S)");
  }
  std::ofstream out(path);
  return out && write_trace_text(out, traces);
}

TraceSet load_trace(const std::string& path) {
  // Dispatch on what the file IS, not what it is called: sniff the
  // leading bytes and only consult the extension to phrase the error
  // when the content is unidentifiable.  Text saved under a stream name
  // (or vice versa) therefore loads correctly instead of mis-parsing.
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail("cannot open " + path);
  }
  std::array<char, 16> head{};
  in.read(head.data(), head.size());
  const std::size_t got = static_cast<std::size_t>(in.gcount());
  const SniffedFormat content = sniff_format(head.data(), got);
  if (content == SniffedFormat::kUnknown) {
    fail("cannot identify the format of " + path +
         ": the leading bytes carry no EM2S magic and are not text, and "
         "the extension suggests " +
         format_name(extension_hint(path)) +
         " (candidates: text, EM2S stream)");
  }
  if (content == SniffedFormat::kStream) {
    in.close();
    return read_trace_stream(path);
  }
  in.clear();  // a file shorter than the sniff buffer set eofbit
  in.seekg(0);
  return read_trace_text(in);
}

}  // namespace em2
