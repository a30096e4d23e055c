#include "trace/stream/codec.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "trace/stream/format.hpp"
#include "trace/trace_io.hpp"

namespace em2::em2s {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 131;   // (127 >> 0) + kMinMatch
constexpr std::size_t kMaxLiteralRun = 128;
constexpr std::uint32_t kHashBits = 15;
constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;

std::uint32_t hash4(const std::uint8_t* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16) |
                          (static_cast<std::uint32_t>(p[3]) << 24);
  return (v * 2654435761u) >> (32 - kHashBits);
}

[[noreturn]] void fail(const std::string& what) {
  throw TraceFormatError("em2z: " + what);
}

}  // namespace

std::vector<std::uint8_t> Em2zCodec::compress(
    std::span<const std::uint8_t> raw) const {
  const std::size_t n = raw.size();
  std::vector<std::uint8_t> out;
  out.reserve(n / 2 + 16);
  // Greedy single-probe matcher: table[h] remembers the most recent
  // position whose 4-byte prefix hashed to h.  Good ratios on the
  // stride-repeat payloads this codec exists for, and cheap enough to
  // run on every flushed chunk.
  std::vector<std::uint32_t> table(1u << kHashBits, kNoPos);
  std::size_t lit_start = 0;  // first byte not yet emitted as a literal
  const auto flush_literals = [&](std::size_t end) {
    while (lit_start < end) {
      const std::size_t run = std::min(end - lit_start, kMaxLiteralRun);
      out.push_back(static_cast<std::uint8_t>((run - 1) << 1));
      out.insert(out.end(), raw.begin() + static_cast<std::ptrdiff_t>(lit_start),
                 raw.begin() + static_cast<std::ptrdiff_t>(lit_start + run));
      lit_start += run;
    }
  };
  std::size_t i = 0;
  while (i + kMinMatch <= n) {
    const std::uint32_t h = hash4(raw.data() + i);
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(i);
    if (cand == kNoPos ||
        !std::equal(raw.begin() + static_cast<std::ptrdiff_t>(i),
                    raw.begin() + static_cast<std::ptrdiff_t>(i + kMinMatch),
                    raw.begin() + cand)) {
      ++i;
      continue;
    }
    std::size_t len = kMinMatch;
    const std::size_t cap = std::min(kMaxMatch, n - i);
    while (len < cap && raw[cand + len] == raw[i + len]) {
      ++len;
    }
    flush_literals(i);
    out.push_back(static_cast<std::uint8_t>(((len - kMinMatch) << 1) | 1));
    put_varint(out, static_cast<std::uint64_t>(i) - cand);
    // Seed the skipped positions too: the next stride repeat wants to
    // land just past this match, not back at its start.
    const std::size_t stop = std::min(i + len, n - kMinMatch + 1);
    for (std::size_t j = i + 1; j < stop; ++j) {
      table[hash4(raw.data() + j)] = static_cast<std::uint32_t>(j);
    }
    i += len;
    lit_start = i;
  }
  flush_literals(n);
  return out;
}

std::vector<std::uint8_t> Em2zCodec::decompress(
    std::span<const std::uint8_t> stored, std::size_t raw_bytes) const {
  std::vector<std::uint8_t> out(raw_bytes);
  std::uint8_t* const o = out.data();
  std::size_t n = 0;  // bytes produced
  std::size_t p = 0;
  const auto need = [&](std::size_t k) {
    if (stored.size() - p < k) {
      fail("truncated token stream");
    }
  };
  while (n < raw_bytes) {
    need(1);
    const std::uint8_t c = stored[p++];
    if ((c & 1) == 0) {
      const std::size_t run = static_cast<std::size_t>(c >> 1) + 1;
      need(run);
      if (raw_bytes - n < run) {
        fail("literal run overruns the declared raw size");
      }
      std::memcpy(o + n, stored.data() + p, run);
      p += run;
      n += run;
      continue;
    }
    const std::size_t len = static_cast<std::size_t>(c >> 1) + kMinMatch;
    std::uint64_t dist = 0;
    for (std::uint32_t shift = 0;; shift += 7) {
      need(1);
      const std::uint8_t b = stored[p++];
      if (shift >= 63 && (shift > 63 || b > 1)) {
        fail("match distance varint overflows 64 bits");
      }
      dist |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        break;
      }
    }
    if (dist == 0 || dist > n) {
      fail("match distance of " + std::to_string(dist) +
           " reaches outside the produced output");
    }
    if (raw_bytes - n < len) {
      fail("match overruns the declared raw size");
    }
    // Forward copy: every source byte precedes its destination byte.  At
    // dist >= 8 an 8-byte step reads only bytes already produced; a
    // shorter distance is the legal RLE-style overlap, copied byte by
    // byte.
    const std::uint8_t* src = o + n - static_cast<std::size_t>(dist);
    std::uint8_t* dst = o + n;
    std::size_t k = 0;
    if (dist >= 8) {
      for (; k + 8 <= len; k += 8) {
        std::memcpy(dst + k, src + k, 8);
      }
    }
    for (; k < len; ++k) {
      dst[k] = src[k];
    }
    n += len;
  }
  if (p != stored.size()) {
    fail("trailing bytes after the final token");
  }
  return out;
}

}  // namespace em2::em2s
