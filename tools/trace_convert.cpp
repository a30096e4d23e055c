// Trace format converter: either on-disk trace format (text .em2t,
// streaming EM2S .em2s) to the other, with an optional read-back
// verification pass.
//
//   trace_convert --in=ocean.em2t --out=ocean.em2s            # to stream
//   trace_convert --in=ocean.em2s --out=ocean.em2t --verify   # to text
//   trace_convert --in=big.em2t --out=big.em2s --chunk-bytes=65536 --verify
//   trace_convert --in=big.em2t --out=big.em2s --codec=em2z   # compressed
//
// The input format is sniffed from the file's content (the EM2S magic is
// decisive, printable bytes mean text), the output format follows the
// --out extension: ".em2t" text, ".em2s" streaming EM2S; any other
// extension is an error.  --chunk-bytes sets the EM2S chunk
// target (>= 64) and --codec=none|em2z selects per-chunk compression
// (both only meaningful for a .em2s output; em2z files read back
// everywhere — the codec is built into the stream reader).  --verify
// reloads the written file and fails unless it is bit-identical to the
// input.
#include <cstdio>
#include <exception>
#include <string>

#include "trace/stream/codec.hpp"
#include "trace/stream/convert.hpp"
#include "trace/trace_io.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  const em2::Args args(argc, argv);
  for (const auto& err : args.errors()) {
    std::fprintf(stderr, "warning: %s\n", err.c_str());
  }
  const std::string in = args.get_string("in", "");
  const std::string out = args.get_string("out", "");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr,
                 "usage: trace_convert --in=<file> --out=<file.em2t|"
                 "file.em2s> [--chunk-bytes=N] [--codec=none|em2z] "
                 "[--verify]\n");
    return 2;
  }

  try {
    const em2::TraceSet traces = em2::load_trace(in);
    const bool stream_out =
        out.size() >= 5 && out.compare(out.size() - 5, 5, ".em2s") == 0;
    const std::string codec = args.get_string("codec", "none");
    if (codec != "none" && codec != "em2z") {
      std::fprintf(stderr, "error: unknown --codec=%s (none|em2z)\n",
                   codec.c_str());
      return 2;
    }
    const em2::em2s::Em2zCodec em2z;
    bool ok = false;
    if (stream_out && (args.has("chunk-bytes") || codec != "none")) {
      em2::TraceWriter::Options opts;
      opts.chunk_bytes = static_cast<std::uint32_t>(
          args.get_int("chunk-bytes", 64 * 1024));
      if (codec == "em2z") {
        opts.codec = &em2z;
      }
      ok = em2::write_trace_stream(out, traces, opts);
    } else {
      ok = em2::save_trace(out, traces);
    }
    if (!ok) {
      std::fprintf(stderr, "error: failed to write %s\n", out.c_str());
      return 1;
    }
    std::printf("%s -> %s (%llu accesses, %zu threads)\n", in.c_str(),
                out.c_str(),
                static_cast<unsigned long long>(traces.total_accesses()),
                traces.num_threads());
    if (args.has("verify")) {
      if (!em2::equal_traces(traces, em2::load_trace(out))) {
        std::fprintf(stderr,
                     "error: verification FAILED — %s does not round-trip "
                     "to the input\n",
                     out.c_str());
        return 1;
      }
      std::printf("verified: %s round-trips bit-identically\n",
                  out.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
