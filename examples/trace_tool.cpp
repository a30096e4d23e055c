// Trace utility: generate, save, load, and analyze EM2 memory traces —
// the bridge between this library and external tracers (any tool that can
// emit the documented .em2t text format can feed the simulators).
//
//   ./trace_tool --generate=ocean --threads=16 --out=ocean.em2t
//   ./trace_tool --in=ocean.em2t --stats
//   ./trace_tool --in=ocean.em2t --fig2                 # run-length bars
//   ./trace_tool --in=ocean.em2t --convert=ocean.em2s   # text -> EM2S
//
// --out and --convert pick the format from the extension: .em2t text or
// .em2s streaming EM2S.
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "api/system.hpp"
#include "trace/trace_io.hpp"
#include "util/args.hpp"
#include "util/ascii.hpp"
#include "util/table.hpp"
#include "workload/registry.hpp"

int main(int argc, char** argv) {
  const em2::Args args(argc, argv);
  for (const auto& err : args.errors()) {
    std::fprintf(stderr, "warning: %s\n", err.c_str());
  }

  std::optional<em2::TraceSet> traces;
  const std::string gen = args.get_string("generate", "");
  const std::string in = args.get_string("in", "");
  if (!gen.empty()) {
    const auto threads =
        static_cast<std::int32_t>(args.get_int("threads", 16));
    const auto scale = static_cast<std::int32_t>(args.get_int("scale", 1));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    traces = em2::workload::make_by_name(gen, threads, scale, seed);
    if (!traces) {
      std::fprintf(stderr, "unknown workload '%s'; known:", gen.c_str());
      for (const auto& n : em2::workload::workload_names()) {
        std::fprintf(stderr, " %s", n.c_str());
      }
      std::fprintf(stderr, "\n");
      return 1;
    }
  } else if (!in.empty()) {
    // load_trace throws for a missing, unreadable or malformed file.
    try {
      traces = em2::load_trace(in);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: cannot load '%s': %s\n", in.c_str(),
                   e.what());
      return 1;
    }
  } else {
    std::fprintf(stderr,
                 "usage: trace_tool --generate=<workload>|--in=<file> "
                 "[--out=<file.em2t|file.em2s>] "
                 "[--convert=<file.em2t|file.em2s>] [--stats] [--fig2]\n");
    return 1;
  }

  // save_trace throws for an extension other than .em2t or .em2s.
  const auto save = [&](const std::string& path) {
    try {
      return em2::save_trace(path, *traces);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return false;
    }
  };
  const std::string out = args.get_string("out", "");
  if (!out.empty()) {
    if (!save(out)) {
      return 1;
    }
    std::printf("wrote %s (%llu accesses, %zu threads)\n", out.c_str(),
                static_cast<unsigned long long>(traces->total_accesses()),
                traces->num_threads());
  }
  const std::string convert = args.get_string("convert", "");
  if (!convert.empty()) {
    if (!save(convert)) {
      return 1;
    }
    std::printf("converted to %s\n", convert.c_str());
  }

  if (args.get_bool("stats", false)) {
    em2::Table t({"thread", "native", "accesses", "reads", "writes",
                  "distinct_blocks"});
    for (const auto& thread : traces->threads()) {
      std::uint64_t reads = 0;
      std::uint64_t writes = 0;
      std::vector<em2::Addr> blocks;
      thread.for_each([&](const em2::Access& a) {
        (a.op == em2::MemOp::kRead ? reads : writes) += 1;
        blocks.push_back(traces->block_of(a.addr));
      });
      std::sort(blocks.begin(), blocks.end());
      blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
      t.begin_row()
          .add_cell(static_cast<std::int64_t>(thread.thread()))
          .add_cell(static_cast<std::int64_t>(thread.native_core()))
          .add_cell(static_cast<std::uint64_t>(thread.size()))
          .add_cell(reads)
          .add_cell(writes)
          .add_cell(static_cast<std::uint64_t>(blocks.size()));
    }
    t.print(std::cout);
  }

  if (args.get_bool("fig2", false)) {
    em2::SystemConfig cfg;
    cfg.threads = static_cast<std::int32_t>(traces->num_threads());
    em2::System sys(cfg);
    const em2::RunLengthReport r = sys.analyze_run_lengths(*traces);
    std::printf("\nrun-length histogram of non-native accesses "
                "(run-length-1 share: %.1f%%):\n",
                100.0 * r.fraction_accesses_in_len1_runs());
    em2::print_histogram_bars(std::cout, r.accesses_by_run_length, 50, 60);
  }
  return 0;
}
