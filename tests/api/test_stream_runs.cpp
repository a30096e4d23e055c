// Out-of-core runs through the System facade: a trace streamed from an
// EM2S file must produce a RunReport identical, field for field, to the
// same trace run from memory — on every architecture and in every mode —
// while the reader's own accounting proves the resident trace memory
// never exceeded RunSpec::stream_window.
#include "api/system.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "trace/stream/convert.hpp"
#include "trace/stream/reader.hpp"
#include "trace/trace.hpp"
#include "workload/registry.hpp"

namespace em2 {
namespace {

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "em2s_runs_" + name;
}

/// Field-for-field RunReport comparison — EXPECT per field so a
/// divergence names exactly what broke, instead of a blind memcmp.
void expect_identical(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.arch, b.arch);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.arch_label, b.arch_label);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.remote_accesses, b.remote_accesses);
  EXPECT_EQ(a.replicated_reads, b.replicated_reads);
  EXPECT_EQ(a.network_cost, b.network_cost);
  EXPECT_EQ(a.traffic_bits, b.traffic_bits);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.cost_per_access, b.cost_per_access);

  const RunLengthReport& ra = a.run_lengths;
  const RunLengthReport& rb = b.run_lengths;
  EXPECT_EQ(ra.total_accesses, rb.total_accesses);
  EXPECT_EQ(ra.native_accesses, rb.native_accesses);
  EXPECT_EQ(ra.nonnative_accesses, rb.nonnative_accesses);
  EXPECT_EQ(ra.migrations, rb.migrations);
  EXPECT_EQ(ra.nonnative_runs, rb.nonnative_runs);
  EXPECT_EQ(ra.nonnative_runs_len1, rb.nonnative_runs_len1);
  EXPECT_EQ(ra.return_to_origin_runs, rb.return_to_origin_runs);
  EXPECT_EQ(ra.return_to_origin_runs_len1, rb.return_to_origin_runs_len1);
  EXPECT_EQ(ra.accesses_by_run_length.bins(),
            rb.accesses_by_run_length.bins());
  EXPECT_EQ(ra.runs_by_run_length.bins(), rb.runs_by_run_length.bins());

  ASSERT_EQ(a.exec.has_value(), b.exec.has_value());
  if (a.exec) {
    EXPECT_EQ(a.exec->cycles, b.exec->cycles);
    EXPECT_EQ(a.exec->instructions, b.exec->instructions);
    EXPECT_EQ(a.exec->consistent, b.exec->consistent);
    EXPECT_EQ(a.exec->timed_out, b.exec->timed_out);
  }
  ASSERT_EQ(a.optimal.has_value(), b.optimal.has_value());
  if (a.optimal) {
    EXPECT_EQ(a.optimal->cost, b.optimal->cost);
    EXPECT_EQ(a.optimal->migrations, b.optimal->migrations);
    EXPECT_EQ(a.optimal->remote_accesses, b.optimal->remote_accesses);
  }
  ASSERT_EQ(a.cc.has_value(), b.cc.has_value());
  if (a.cc) {
    EXPECT_EQ(a.cc->replication_factor, b.cc->replication_factor);
    EXPECT_EQ(a.cc->directory_bits, b.cc->directory_bits);
  }
  ASSERT_EQ(a.noc.has_value(), b.noc.has_value());
  if (a.noc) {
    EXPECT_EQ(a.noc->contention, b.noc->contention);
    EXPECT_EQ(a.noc->utilization, b.noc->utilization);
    EXPECT_EQ(a.noc->corrected_per_hop, b.noc->corrected_per_hop);
    EXPECT_EQ(a.noc->calibration_packets, b.noc->calibration_packets);
    EXPECT_EQ(a.noc->calibration_cycles, b.noc->calibration_cycles);
    EXPECT_EQ(a.noc->measured_total_latency, b.noc->measured_total_latency);
    EXPECT_EQ(a.noc->predicted_total_latency,
              b.noc->predicted_total_latency);
  }
  EXPECT_EQ(a.error, b.error);
}

/// Ocean at 16 threads, spilled to a temp EM2S file.  Returns the path;
/// the caller owns cleanup.
TraceSet spill(const std::string& path, std::int32_t threads,
               std::uint64_t seed) {
  auto traces = workload::make_by_name("ocean", threads, 1, seed);
  EXPECT_TRUE(traces.has_value());
  EXPECT_TRUE(write_trace_stream(path, *traces));
  return *std::move(traces);
}

/// `traces` with thread 5 widened by a final 64-bit access after a gap of
/// 32: a set that mixes the narrow and the wide in-memory layouts.
TraceSet with_one_wide_thread(const TraceSet& traces) {
  TraceSet out(traces.block_bytes());
  for (std::size_t t = 0; t < traces.num_threads(); ++t) {
    ThreadTrace thread = traces.thread(t);
    if (t == 5) {
      thread.append(0x1'0000'0040ull, MemOp::kWrite, 32);
    }
    out.add_thread(std::move(thread));
  }
  EXPECT_TRUE(out.thread(5).wide());
  EXPECT_FALSE(out.thread(4).wide());
  return out;
}

TEST(StreamRuns, TraceModeMatchesInMemoryOnAllArches) {
  const std::string path = tmp_path("arches.em2s");
  const TraceSet narrow = spill(path, 16, 11);
  const TraceSet mixed = with_one_wide_thread(narrow);
  System sys({.threads = 16});
  for (const TraceSet* traces : {&narrow, &mixed}) {
    ASSERT_TRUE(write_trace_stream(path, *traces));
    for (const MemArch arch :
         {MemArch::kEm2, MemArch::kEm2Ra, MemArch::kCc}) {
      RunSpec spec;
      spec.arch = arch;
      spec.policy = "history";
      const RunReport memory = sys.run(*traces, spec);
      const TraceStream stream(path);
      const RunReport streamed = sys.run(stream, spec);
      expect_identical(memory, streamed);
    }
  }
  std::remove(path.c_str());
}

TEST(StreamRuns, ReplicationMatchesInMemory) {
  // Replication profiles the trace in one extra pass, so a streamed
  // source walks its chunks twice — both passes must see identical
  // bytes.
  const std::string path = tmp_path("replication.em2s");
  const TraceSet traces = spill(path, 16, 13);
  System sys({.threads = 16});
  RunSpec spec;
  spec.arch = MemArch::kEm2;
  spec.replication = true;
  const TraceStream stream(path);
  expect_identical(sys.run(traces, spec), sys.run(stream, spec));
  std::remove(path.c_str());
}

TEST(StreamRuns, MeasuredContentionMatchesInMemory) {
  // kMeasured adds the calibration traffic pass — a third independent
  // cursor walk over the streamed source.
  const std::string path = tmp_path("contention.em2s");
  const TraceSet traces = spill(path, 16, 17);
  System sys({.threads = 16});
  RunSpec spec;
  spec.arch = MemArch::kEm2;
  spec.contention = ContentionMode::kMeasured;
  spec.calibration_packets = 2'000;
  const TraceStream stream(path);
  expect_identical(sys.run(traces, spec), sys.run(stream, spec));
  std::remove(path.c_str());
}

TEST(StreamRuns, ExecAndOptimalModesMaterializeStreamedSources) {
  // Exec needs whole programs and optimal needs whole home sequences, so
  // a streamed source is materialized — and must land on the exact same
  // reports as the in-memory TraceSet.
  const std::string path = tmp_path("modes.em2s");
  const TraceSet traces = spill(path, 16, 19);
  System sys({.threads = 16});
  for (const RunMode mode : {RunMode::kExec, RunMode::kOptimal}) {
    RunSpec spec;
    spec.mode = mode;
    const RunReport memory = sys.run(traces, spec);
    const TraceStream stream(path);
    const RunReport streamed = sys.run(stream, spec);
    expect_identical(memory, streamed);
  }
  std::remove(path.c_str());
}

TEST(StreamRuns, WindowBelowTheSourceMinimumThrowsAtEntry) {
  const std::string path = tmp_path("bad_window.em2s");
  const TraceSet traces = spill(path, 16, 23);
  System sys({.threads = 16});
  const TraceStream stream(path);
  RunSpec spec;
  spec.stream_window = 1;  // 16 threads need 16 * kMinCursorBytes
  EXPECT_THROW((void)sys.run(stream, spec), std::invalid_argument);
  // The same window on an in-memory source is meaningless and ignored.
  EXPECT_NO_THROW((void)sys.run(traces, spec));
  std::remove(path.c_str());
}

TEST(StreamRuns, OutOfCoreRunStaysWithinTheWindowOnAllArches) {
  // The acceptance property: a trace >= 10x the stream window completes
  // trace-mode runs on all three architectures with the reader's own
  // accounting bounded by the window — and the reports still match the
  // in-memory runs exactly.
  TraceSet ts(64);
  for (std::int32_t t = 0; t < 8; ++t) {
    ThreadTrace tt(t, t);
    std::uint64_t addr = 0x10000u * static_cast<std::uint64_t>(t + 1);
    for (int k = 0; k < 60'000; ++k) {
      addr += static_cast<std::uint64_t>((k * 2654435761u) % 65536);
      tt.append(addr, (k & 3) == 0 ? MemOp::kWrite : MemOp::kRead,
                static_cast<std::uint32_t>(k % 5));
    }
    ts.add_thread(std::move(tt));
  }
  const std::string path = tmp_path("out_of_core.em2s");
  ASSERT_TRUE(write_trace_stream(path, ts));

  const std::uint64_t window = 128 * 1024;
  const TraceStream stream(path);
  ASSERT_GE(stream.file_bytes(), 10 * window)
      << "trace too small to demonstrate out-of-core operation";

  System sys({.threads = 8});
  for (const MemArch arch :
       {MemArch::kEm2, MemArch::kEm2Ra, MemArch::kCc}) {
    RunSpec spec;
    spec.arch = arch;
    spec.policy = "history";
    spec.stream_window = window;
    const RunReport memory = sys.run(ts, spec);
    const RunReport streamed = sys.run(stream, spec);
    expect_identical(memory, streamed);
    EXPECT_LE(stream.peak_resident_trace_bytes(), window)
        << to_string(arch);
    EXPECT_GT(stream.peak_resident_trace_bytes(), 0u);
  }
  EXPECT_EQ(stream.resident_trace_bytes(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace em2
