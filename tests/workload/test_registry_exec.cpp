// The registry's execution ports: every named workload must materialize
// as an executable program suite whose access stream replays the trace
// generator exactly, run consistently under the execution-driven engine,
// and show an access mix (migration/remote ratios) that tracks the
// trace-driven run at the same seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/system.hpp"
#include "arch/reg_isa.hpp"
#include "workload/registry.hpp"
#include "workload/replay.hpp"
#include "workload/workload.hpp"

namespace em2 {
namespace {

/// Runs `program` functionally and returns the yielded access stream.
std::vector<Access> replayed_accesses(const RProgram& program,
                                      ThreadId thread, CoreId native) {
  RegInterpreter interp(program);
  ExecutionContext ctx;
  ctx.thread = thread;
  ctx.native_core = native;
  FunctionalMemory mem;
  std::vector<Access> out;
  for (std::uint64_t step = 0; step < 100'000'000ull; ++step) {
    const StepResult r = interp.step(ctx);
    if (r.kind == StepKind::kDone) {
      return out;
    }
    if (r.kind == StepKind::kMem) {
      out.push_back(Access{r.mem.addr, r.mem.op, 0});
      if (r.mem.op == MemOp::kRead) {
        RegInterpreter::complete_load(ctx, r.mem.dst_reg,
                                      mem.load(r.mem.addr));
      } else {
        mem.store(r.mem.addr, r.mem.store_value);
      }
    }
  }
  ADD_FAILURE() << "program did not halt";
  return out;
}

TEST(RegistryExec, ReplayProgramsReproduceTraceStreamExactly) {
  const auto w = workload::make_workload("radix", 8, 1, 7);
  const std::vector<RProgram> programs = w.programs();
  ASSERT_EQ(programs.size(), w.traces().num_threads());
  for (std::size_t t = 0; t < programs.size(); ++t) {
    const ThreadTrace& trace = w.traces().thread(t);
    const std::vector<Access> got = replayed_accesses(
        programs[t], trace.thread(), trace.native_core());
    ASSERT_EQ(got.size(), trace.size()) << "thread " << t;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].addr, trace[i].addr) << "thread " << t << " op " << i;
      EXPECT_EQ(got[i].op, trace[i].op) << "thread " << t << " op " << i;
    }
  }
}

/// Drains `cursor` up to and including its first halt.
std::vector<RInstr> drain(workload::ReplayCursor cursor) {
  std::vector<RInstr> out;
  for (;;) {
    out.push_back(cursor.next());
    if (out.back().op == ROp::kHalt) {
      return out;
    }
  }
}

TEST(RegistryExec, ReplayHandlesGapsAndHighAddresses) {
  TraceSet traces(64);
  ThreadTrace t0(0, 0);
  t0.append(0x1000, MemOp::kRead, /*gap=*/3);
  t0.append(0x9000'0040ull, MemOp::kWrite);  // above 2^31
  t0.append(0xFFFF'FFFCull, MemOp::kRead);   // top of the 32-bit space
  traces.add_thread(std::move(t0));
  traces.add_thread(ThreadTrace(1, 1));  // an empty thread
  ThreadTrace t2(2, 2);
  t2.append(0x7FFF'FFFCull, MemOp::kWrite, /*gap=*/1);  // last low word
  t2.append(0x8000'0000ull, MemOp::kWrite, /*gap=*/2);  // first high word
  traces.add_thread(std::move(t2));
  const auto programs = workload::compile_replay_programs(traces);
  ASSERT_EQ(programs.size(), 3u);
  const std::vector<Access> got = replayed_accesses(programs[0], 0, 0);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].addr, 0x1000u);
  EXPECT_EQ(got[1].addr, 0x9000'0040ull);
  EXPECT_EQ(got[1].op, MemOp::kWrite);
  EXPECT_EQ(got[2].addr, 0xFFFF'FFFCull);
  // The empty thread seeds its store value and halts; the 2^31 edge
  // splits between the immediate and the high-base register.
  EXPECT_EQ(programs[1], RAsm().addi(2, 0, 2).halt().build());
  EXPECT_EQ(programs[2], RAsm()
                             .addi(2, 0, 3)
                             .addi(3, 0, 0x4000'0000)
                             .add(3, 3, 3)
                             .nop()
                             .sw(2, 0, 0x7FFF'FFFC)
                             .addi(2, 2, 3)
                             .nop()
                             .nop()
                             .sw(2, 3, 0)
                             .addi(2, 2, 3)
                             .halt()
                             .build());

  // The cursor exec mode runs yields exactly the stored programs, and
  // keeps yielding halt once a stream is exhausted.
  for (std::size_t t = 0; t < programs.size(); ++t) {
    const workload::ReplayCursor cursor(traces.thread(t),
                                        traces.num_threads());
    EXPECT_EQ(drain(cursor), programs[t]) << "thread " << t;
    workload::ReplayCursor done = cursor;
    for (std::size_t i = 0; i < programs[t].size(); ++i) {
      (void)done.next();
    }
    EXPECT_EQ(done.next().op, ROp::kHalt) << "thread " << t;
  }
}

/// Every registry workload fits the 4-byte in-memory layout from 16 to
/// 1024 threads, the end-to-end benchmark's 256 included: no thread spans
/// more than four 16-MiB regions or has a gap above 31, so none widens,
/// and add_thread leaves each at exactly 4 bytes per access.
TEST(RegistryExec, EveryWorkloadStaysNarrowAtExactCapacityFrom16To1024Threads) {
  for (const std::int32_t threads : {16, 64, 256, 1024}) {
    for (const std::string& name : workload::workload_names()) {
      const auto traces = workload::make_by_name(name, threads, 1, 1);
      ASSERT_TRUE(traces.has_value()) << name;
      for (const ThreadTrace& thread : traces->threads()) {
        EXPECT_FALSE(thread.wide())
            << name << " at " << threads << " threads, thread "
            << thread.thread();
        EXPECT_EQ(thread.storage_bytes(), 4 * thread.size())
            << name << " at " << threads << " threads, thread "
            << thread.thread();
      }
    }
  }
}

/// An address the 32-bit register machine cannot reach is a named error
/// at the exec-mode entry, not an abort inside the replay encoding.
TEST(RegistryExec, ExecModeRejectsAddressesAbove32Bits) {
  TraceSet traces(64);
  ThreadTrace t0(0, 0);
  t0.append(0x1000, MemOp::kRead);
  traces.add_thread(std::move(t0));
  ThreadTrace t1(1, 1);
  t1.append(0x2000, MemOp::kWrite);
  t1.append(0x1'0000'0000ull, MemOp::kRead);
  traces.add_thread(std::move(t1));
  SystemConfig cfg;
  cfg.threads = 2;
  const System sys(cfg);
  for (const MemArch arch : {MemArch::kEm2, MemArch::kEm2Ra, MemArch::kCc}) {
    try {
      (void)sys.run(traces, {.arch = arch, .mode = RunMode::kExec});
      ADD_FAILURE() << "exec mode accepted a 64-bit address";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("thread 1"), std::string::npos) << what;
      EXPECT_NE(what.find("0x100000000"), std::string::npos) << what;
    }
  }
  EXPECT_THROW((void)workload::compile_replay_programs(traces),
               std::invalid_argument);
  // Trace mode has no register machine and runs the same trace.
  EXPECT_EQ(sys.run(traces).accesses, 3u);
}

TEST(RegistryExec, StoreValuesAreDistinctPerThread) {
  TraceSet traces(64);
  for (ThreadId t = 0; t < 2; ++t) {
    ThreadTrace tt(t, t);
    tt.append(0x2000, MemOp::kWrite);
    tt.append(0x2004, MemOp::kWrite);
    traces.add_thread(std::move(tt));
  }
  const auto programs = workload::compile_replay_programs(traces);
  std::vector<std::uint32_t> values;
  for (std::size_t t = 0; t < 2; ++t) {
    RegInterpreter interp(programs[t]);
    ExecutionContext ctx;
    FunctionalMemory mem;
    for (;;) {
      const StepResult r = interp.step(ctx);
      if (r.kind == StepKind::kDone) {
        break;
      }
      if (r.kind == StepKind::kMem) {
        ASSERT_EQ(r.mem.op, MemOp::kWrite);
        values.push_back(r.mem.store_value);
      }
    }
  }
  ASSERT_EQ(values.size(), 4u);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(std::adjacent_find(values.begin(), values.end()), values.end())
      << "every store in the system must carry a distinct value";
}

/// Per-workload smoke: the exec port completes consistently and its
/// migration mix tracks the trace engine at the same seed.
///
/// The mix comparison runs eviction-free (guest contexts == threads):
/// without evictions an EM2 thread migrates exactly at the home
/// transitions of its access stream, which both engines see identically
/// by construction, so the ratios must agree tightly.  (Under guest-
/// context pressure the engines legitimately diverge — eviction timing
/// depends on global interleaving.)
TEST(RegistryExec, EveryWorkloadRunsConsistentlyUnderExecEm2) {
  SystemConfig cfg;
  cfg.threads = 16;
  System sys(cfg);
  SystemConfig no_evict = cfg;
  no_evict.em2.guest_contexts = 16;
  System sys_ne(no_evict);
  for (const std::string& name : workload::workload_names()) {
    const auto w = workload::make_workload(name, 16, 1, 1);
    const RunReport exec =
        sys.run(w, {.arch = MemArch::kEm2, .mode = RunMode::kExec});
    ASSERT_TRUE(exec.exec.has_value()) << name;
    EXPECT_TRUE(exec.exec->consistent) << name;
    EXPECT_FALSE(exec.exec->timed_out) << name;
    EXPECT_EQ(exec.accesses, w.traces().total_accesses()) << name;

    const RunReport trace_ne = sys_ne.run(w, {.arch = MemArch::kEm2});
    const RunReport exec_ne =
        sys_ne.run(w, {.arch = MemArch::kEm2, .mode = RunMode::kExec});
    EXPECT_TRUE(exec_ne.exec->consistent) << name;
    const double trace_ratio =
        trace_ne.accesses ? static_cast<double>(trace_ne.migrations) /
                                static_cast<double>(trace_ne.accesses)
                          : 0.0;
    const double exec_ratio =
        exec_ne.accesses ? static_cast<double>(exec_ne.migrations) /
                               static_cast<double>(exec_ne.accesses)
                         : 0.0;
    EXPECT_NEAR(exec_ratio, trace_ratio, 0.02)
        << name << ": exec migration mix diverged from the trace generator";
  }
}

TEST(RegistryExec, Em2RaExecMixTracksTraceMix) {
  SystemConfig cfg;
  cfg.threads = 16;
  cfg.em2.guest_contexts = 16;  // eviction-free: see the EM2 smoke above
  System sys(cfg);
  for (const char* name : {"ocean", "uniform"}) {
    const auto w = workload::make_workload(name, 16, 1, 1);
    const RunSpec trace_spec{.arch = MemArch::kEm2Ra, .policy = "distance:4"};
    RunSpec exec_spec = trace_spec;
    exec_spec.mode = RunMode::kExec;
    const RunReport trace = sys.run(w, trace_spec);
    const RunReport exec = sys.run(w, exec_spec);
    ASSERT_TRUE(exec.exec.has_value()) << name;
    EXPECT_TRUE(exec.exec->consistent) << name;
    const double n = static_cast<double>(exec.accesses);
    EXPECT_NEAR(static_cast<double>(exec.remote_accesses) / n,
                static_cast<double>(trace.remote_accesses) / n, 0.10)
        << name;
    EXPECT_NEAR(static_cast<double>(exec.migrations) / n,
                static_cast<double>(trace.migrations) / n, 0.10)
        << name;
  }
}

/// The acceptance-scale run: a registry workload completes an execution-
/// driven run at >= 256 cores with a clean consistency witness.
TEST(RegistryExec, Ocean256CoreExecutionRunIsConsistent) {
  SystemConfig cfg;
  cfg.threads = 256;
  System sys(cfg);
  const auto ocean = workload::make_workload("ocean", 256, 1, 1);
  const RunReport r =
      sys.run(ocean, {.arch = MemArch::kEm2, .mode = RunMode::kExec});
  ASSERT_TRUE(r.exec.has_value());
  EXPECT_TRUE(r.exec->consistent);
  EXPECT_FALSE(r.exec->timed_out);
  EXPECT_TRUE(r.exec->violations.empty());
  EXPECT_EQ(r.accesses, ocean.traces().total_accesses());
  EXPECT_GT(r.migrations, 0u);
  EXPECT_GT(r.exec->cycles, 0u);
}

}  // namespace
}  // namespace em2
