// compile_replay_programs drains each thread's ReplayCursor into an
// exactly sized program, so these cases pin the replay encoding that exec
// mode runs in place.  The suite must stay instruction-for-instruction
// what the original grow-by-push_back compiler emitted: the digest below
// was recorded from that compiler on ocean at 16 threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "workload/registry.hpp"
#include "workload/workload.hpp"

namespace em2 {
namespace {

/// FNV-1a over every program's length and every instruction field.
std::uint64_t digest(const std::vector<RProgram>& programs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const RProgram& p : programs) {
    mix(p.size());
    for (const RInstr& in : p) {
      mix(static_cast<std::uint64_t>(in.op));
      mix(in.rd);
      mix(in.rs);
      mix(in.rt);
      mix(static_cast<std::uint32_t>(in.imm));
    }
  }
  return h;
}

TEST(ReplayCompile, OceanProgramsMatchTheRecordedCompilerOutput) {
  const workload::Workload w = workload::make_workload("ocean", 16, 1, 1);
  const std::vector<RProgram> programs =
      workload::compile_replay_programs(w.traces());
  ASSERT_EQ(programs.size(), 16u);
  std::size_t total = 0;
  for (const RProgram& p : programs) {
    total += p.size();
    EXPECT_EQ(p.capacity(), p.size()) << "program not sized exactly";
  }
  EXPECT_EQ(total, 160'499u);
  EXPECT_EQ(digest(programs), 0xe4e644bc333cf7b5ull);
}

TEST(ReplayCompile, HighAddressesAddTheBaseRegisterPair) {
  ThreadTrace low(0, 0);
  low.append(0x10, MemOp::kRead, 3);
  low.append(0x20, MemOp::kWrite);
  ThreadTrace high(1, 1);
  high.append(0x9000'0000ull, MemOp::kWrite, 1);
  TraceSet traces;
  traces.add_thread(std::move(low));
  traces.add_thread(std::move(high));
  const std::vector<RProgram> programs =
      workload::compile_replay_programs(traces);
  // seed + 3 nops + lw + sw + addi + halt; seed + base pair + nop + sw +
  // addi + halt.
  ASSERT_EQ(programs[0].size(), 8u);
  ASSERT_EQ(programs[1].size(), 7u);
  for (const RProgram& p : programs) {
    EXPECT_EQ(p.capacity(), p.size());
    EXPECT_EQ(p.back().op, ROp::kHalt);
  }
}

}  // namespace
}  // namespace em2
