#include "workload/replay.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

namespace em2::workload {

ReplayCursor::ReplayCursor(const ThreadTrace& thread, std::size_t num_threads)
    : trace_(thread.reader()),
      end_(thread.size()),
      stride_(static_cast<std::int32_t>(std::max<std::size_t>(num_threads, 1))) {
  if (thread.max_addr() > 0xFFFF'FFFFull) {
    // Name the first address out of reach.
    for (std::size_t i = 0;; ++i) {
      const Addr addr = thread[i].addr;
      if (addr > 0xFFFF'FFFFull) {
        char text[24];
        std::snprintf(text, sizeof text, "0x%llx",
                      static_cast<unsigned long long>(addr));
        throw std::invalid_argument(
            "exec mode replays 32-bit addresses: thread " +
            std::to_string(thread.thread()) + " accesses " + text);
      }
    }
  }
  stage_[0] = RInstr{ROp::kAddi, kValue, 0, 0,
                     static_cast<std::int32_t>(thread.thread()) + 1};
  staged_end_ = 1;
  if (thread.max_addr() >= kHighBaseValue) {
    stage_[1] = RInstr{ROp::kAddi, kHighBase, 0, 0, 0x4000'0000};
    stage_[2] = RInstr{ROp::kAdd, kHighBase, kHighBase, kHighBase, 0};
    staged_end_ = 3;
  }
  if (end_ != 0) {
    nops_ = thread[0].gap;
  }
}

std::vector<RProgram> compile_replay_programs(const TraceSet& traces) {
  std::vector<RProgram> programs;
  programs.reserve(traces.num_threads());
  for (const ThreadTrace& thread : traces.threads()) {
    ReplayCursor cursor(thread, traces.num_threads());
    // The stream's length: the staged prologue and the halt, then gap nops
    // plus lw (reads) or sw + addi (writes) per access.
    std::size_t length = cursor.staged_end_ + 1u;
    thread.for_each([&](const Access& acc) {
      length += acc.gap + (acc.op == MemOp::kRead ? 1u : 2u);
    });
    RProgram program(length);
    for (RInstr& ins : program) {
      ins = cursor.next();
    }
    programs.push_back(std::move(program));
  }
  return programs;
}

}  // namespace em2::workload
