#include "workload/replay.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

namespace em2::workload {

ReplayCursor::ReplayCursor(const ThreadTrace& thread, std::size_t num_threads)
    : at_(thread.accesses().data()),
      end_(thread.accesses().data() + thread.size()),
      stride_(static_cast<std::int32_t>(std::max<std::size_t>(num_threads, 1))) {
  // One pass checks every address, finds whether the high base is needed
  // and sizes the stream: the value seed, the optional high-base pair,
  // gap nops plus lw (reads) or sw + addi (writes) per access, the halt.
  bool needs_high = false;
  length_ = 2;
  for (const Access& acc : thread.accesses()) {
    if (acc.addr > 0xFFFF'FFFFull) {
      char addr[24];
      std::snprintf(addr, sizeof addr, "0x%llx",
                    static_cast<unsigned long long>(acc.addr));
      throw std::invalid_argument(
          "exec mode replays 32-bit addresses: thread " +
          std::to_string(thread.thread()) + " accesses " + addr);
    }
    needs_high = needs_high || acc.addr >= kHighBaseValue;
    length_ += acc.gap + (acc.op == MemOp::kRead ? 1u : 2u);
  }
  stage_[0] = RInstr{ROp::kAddi, kValue, 0, 0,
                     static_cast<std::int32_t>(thread.thread()) + 1};
  staged_end_ = 1;
  if (needs_high) {
    stage_[1] = RInstr{ROp::kAddi, kHighBase, 0, 0, 0x4000'0000};
    stage_[2] = RInstr{ROp::kAdd, kHighBase, kHighBase, kHighBase, 0};
    staged_end_ = 3;
    length_ += 2;
  }
  nops_ = at_ != end_ ? at_->gap : 0;
}

std::vector<RProgram> compile_replay_programs(const TraceSet& traces) {
  std::vector<RProgram> programs;
  programs.reserve(traces.num_threads());
  for (const ThreadTrace& thread : traces.threads()) {
    ReplayCursor cursor(thread, traces.num_threads());
    RProgram program(cursor.length());
    for (RInstr& ins : program) {
      ins = cursor.next();
    }
    programs.push_back(std::move(program));
  }
  return programs;
}

}  // namespace em2::workload
