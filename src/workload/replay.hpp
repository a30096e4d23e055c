// Trace replay on the register machine: the one definition of how a
// thread's memory trace becomes the instruction stream the execution-
// driven engine runs.
//
// Each Access becomes one lw/sw, preceded by its `gap` non-memory
// instructions (nops).  Reads sink into a scratch register; writes store
// a globally unique rolling value (start = thread + 1, stride = thread
// count) so the sequential-consistency witness can tell any two stores
// apart.  Register plan: r1 = read sink, r2 = rolling store value, r3 =
// high-address base (0x8000'0000, materialized once per thread when any
// access needs it).  The stream for one thread is:
//
//   addi r2, r0, thread + 1           the value seed
//   [addi r3, r0, 0x4000'0000          the high-base pair, only when an
//    add  r3, r3, r3]                  address is >= 2^31
//   per access: gap x nop, then  lw r1, addr   (read)
//                                or sw r2, addr; addi r2, r2, stride
//   halt
//
// ReplayCursor yields that stream one instruction at a time straight
// from the trace, so exec mode never materializes it (a compiled ocean
// suite at 256 threads is 2.6M instructions, 19.8 MiB).
// compile_replay_programs drains the same cursor into RPrograms: the
// reference the cursor is tested against, and the form ExecSystem users
// with their own program store need.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/reg_isa.hpp"
#include "trace/trace.hpp"
#include "util/types.hpp"

namespace em2::workload {

/// Yields the replay program of one thread trace (see the file comment),
/// one instruction per next() call.  Walks the trace by index through a
/// ThreadTrace::Reader; the trace must outlive the cursor and not grow.
class ReplayCursor {
 public:
  /// `num_threads` sets the store-value stride.  Throws
  /// std::invalid_argument naming the thread and the first address that
  /// lies above the 32-bit space the register machine addresses.  O(1)
  /// unless it throws: ThreadTrace::max_addr() answers both whether any
  /// address is too high and whether the high base is needed.
  ReplayCursor(const ThreadTrace& thread, std::size_t num_threads);

  /// The next instruction of the stream; halt once it is exhausted.
  RInstr next() noexcept {
    if (staged_ != staged_end_) {
      return stage_[staged_++];
    }
    if (nops_ != 0) {
      --nops_;
      return RInstr{};  // a nop: one of the trace's non-memory instructions
    }
    if (at_ == end_) {
      return RInstr{ROp::kHalt, 0, 0, 0, 0};
    }
    const Access acc = trace_[at_];
    if (++at_ != end_) {
      nops_ = trace_[at_].gap;
    }
    const bool high = acc.addr >= kHighBaseValue;
    const std::uint8_t rs = high ? kHighBase : 0;
    const auto imm =
        static_cast<std::int32_t>(high ? acc.addr - kHighBaseValue : acc.addr);
    if (acc.op == MemOp::kRead) {
      return RInstr{ROp::kLw, kSink, rs, 0, imm};
    }
    stage_[0] = RInstr{ROp::kAddi, kValue, kValue, 0, stride_};
    staged_ = 0;
    staged_end_ = 1;
    return RInstr{ROp::kSw, 0, rs, kValue, imm};
  }

 private:
  friend std::vector<RProgram> compile_replay_programs(const TraceSet&);

  static constexpr std::uint8_t kSink = 1;
  static constexpr std::uint8_t kValue = 2;
  static constexpr std::uint8_t kHighBase = 3;
  static constexpr Addr kHighBaseValue = 0x8000'0000ull;

  ThreadTrace::Reader trace_;
  std::size_t at_ = 0;  // the next access to issue
  std::size_t end_ = 0;
  std::uint32_t nops_ = 0;  // gap nops still due before access at_
  std::int32_t stride_ = 1;
  // stage_[staged_, staged_end_) is due before the next gap: the
  // prologue, or the value update that follows a store.
  RInstr stage_[3]{};
  std::uint8_t staged_ = 0;
  std::uint8_t staged_end_ = 0;
};

/// Every thread of `traces` drained from its ReplayCursor into a
/// register-ISA program, sized exactly.  Program i belongs to
/// traces.thread(i) and runs native on that thread's native core.
/// Throws std::invalid_argument as ReplayCursor does.
std::vector<RProgram> compile_replay_programs(const TraceSet& traces);

}  // namespace em2::workload
