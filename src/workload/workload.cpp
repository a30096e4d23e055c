#include "workload/workload.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace em2::workload {

namespace {

/// Address operand for a load/store: addresses below 2^31 fit the
/// immediate directly (base register r0); higher 32-bit addresses lean on
/// the scratch register preloaded with 0x8000'0000 (the register machine
/// is 32-bit, so that one bit is all that can ever be missing from the
/// immediate).
struct AddrOperand {
  std::uint8_t rs = 0;
  std::int32_t imm = 0;
};

AddrOperand addr_operand(Addr addr, std::uint8_t high_base) {
  EM2_ASSERT(addr <= 0xFFFF'FFFFull,
             "replay compilation needs 32-bit addresses");
  if (addr < 0x8000'0000ull) {
    return {0, static_cast<std::int32_t>(addr)};
  }
  return {high_base, static_cast<std::int32_t>(addr - 0x8000'0000ull)};
}

}  // namespace

std::vector<RProgram> compile_replay_programs(const TraceSet& traces) {
  // Register plan: r1 = read sink, r2 = rolling store value, r3 = high-
  // address base (0x8000'0000, materialized once per program when any
  // access needs it).  Store values are globally unique: thread t starts
  // at t + 1 and strides by the thread count, so every write in the
  // system carries a distinct value (until 2^32 total stores) and the
  // consistency witness can tell stores apart.
  constexpr std::uint8_t kSink = 1;
  constexpr std::uint8_t kValue = 2;
  constexpr std::uint8_t kHighBase = 3;
  const auto stride =
      static_cast<std::int32_t>(std::max<std::size_t>(traces.num_threads(), 1));

  std::vector<RProgram> programs;
  programs.reserve(traces.num_threads());
  for (const ThreadTrace& thread : traces.threads()) {
    // One pass sizes the program exactly: the value seed, the optional
    // high-base pair, gap nops plus lw (reads) or sw + addi (writes) per
    // access, and the halt.
    bool needs_high = false;
    std::size_t length = 2;
    for (const Access& acc : thread.accesses()) {
      needs_high = needs_high || acc.addr >= 0x8000'0000ull;
      length += acc.gap + (acc.op == MemOp::kRead ? 1u : 2u);
    }
    RAsm a;
    a.reserve(length + (needs_high ? 2 : 0));
    a.addi(kValue, 0, static_cast<std::int32_t>(thread.thread()) + 1);
    if (needs_high) {
      a.addi(kHighBase, 0, 0x4000'0000);
      a.add(kHighBase, kHighBase, kHighBase);  // = 0x8000'0000
    }
    for (const Access& acc : thread.accesses()) {
      a.nops(acc.gap);  // the trace's non-memory instructions
      const AddrOperand at = addr_operand(acc.addr, kHighBase);
      if (acc.op == MemOp::kRead) {
        a.lw(kSink, at.rs, at.imm);
      } else {
        a.sw(kValue, at.rs, at.imm);
        a.addi(kValue, kValue, stride);
      }
    }
    a.halt();
    programs.push_back(std::move(a).build());
  }
  return programs;
}

Workload::Workload(std::string name, std::int32_t threads,
                   std::int32_t scale, std::uint64_t seed, TraceSet traces)
    : name_(std::move(name)),
      threads_(threads),
      scale_(scale),
      seed_(seed),
      traces_(std::make_shared<const TraceSet>(std::move(traces))) {}

std::string Workload::identity() const {
  return name_ + "@" + std::to_string(threads_) + "/" +
         std::to_string(scale_) + "/" + std::to_string(seed_);
}

}  // namespace em2::workload
