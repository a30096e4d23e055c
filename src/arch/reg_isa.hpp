// A small 32-bit RISC ISA ("Atom-like" stand-in) with a yielding
// interpreter.
//
// The interpreter never touches memory itself: executing a load or store
// *yields* the pending access to the caller (the EM2 / EM2-RA / CC
// execution engines), which performs it through the simulated memory
// system and resumes the context.  This is exactly the structure a
// migrating hardware context has: compute locally, stall at memory.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "arch/context.hpp"
#include "util/page_table.hpp"
#include "util/types.hpp"

namespace em2 {

/// Register-machine opcodes.
enum class ROp : std::uint8_t {
  kNop,
  kHalt,
  kAddi,  // rd = rs + imm
  kAdd,   // rd = rs + rt
  kSub,
  kMul,
  kAnd,
  kOr,
  kXor,
  kSlt,   // rd = (rs < rt) signed
  kLw,    // rd = MEM[rs + imm]        (yields)
  kSw,    // MEM[rs + imm] = rt        (yields)
  kBeq,   // if rs == rt: pc += imm
  kBne,
  kBlt,   // signed
  kJmp,   // pc = imm (absolute)
  kJal,   // rd = pc + 1; pc = imm
  kJr,    // pc = rs
};

/// One register-machine instruction.  `imm` doubles as branch offset and
/// absolute jump target depending on the opcode.
struct RInstr {
  ROp op = ROp::kNop;
  std::uint8_t rd = 0;
  std::uint8_t rs = 0;
  std::uint8_t rt = 0;
  std::int32_t imm = 0;

  friend bool operator==(const RInstr&, const RInstr&) = default;
};

/// A register-machine program (instruction memory is per-thread and
/// read-only, so it never migrates).
using RProgram = std::vector<RInstr>;

/// What a single step produced.
enum class StepKind : std::uint8_t {
  kOk,    ///< a non-memory instruction retired
  kMem,   ///< a load/store is pending; see PendingAccess
  kDone,  ///< the context halted
};

/// A yielded memory access.  For loads, the caller must write the loaded
/// value into `ctx.regs[dst_reg]` after performing the access.
struct PendingAccess {
  Addr addr = 0;
  MemOp op = MemOp::kRead;
  std::uint8_t dst_reg = 0;      ///< loads: destination register
  std::uint32_t store_value = 0; ///< stores: value to write
};

/// Result of RegInterpreter::step.
struct StepResult {
  StepKind kind = StepKind::kOk;
  PendingAccess mem;  ///< valid only when kind == kMem
};

/// Functional (value-carrying) word memory shared by the interpreters.
/// Sparse; unwritten words read as zero.  Each distinct byte address is
/// its own 32-bit cell (an unaligned address does not alias the aligned
/// word around it), stored in pages of kWordsPerPage cells
/// (util/page_table.hpp).
class FunctionalMemory {
 public:
  std::uint32_t load(Addr addr) const {
    const Page* p = pages_.find(word_page_key(addr));
    return p == nullptr ? 0u : p->word[word_cell(addr)];
  }
  void store(Addr addr, std::uint32_t value) {
    Page& p = pages_.get(word_page_key(addr));
    const auto bit = static_cast<std::uint8_t>(1u << word_cell(addr));
    if ((p.written & bit) == 0) {
      p.written = static_cast<std::uint8_t>(p.written | bit);
      ++words_;
    }
    p.word[word_cell(addr)] = value;
  }
  std::size_t words_written() const noexcept { return words_; }

 private:
  struct Page {
    std::array<std::uint32_t, kWordsPerPage> word{};
    std::uint8_t written = 0;  // bit c: cell c was stored to
  };
  PageTable<Page> pages_;
  std::size_t words_ = 0;
};

/// Executes RPrograms one instruction at a time against an
/// ExecutionContext.  Register 0 is hard-wired to zero (writes ignored).
class RegInterpreter {
 public:
  explicit RegInterpreter(RProgram program);

  const RProgram& program() const noexcept { return program_; }

  /// Retires one instruction.  On kMem the PC has already advanced; the
  /// caller performs the access (and for loads calls complete_load).
  StepResult step(ExecutionContext& ctx) const;

  /// Retires `ins` as the instruction at ctx.pc: the one executor, shared
  /// by step() and by instruction sources that hold no program (the trace
  /// replay cursor, workload/replay.hpp).
  static StepResult execute(const RInstr& ins, ExecutionContext& ctx);

  /// Finishes a yielded load by writing the value to its destination.
  static void complete_load(ExecutionContext& ctx, std::uint8_t dst_reg,
                            std::uint32_t value);

  /// Runs to completion against a functional memory (no timing), up to
  /// `max_steps` instructions.  Returns the number of instructions retired
  /// or nullopt if the budget was exhausted.  Test/debug convenience.
  std::optional<std::uint64_t> run_functional(ExecutionContext& ctx,
                                              FunctionalMemory& mem,
                                              std::uint64_t max_steps) const;

 private:
  RProgram program_;
};

/// Builder with readable mnemonics for constructing programs in C++
/// (examples and tests).
class RAsm {
 public:
  RAsm& nop() { return emit({ROp::kNop, 0, 0, 0, 0}); }
  RAsm& halt() { return emit({ROp::kHalt, 0, 0, 0, 0}); }
  RAsm& addi(std::uint8_t rd, std::uint8_t rs, std::int32_t imm) {
    return emit({ROp::kAddi, rd, rs, 0, imm});
  }
  RAsm& add(std::uint8_t rd, std::uint8_t rs, std::uint8_t rt) {
    return emit({ROp::kAdd, rd, rs, rt, 0});
  }
  RAsm& sub(std::uint8_t rd, std::uint8_t rs, std::uint8_t rt) {
    return emit({ROp::kSub, rd, rs, rt, 0});
  }
  RAsm& mul(std::uint8_t rd, std::uint8_t rs, std::uint8_t rt) {
    return emit({ROp::kMul, rd, rs, rt, 0});
  }
  RAsm& slt(std::uint8_t rd, std::uint8_t rs, std::uint8_t rt) {
    return emit({ROp::kSlt, rd, rs, rt, 0});
  }
  RAsm& lw(std::uint8_t rd, std::uint8_t rs, std::int32_t imm) {
    return emit({ROp::kLw, rd, rs, 0, imm});
  }
  RAsm& sw(std::uint8_t rt, std::uint8_t rs, std::int32_t imm) {
    return emit({ROp::kSw, 0, rs, rt, imm});
  }
  RAsm& beq(std::uint8_t rs, std::uint8_t rt, std::int32_t off) {
    return emit({ROp::kBeq, 0, rs, rt, off});
  }
  RAsm& bne(std::uint8_t rs, std::uint8_t rt, std::int32_t off) {
    return emit({ROp::kBne, 0, rs, rt, off});
  }
  RAsm& blt(std::uint8_t rs, std::uint8_t rt, std::int32_t off) {
    return emit({ROp::kBlt, 0, rs, rt, off});
  }
  RAsm& jmp(std::int32_t target) { return emit({ROp::kJmp, 0, 0, 0, target}); }
  RAsm& jal(std::uint8_t rd, std::int32_t target) {
    return emit({ROp::kJal, rd, 0, 0, target});
  }
  RAsm& jr(std::uint8_t rs) { return emit({ROp::kJr, 0, rs, 0, 0}); }
  /// Retro-patches the immediate of instruction `index` (branch targets
  /// resolved after the target address is known).
  RAsm& patch_imm(std::int32_t index, std::int32_t imm) {
    program_[static_cast<std::size_t>(index)].imm = imm;
    return *this;
  }
  RProgram build() const& { return program_; }
  /// Moves the program out (the builder is consumed).
  RProgram build() && { return std::move(program_); }
  std::int32_t here() const noexcept {
    return static_cast<std::int32_t>(program_.size());
  }

 private:
  RAsm& emit(RInstr i) {
    program_.push_back(i);
    return *this;
  }
  RProgram program_;
};

}  // namespace em2
