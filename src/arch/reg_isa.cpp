#include "arch/reg_isa.hpp"

#include "util/assert.hpp"

namespace em2 {

RegInterpreter::RegInterpreter(RProgram program)
    : program_(std::move(program)) {}

StepResult RegInterpreter::step(ExecutionContext& ctx) const {
  if (ctx.halted || ctx.pc >= program_.size()) {
    ctx.halted = true;
    StepResult result;
    result.kind = StepKind::kDone;
    return result;
  }
  return execute(program_[ctx.pc], ctx);
}

StepResult RegInterpreter::execute(const RInstr& ins, ExecutionContext& ctx) {
  StepResult result;
  auto rs = [&] { return ctx.regs[ins.rs]; };
  auto rt = [&] { return ctx.regs[ins.rt]; };
  auto set_rd = [&](std::uint32_t v) {
    if (ins.rd != 0) {
      ctx.regs[ins.rd] = v;  // register 0 is hard-wired to zero
    }
  };
  std::uint32_t next_pc = ctx.pc + 1;
  switch (ins.op) {
    case ROp::kNop:
      break;
    case ROp::kHalt:
      ctx.halted = true;
      result.kind = StepKind::kDone;
      return result;
    case ROp::kAddi:
      set_rd(rs() + static_cast<std::uint32_t>(ins.imm));
      break;
    case ROp::kAdd:
      set_rd(rs() + rt());
      break;
    case ROp::kSub:
      set_rd(rs() - rt());
      break;
    case ROp::kMul:
      set_rd(rs() * rt());
      break;
    case ROp::kAnd:
      set_rd(rs() & rt());
      break;
    case ROp::kOr:
      set_rd(rs() | rt());
      break;
    case ROp::kXor:
      set_rd(rs() ^ rt());
      break;
    case ROp::kSlt:
      set_rd(static_cast<std::int32_t>(rs()) <
                     static_cast<std::int32_t>(rt())
                 ? 1
                 : 0);
      break;
    case ROp::kLw:
      result.kind = StepKind::kMem;
      result.mem.addr = static_cast<Addr>(rs()) +
                        static_cast<Addr>(static_cast<std::int64_t>(ins.imm));
      result.mem.op = MemOp::kRead;
      result.mem.dst_reg = ins.rd;
      break;
    case ROp::kSw:
      result.kind = StepKind::kMem;
      result.mem.addr = static_cast<Addr>(rs()) +
                        static_cast<Addr>(static_cast<std::int64_t>(ins.imm));
      result.mem.op = MemOp::kWrite;
      result.mem.store_value = rt();
      break;
    case ROp::kBeq:
      if (rs() == rt()) {
        next_pc = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(ctx.pc) + 1 + ins.imm);
      }
      break;
    case ROp::kBne:
      if (rs() != rt()) {
        next_pc = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(ctx.pc) + 1 + ins.imm);
      }
      break;
    case ROp::kBlt:
      if (static_cast<std::int32_t>(rs()) <
          static_cast<std::int32_t>(rt())) {
        next_pc = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(ctx.pc) + 1 + ins.imm);
      }
      break;
    case ROp::kJmp:
      next_pc = static_cast<std::uint32_t>(ins.imm);
      break;
    case ROp::kJal:
      set_rd(ctx.pc + 1);
      next_pc = static_cast<std::uint32_t>(ins.imm);
      break;
    case ROp::kJr:
      next_pc = rs();
      break;
  }
  ctx.pc = next_pc;
  return result;
}

void RegInterpreter::complete_load(ExecutionContext& ctx,
                                   std::uint8_t dst_reg,
                                   std::uint32_t value) {
  if (dst_reg != 0) {
    ctx.regs[dst_reg] = value;
  }
}

std::optional<std::uint64_t> RegInterpreter::run_functional(
    ExecutionContext& ctx, FunctionalMemory& mem,
    std::uint64_t max_steps) const {
  std::uint64_t retired = 0;
  while (retired < max_steps) {
    const StepResult r = step(ctx);
    ++retired;
    switch (r.kind) {
      case StepKind::kDone:
        return retired;
      case StepKind::kMem:
        if (r.mem.op == MemOp::kRead) {
          complete_load(ctx, r.mem.dst_reg, mem.load(r.mem.addr));
        } else {
          mem.store(r.mem.addr, r.mem.store_value);
        }
        break;
      case StepKind::kOk:
        break;
    }
  }
  return std::nullopt;
}

}  // namespace em2
