#include "sim/program.hpp"

#include <stdexcept>

namespace xentry::sim {

Addr Program::symbol(const std::string& name) const {
  auto it = symbols_.find(name);
  if (it == symbols_.end()) {
    throw std::out_of_range("Program: unknown symbol '" + name + "'");
  }
  return it->second;
}

const std::vector<bool>& compute_landing_sites(const Program& program) {
  return program.landing_sites();
}

namespace {

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  constexpr std::uint64_t kFnvPrime = 1099511628211ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t instruction_fnv(std::uint64_t h, const Instruction& insn) {
  h = fnv_mix(h, static_cast<std::uint64_t>(insn.op));
  h = fnv_mix(h, static_cast<std::uint64_t>(insn.r1));
  h = fnv_mix(h, static_cast<std::uint64_t>(insn.r2));
  h = fnv_mix(h, static_cast<std::uint64_t>(insn.imm));
  h = fnv_mix(h, insn.aux);
  return h;
}

std::uint64_t program_text_signature(const Program& program) {
  std::uint64_t h = fnv_mix(kFnvOffsetBasis, program.base());
  for (Addr a = program.base(); a < program.end(); ++a) {
    h = instruction_fnv(h, program.at(a));
  }
  return h;
}

void Program::compute_landing() {
  landing_.assign(code_.size(), false);
  auto mark = [this](Addr target) {
    const Addr off = target - base_;
    if (off < code_.size()) landing_[off] = true;
  };
  for (std::size_t i = 0; i < code_.size(); ++i) {
    const Instruction& insn = code_[i];
    if (insn.op == Opcode::Jmp || insn.op == Opcode::Call ||
        is_cond_branch(insn.op) || insn.op == Opcode::MovRI) {
      mark(static_cast<Addr>(insn.imm));
    }
    if (insn.op == Opcode::Call) mark(base_ + i + 1);  // return site
  }
  for (const auto& [name, addr] : symbols_) mark(addr);
}

std::string Program::symbol_at(Addr rip) const {
  std::string best;
  Addr best_addr = 0;
  for (const auto& [name, addr] : symbols_) {
    if (addr <= rip && (best.empty() || addr >= best_addr)) {
      best = name;
      best_addr = addr;
    }
  }
  return best;
}

}  // namespace xentry::sim
