// Threaded-code compiler: Program + superblock tiling -> OpEntry stream.
//
// Compilation is a straight-line pass — all the policy (where superblocks
// start and end) is decided by the caller's tiling, which is validated
// here against the one invariant the executor's accounting depends on:
// within a superblock every non-final op falls through, and no superblock
// boundary splits a guaranteed fall-through edge.
#include "sim/jit/compiled_program.hpp"

#include <stdexcept>
#include <string>

#include "sim/program.hpp"

namespace xentry::sim::jit {

namespace {

Handler base_handler(Opcode op) {
  switch (op) {
#define XENTRY_JIT_MAP_CASE(name) \
  case Opcode::name:              \
    return Handler::name;
    XENTRY_JIT_MAP_CASE(Nop)
    XENTRY_JIT_MAP_CASE(MovRR)
    XENTRY_JIT_MAP_CASE(MovRI)
    XENTRY_JIT_MAP_CASE(Load)
    XENTRY_JIT_MAP_CASE(Store)
    XENTRY_JIT_MAP_CASE(Push)
    XENTRY_JIT_MAP_CASE(Pop)
    XENTRY_JIT_MAP_CASE(AddRR)
    XENTRY_JIT_MAP_CASE(AddRI)
    XENTRY_JIT_MAP_CASE(SubRR)
    XENTRY_JIT_MAP_CASE(SubRI)
    XENTRY_JIT_MAP_CASE(MulRR)
    XENTRY_JIT_MAP_CASE(DivR)
    XENTRY_JIT_MAP_CASE(AndRR)
    XENTRY_JIT_MAP_CASE(AndRI)
    XENTRY_JIT_MAP_CASE(OrRR)
    XENTRY_JIT_MAP_CASE(OrRI)
    XENTRY_JIT_MAP_CASE(XorRR)
    XENTRY_JIT_MAP_CASE(XorRI)
    XENTRY_JIT_MAP_CASE(ShlRI)
    XENTRY_JIT_MAP_CASE(ShrRI)
    XENTRY_JIT_MAP_CASE(ShlRR)
    XENTRY_JIT_MAP_CASE(ShrRR)
    XENTRY_JIT_MAP_CASE(Neg)
    XENTRY_JIT_MAP_CASE(Not)
    XENTRY_JIT_MAP_CASE(Inc)
    XENTRY_JIT_MAP_CASE(Dec)
    XENTRY_JIT_MAP_CASE(CmpRR)
    XENTRY_JIT_MAP_CASE(CmpRI)
    XENTRY_JIT_MAP_CASE(TestRR)
    XENTRY_JIT_MAP_CASE(TestRI)
    XENTRY_JIT_MAP_CASE(Jmp)
    XENTRY_JIT_MAP_CASE(JmpR)
    XENTRY_JIT_MAP_CASE(Je)
    XENTRY_JIT_MAP_CASE(Jne)
    XENTRY_JIT_MAP_CASE(Jl)
    XENTRY_JIT_MAP_CASE(Jle)
    XENTRY_JIT_MAP_CASE(Jg)
    XENTRY_JIT_MAP_CASE(Jge)
    XENTRY_JIT_MAP_CASE(Jb)
    XENTRY_JIT_MAP_CASE(Jae)
    XENTRY_JIT_MAP_CASE(Call)
    XENTRY_JIT_MAP_CASE(Ret)
    XENTRY_JIT_MAP_CASE(Rdtsc)
    XENTRY_JIT_MAP_CASE(Hlt)
    XENTRY_JIT_MAP_CASE(AssertLeRI)
    XENTRY_JIT_MAP_CASE(AssertGeRI)
    XENTRY_JIT_MAP_CASE(AssertEqRI)
    XENTRY_JIT_MAP_CASE(AssertNeRI)
    XENTRY_JIT_MAP_CASE(AssertEqRR)
    XENTRY_JIT_MAP_CASE(AssertLtRR)
    XENTRY_JIT_MAP_CASE(Ud)
#undef XENTRY_JIT_MAP_CASE
  }
  throw std::invalid_argument("jit::compile: unknown opcode");
}

[[noreturn]] void bad_tiling(const std::string& what) {
  throw std::invalid_argument("jit::compile: invalid superblock tiling: " +
                              what);
}

/// Retired instructions if execution reaches this op within a run: every
/// op retires except Hlt (stops before retiring) and Ud (faults at
/// fetch).  Both can only be the final slot of a superblock.
bool retires(Opcode op) { return op != Opcode::Hlt && op != Opcode::Ud; }

/// Conditional-branch ordinal matching both the Jcc declaration order in
/// the ISA handler list and the per-compare Fuse* token blocks.
int jcc_ordinal(Opcode op) {
  switch (op) {
    case Opcode::Je: return 0;
    case Opcode::Jne: return 1;
    case Opcode::Jl: return 2;
    case Opcode::Jle: return 3;
    case Opcode::Jg: return 4;
    case Opcode::Jge: return 5;
    case Opcode::Jb: return 6;
    case Opcode::Jae: return 7;
    default: return -1;
  }
}

// The offset arithmetic below leans on each compare kind's eight fused
// variants being contiguous in Jcc order.
static_assert(static_cast<int>(Handler::FuseCmpRRJae) ==
              static_cast<int>(Handler::FuseCmpRRJe) + 7);
static_assert(static_cast<int>(Handler::FuseCmpRIJae) ==
              static_cast<int>(Handler::FuseCmpRIJe) + 7);
static_assert(static_cast<int>(Handler::FuseTestRRJae) ==
              static_cast<int>(Handler::FuseTestRRJe) + 7);
static_assert(static_cast<int>(Handler::FuseTestRIJae) ==
              static_cast<int>(Handler::FuseTestRIJe) + 7);

/// Fused handler token for compare `cmp` followed by conditional branch
/// `jcc`, or -1 when the pair does not macro-fuse.
int fused_handler(Opcode cmp, Opcode jcc) {
  const int j = jcc_ordinal(jcc);
  if (j < 0) return -1;
  switch (cmp) {
    case Opcode::CmpRR:
      return static_cast<int>(Handler::FuseCmpRRJe) + j;
    case Opcode::CmpRI:
      return static_cast<int>(Handler::FuseCmpRIJe) + j;
    case Opcode::TestRR:
      return static_cast<int>(Handler::FuseTestRRJe) + j;
    case Opcode::TestRI:
      return static_cast<int>(Handler::FuseTestRIJe) + j;
    default:
      return -1;
  }
}

}  // namespace

bool CompiledProgram::matches(const Program& program) const {
  return base == program.base() && code_size == program.size() &&
         signature == program_text_signature(program);
}

std::shared_ptr<const CompiledProgram> compile(
    const Program& program, const std::vector<Superblock>& superblocks) {
  auto cp = std::make_shared<CompiledProgram>();
  const Addr base = program.base();
  const std::size_t n = program.size();
  cp->base = base;
  cp->code_size = static_cast<std::uint32_t>(n);
  cp->signature = program_text_signature(program);
  cp->superblocks = superblocks;
  cp->ops.assign(n + 1, OpEntry{});

  const auto op_at = [&](std::size_t off) { return program.at(base + off).op; };

  // Validate: the tiling must cover [0, n) contiguously, keep every
  // non-final op fall-through-capable, and never split a fall-through
  // edge (maximality — a boundary there would desynchronize the prefix
  // accounting for control that strides across it).
  std::size_t expect = 0;
  for (const Superblock& sb : superblocks) {
    if (sb.first != expect || sb.last < sb.first || sb.last >= n) {
      bad_tiling("superblocks must tile the code image contiguously");
    }
    for (std::uint32_t i = sb.first; i < sb.last; ++i) {
      if (!can_fall_through(op_at(i))) {
        bad_tiling("superblock continues past a non-fall-through op");
      }
    }
    if (sb.last + 1 < n && can_fall_through(op_at(sb.last))) {
      bad_tiling("superblock boundary splits a fall-through edge");
    }
    expect = sb.last + 1;
  }
  if (expect != n) {
    bad_tiling("superblocks do not cover the whole code image");
  }

  // Per-superblock accounting prefixes and worst-case remaining retires.
  for (const Superblock& sb : superblocks) {
    std::uint32_t r = 0;
    std::uint32_t b = 0;
    std::uint32_t l = 0;
    std::uint32_t s = 0;
    for (std::uint32_t i = sb.first; i <= sb.last; ++i) {
      OpEntry& e = cp->ops[i];
      e.pre_retired = r;
      e.pre_branches = b;
      e.pre_loads = l;
      e.pre_stores = s;
      const Instruction& insn = program.at(base + i);
      if (retires(insn.op)) {
        ++r;
        b += is_branch(insn.op) ? 1u : 0u;
        l += is_mem_load(insn.op) ? 1u : 0u;
        s += is_mem_store(insn.op) ? 1u : 0u;
      }
    }
    // The sentinel continues the final superblock's prefixes when the
    // last op can fall off the end of the image.
    if (sb.last + 1 == n && can_fall_through(op_at(sb.last))) {
      OpEntry& end = cp->ops[n];
      end.pre_retired = r;
      end.pre_branches = b;
      end.pre_loads = l;
      end.pre_stores = s;
    }
    std::uint32_t rem = 0;
    std::uint32_t touched = 0;
    for (std::uint32_t i = sb.last;; --i) {
      const Instruction& insn = program.at(base + i);
      if (retires(insn.op)) ++rem;
      touched |= regs_read(insn) | regs_written(insn);
      cp->ops[i].sb_remaining = rem;
      cp->ops[i].sb_regs = touched;
      if (i == sb.first) break;
    }
  }

  // Handlers and operands.
  for (std::size_t i = 0; i < n; ++i) {
    const Instruction& insn = program.at(base + i);
    OpEntry& e = cp->ops[i];
    e.r1 = static_cast<std::uint8_t>(insn.r1);
    e.r2 = static_cast<std::uint8_t>(insn.r2);
    e.imm = insn.imm;
    e.aux = insn.aux;
    Handler h = base_handler(insn.op);
    if (insn.op == Opcode::Jmp || insn.op == Opcode::Call ||
        is_cond_branch(insn.op)) {
      const Addr off = static_cast<Addr>(insn.imm) - base;
      e.target = off < n ? static_cast<std::uint32_t>(off) : kNoTarget;
    }
    if ((regs_read(insn) & reg_bit(Reg::rip)) != 0) {
      // The executor keeps rip implicit in the stream cursor; the rare
      // ops that read it as a data operand get a SyncRip prefix that
      // materializes it, then chains to the real handler.  Direct
      // branches never read rip, so `target` is free to carry the
      // chained handler token.
      e.target = static_cast<std::uint32_t>(h);
      h = Handler::SyncRip;
    }
    e.handler = static_cast<std::uint16_t>(h);
  }
  cp->ops[n].handler = static_cast<std::uint16_t>(Handler::OffEnd);

  // Macro-fusion: a compare/test whose fall-through successor is a
  // conditional branch executes both in one dispatch.  The branch slot
  // keeps its plain token (indirect entry onto the branch still works),
  // and the pair never straddles a superblock boundary because the
  // compare always falls through.  Skip compares that got a SyncRip
  // prefix — their `target` already carries the chained token.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Opcode cmp = op_at(i);
    const int fused = fused_handler(cmp, op_at(i + 1));
    if (fused >= 0 &&
        cp->ops[i].handler == static_cast<std::uint16_t>(base_handler(cmp))) {
      cp->ops[i].handler = static_cast<std::uint16_t>(fused);
    }
  }

  return cp;
}

}  // namespace xentry::sim::jit
