// Differential harness: the threaded-code superblock engine (src/sim/jit/)
// must be bit-identical to the single-step reference engine on every
// architectural observable — final StepInfo, all 18 registers, retired
// step count, TSC, performance counters, recorded trace, and memory
// contents — across randomly generated programs, every trap path, all
// eight trace/mask/shadow mode combinations, and a register watch on each
// of the 18 registers.  Also pins down compare+branch fusion at landing
// sites and the threaded engine's deopt edges: tight watchdog budgets,
// watch hits, mid-superblock indirect entry, and out-of-image control
// transfers.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/superblocks.hpp"
#include "sim/assembler.hpp"
#include "sim/cpu.hpp"
#include "sim/isa.hpp"
#include "sim/jit/compiled_program.hpp"
#include "sim/memory.hpp"

namespace xentry::sim {
namespace {

constexpr Addr kCodeBase = 0x400000;
constexpr Addr kDataBase = 0x10000;
constexpr Addr kDataSize = 0x100;
constexpr Addr kStackBase = 0x20000;
constexpr Addr kStackSize = 0x100;
constexpr Addr kStackTop = kStackBase + 0x80;  // room to pop upward too
constexpr std::int64_t kShadowOffset = 0x5000;

Memory make_memory() {
  Memory mem;
  mem.map(kDataBase, kDataSize, Perm::ReadWrite, "data");
  mem.map(0x11000, 0x40, Perm::Read, "rodata");
  mem.map(kStackBase, kStackSize, Perm::ReadWrite, "stack");
  mem.map(kStackBase + static_cast<Addr>(kShadowOffset), kStackSize,
          Perm::ReadWrite, "shadow_stack");
  return mem;
}

/// Every opcode the generator can emit, weighted towards the interesting
/// ones (memory ops, stack ops, compare+branch pairs for fusion).
const Opcode kOpcodePool[] = {
    Opcode::Nop,       Opcode::MovRR,    Opcode::MovRI,    Opcode::Load,
    Opcode::Load,      Opcode::Store,    Opcode::Store,    Opcode::Push,
    Opcode::Push,      Opcode::Pop,      Opcode::Pop,      Opcode::AddRR,
    Opcode::AddRI,     Opcode::SubRR,    Opcode::SubRI,    Opcode::MulRR,
    Opcode::DivR,      Opcode::AndRR,    Opcode::AndRI,    Opcode::OrRR,
    Opcode::OrRI,      Opcode::XorRR,    Opcode::XorRI,    Opcode::ShlRI,
    Opcode::ShrRI,     Opcode::ShlRR,    Opcode::ShrRR,    Opcode::Neg,
    Opcode::Not,       Opcode::Inc,      Opcode::Dec,      Opcode::CmpRR,
    Opcode::CmpRI,     Opcode::CmpRR,    Opcode::CmpRI,    Opcode::TestRR,
    Opcode::TestRI,    Opcode::Jmp,      Opcode::JmpR,     Opcode::Je,
    Opcode::Jne,       Opcode::Jl,       Opcode::Jle,      Opcode::Jg,
    Opcode::Jge,       Opcode::Jb,       Opcode::Jae,      Opcode::Call,
    Opcode::Ret,       Opcode::Rdtsc,    Opcode::Hlt,      Opcode::AssertLeRI,
    Opcode::AssertGeRI, Opcode::AssertEqRI, Opcode::AssertNeRI,
    Opcode::AssertEqRR, Opcode::AssertLtRR, Opcode::Ud,
};

/// A random program over the full ISA.  Immediates for branches/calls land
/// mostly inside the code image (including on and between fusable pairs),
/// occasionally outside it (#PF paths); memory displacements mostly hit the
/// data region.  Assembled through Program's constructor, so landing sites
/// (and hence the CFG and superblocks) are computed exactly as for real
/// workloads.
Program random_program(std::mt19937_64& rng, std::size_t len) {
  std::uniform_int_distribution<std::size_t> pick_op(
      0, std::size(kOpcodePool) - 1);
  std::uniform_int_distribution<int> pick_reg(0, kNumArchRegs - 1);
  std::uniform_int_distribution<std::int64_t> pick_target(
      -2, static_cast<std::int64_t>(len) + 1);
  std::uniform_int_distribution<std::int64_t> pick_disp(-4, kDataSize + 4);
  std::uniform_int_distribution<std::int64_t> pick_imm(-64, 64);
  std::bernoulli_distribution data_addr(0.5);

  std::vector<Instruction> code(len);
  for (Instruction& insn : code) {
    insn.op = kOpcodePool[pick_op(rng)];
    insn.r1 = static_cast<Reg>(pick_reg(rng));
    insn.r2 = static_cast<Reg>(pick_reg(rng));
    insn.aux = static_cast<std::uint32_t>(pick_imm(rng) & 0xff);
    switch (insn.op) {
      case Opcode::Jmp: case Opcode::Je: case Opcode::Jne:
      case Opcode::Jl: case Opcode::Jle: case Opcode::Jg:
      case Opcode::Jge: case Opcode::Jb: case Opcode::Jae:
      case Opcode::Call:
        insn.imm = static_cast<std::int64_t>(kCodeBase) + pick_target(rng);
        break;
      case Opcode::Load:
      case Opcode::Store:
        insn.imm = pick_disp(rng);
        break;
      case Opcode::MovRI:
        // Sometimes a data/code address (indirect-jump material, which
        // also feeds the landing set), sometimes a small scalar.
        insn.imm = data_addr(rng)
                       ? static_cast<std::int64_t>(kCodeBase) + pick_target(rng)
                       : pick_imm(rng);
        break;
      default:
        insn.imm = pick_imm(rng);
        break;
    }
  }
  return Program(kCodeBase, std::move(code), {});
}

struct EngineState {
  StepInfo info;
  std::vector<StepInfo> stops;  ///< register-watch stops, in order
  std::array<Word, kNumArchRegs> regs;
  std::uint64_t steps = 0;
  Word tsc = 0;
  PerfSnapshot counters;
  std::vector<Addr> trace;
  Memory::Snapshot memory;
};

/// CFG-driven threaded-code compilation, exactly as the campaign front
/// door does it (analysis::compile_threaded minus the cache).
std::shared_ptr<const jit::CompiledProgram> compile_jit(const Program& prog) {
  const analysis::ControlFlowGraph cfg = analysis::build_cfg(prog);
  return jit::compile(prog, analysis::form_superblocks(cfg, prog));
}

/// True when slot `off` of the threaded stream executes as the head of a
/// fused compare+branch pair (the Fuse* tokens close the handler list).
bool fused_head(const jit::CompiledProgram& cp, std::size_t off) {
  return cp.ops[off].handler >=
         static_cast<std::uint16_t>(jit::Handler::FuseCmpRRJe);
}

jit::Handler handler_at(const jit::CompiledProgram& cp, std::size_t off) {
  return static_cast<jit::Handler>(cp.ops[off].handler);
}

/// Runs `prog` from `entry` (0: its base) on a fresh memory and register
/// soup.  With a nonzero `watch`, the register watch is armed for the
/// whole budget: every Ok stop is recorded, the watched instruction is
/// single-stepped (as the injection path executes it), and the run
/// resumes with the watch still armed — so each stop also re-enters the
/// engine mid-stream.
EngineState run_engine(
    const Program& prog, std::uint64_t seed, EngineKind kind,
    const std::shared_ptr<const jit::CompiledProgram>& compiled, bool trace,
    bool masks, bool shadow, std::uint64_t max_steps,
    std::uint32_t watch = 0, Addr entry = 0) {
  Memory mem = make_memory();
  Cpu cpu(&prog, &mem);
  cpu.reset(entry != 0 ? entry : prog.base(), kStackTop);
  cpu.set_tsc(seed & 0xffff);
  if (compiled != nullptr) cpu.set_compiled(compiled);
  cpu.set_engine(kind);

  // Deterministic initial register soup (same for both engines).
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Word> pick(0, ~Word{0});
  for (int r = 0; r < kNumArchRegs; ++r) {
    const Reg reg = static_cast<Reg>(r);
    if (reg == Reg::rip || reg == Reg::rsp) continue;
    // Mostly small values and valid addresses; raw 64-bit soup sometimes.
    const Word v = pick(rng);
    cpu.set_reg(reg, (v & 3) == 0 ? v
                                  : (v & 1) ? (kDataBase + (v & 0xff))
                                            : (v & 0x3f));
  }

  EngineState st;
  cpu.set_mask_tracking(masks);
  if (trace) cpu.set_trace(&st.trace);
  if (shadow) cpu.enable_shadow_stack(kShadowOffset);
  cpu.counters().arm();
  cpu.set_watch(watch);

  std::uint64_t left = max_steps;
  for (;;) {
    const std::uint64_t before = cpu.steps_executed();
    st.info = cpu.run(left);
    left -= cpu.steps_executed() - before;
    if (st.info.status != StepInfo::Status::Ok) break;
    st.stops.push_back(st.info);
    // A stop leaves budget for the watched instruction (the reference
    // engine checks the budget first).
    EXPECT_GT(left, 0u);
    if (left == 0) break;
    const StepInfo hit = cpu.step();
    if (hit.status != StepInfo::Status::Ok) {
      st.info = hit;
      break;
    }
    --left;
  }
  st.regs = cpu.regs();
  st.steps = cpu.steps_executed();
  st.tsc = cpu.tsc();
  st.counters = cpu.counters().disarm();
  st.memory = mem.snapshot();
  return st;
}

void expect_equivalent(const EngineState& a, const EngineState& b,
                       const std::string& what) {
  EXPECT_EQ(a.info.status, b.info.status) << what;
  EXPECT_EQ(a.info.trap.kind, b.info.trap.kind) << what;
  EXPECT_EQ(a.info.trap.fault_addr, b.info.trap.fault_addr) << what;
  EXPECT_EQ(a.info.trap.aux, b.info.trap.aux) << what;
  EXPECT_EQ(a.info.rip_before, b.info.rip_before) << what;
  EXPECT_EQ(a.info.read_mask, b.info.read_mask) << what;
  EXPECT_EQ(a.info.written_mask, b.info.written_mask) << what;
  EXPECT_EQ(a.stops.size(), b.stops.size()) << what;
  for (std::size_t i = 0; i < std::min(a.stops.size(), b.stops.size()); ++i) {
    EXPECT_EQ(a.stops[i].rip_before, b.stops[i].rip_before) << what;
    EXPECT_EQ(a.stops[i].read_mask, b.stops[i].read_mask) << what;
    EXPECT_EQ(a.stops[i].written_mask, b.stops[i].written_mask) << what;
  }
  EXPECT_EQ(a.regs, b.regs) << what;
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.tsc, b.tsc) << what;
  EXPECT_EQ(a.counters, b.counters) << what;
  EXPECT_EQ(a.trace, b.trace) << what;
  EXPECT_TRUE(a.memory == b.memory) << what;
}

TEST(EngineEquivalenceTest, RandomProgramsAllModeCombinations) {
  std::mt19937_64 rng(0x1234abcdu);
  int halted = 0, trapped = 0, watchdogged = 0, fused_programs = 0;
  for (int p = 0; p < 400; ++p) {
    const std::size_t len = 4 + (p % 60);
    const Program prog = random_program(rng, len);
    const std::uint64_t seed = rng();
    const std::uint64_t max_steps = 1 + (seed % 300);
    const auto compiled = compile_jit(prog);
    for (std::size_t off = 0; off < prog.size(); ++off) {
      if (fused_head(*compiled, off)) {
        ++fused_programs;
        break;
      }
    }
    for (unsigned mode = 0; mode < 8; ++mode) {
      const bool trace = mode & 1, masks = mode & 2, shadow = mode & 4;
      const std::string what =
          "program " + std::to_string(p) + " mode " + std::to_string(mode);
      const EngineState ref = run_engine(prog, seed, EngineKind::Reference,
                                         nullptr, trace, masks, shadow,
                                         max_steps);
      const EngineState threaded = run_engine(prog, seed, EngineKind::Jit,
                                              compiled, trace, masks, shadow,
                                              max_steps);
      expect_equivalent(threaded, ref, "jit: " + what);
      if (mode == 0) {
        if (ref.info.status == StepInfo::Status::Halted) ++halted;
        else if (ref.info.trap.kind == TrapKind::Watchdog) ++watchdogged;
        else ++trapped;
      }
    }
    if (::testing::Test::HasFailure()) break;  // first divergence is enough
  }
  // The generator must actually exercise every exit class and fusion.
  EXPECT_GT(halted, 0);
  EXPECT_GT(trapped, 0);
  EXPECT_GT(watchdogged, 0);
  EXPECT_GT(fused_programs, 100);
}

TEST(EngineEquivalenceTest, RegisterWatchMatchesReferenceOnEveryRegister) {
  // The injection path's register watch, armed on each of the 18
  // registers in turn: the threaded engine deopts at superblock entry
  // when the rest of the superblock touches the watched register and
  // single-steps to the touching instruction, and must stop exactly where
  // the reference engine's per-step check stops — same stop rips and
  // masks, then the same end state.  Budgets include the tight ones that
  // force the watchdog deopt, and the generator's JmpR/Ret/corrupted
  // targets enter superblocks mid-stream.
  std::mt19937_64 rng(0x5eed0fa11u);
  std::uint64_t stops = 0, watch_runs = 0;
  for (int p = 0; p < 300; ++p) {
    const std::size_t len = 4 + (p % 60);
    const Program prog = random_program(rng, len);
    const auto compiled = compile_jit(prog);
    const std::uint64_t seed = rng();
    for (int r = 0; r < kNumArchRegs; ++r) {
      const std::uint32_t watch = reg_bit(static_cast<Reg>(r));
      const unsigned mode = static_cast<unsigned>(p + r) % 8;
      const bool trace = mode & 1, masks = mode & 2, shadow = mode & 4;
      for (const std::uint64_t max_steps :
           {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
            std::uint64_t{5}, 3 + (seed + static_cast<std::uint64_t>(r)) % 40,
            1 + (seed >> 8) % 300}) {
        const std::string what = "program " + std::to_string(p) + " reg " +
                                 std::to_string(r) + " budget " +
                                 std::to_string(max_steps);
        const EngineState ref =
            run_engine(prog, seed, EngineKind::Reference, nullptr, trace,
                       masks, shadow, max_steps, watch);
        const EngineState threaded =
            run_engine(prog, seed, EngineKind::Jit, compiled, trace, masks,
                       shadow, max_steps, watch);
        expect_equivalent(threaded, ref, "jit watch: " + what);
        stops += ref.stops.size();
        ++watch_runs;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  // Random programs often trap within a few steps; a good share of the
  // watched runs must still stop on the watch at least once.
  EXPECT_GT(stops, watch_runs / 4);
}

TEST(EngineEquivalenceTest, WatchStopsBeforeTouchingInstructionMidSuperblock) {
  // One straight-line superblock entered in the middle by an indirect
  // jump; the watched register is first touched three ops after the
  // landing site.  Both engines stop there with rip on the touching op,
  // having retired exactly the ops in between.
  Assembler as(kCodeBase);
  as.movi(Reg::rcx, kCodeBase + 4);  // 0
  as.jmp_reg(Reg::rcx);              // 1
  as.inc(Reg::rax);                  // 2 (skipped)
  as.inc(Reg::rax);                  // 3 (skipped)
  as.inc(Reg::rax);                  // 4: landing site
  as.inc(Reg::rax);                  // 5
  as.mov(Reg::rdx, Reg::r12);        // 6: reads r12
  as.inc(Reg::rax);                  // 7
  as.hlt();                          // 8
  const Program prog = as.finish();
  const auto compiled = compile_jit(prog);
  ASSERT_NE(compiled->ops[4].sb_regs & reg_bit(Reg::r12), 0u);

  const std::uint32_t watch = reg_bit(Reg::r12);
  for (const EngineKind kind : {EngineKind::Reference, EngineKind::Jit}) {
    Memory mem = make_memory();
    Cpu cpu(&prog, &mem);
    cpu.reset(prog.base(), kStackTop);
    cpu.set_compiled(kind == EngineKind::Jit ? compiled : nullptr);
    cpu.set_engine(kind);
    std::vector<Addr> trace;
    cpu.set_trace(&trace);
    cpu.set_watch(watch);
    const StepInfo stop = cpu.run(100);
    const std::string what(engine_name(kind));
    EXPECT_EQ(stop.status, StepInfo::Status::Ok) << what;
    EXPECT_EQ(stop.rip_before, kCodeBase + 6) << what;
    EXPECT_EQ(stop.read_mask, reg_bit(Reg::r12)) << what;
    EXPECT_EQ(stop.written_mask, reg_bit(Reg::rdx)) << what;
    EXPECT_EQ(cpu.reg(Reg::rip), kCodeBase + 6) << what;
    EXPECT_EQ(cpu.steps_executed(), 4u) << what;
    const std::vector<Addr> want = {kCodeBase, kCodeBase + 1, kCodeBase + 4,
                                    kCodeBase + 5};
    EXPECT_EQ(trace, want) << what;
    // With the watch cleared the run finishes normally.
    cpu.set_watch(0);
    EXPECT_EQ(cpu.run(100).status, StepInfo::Status::Halted) << what;
    EXPECT_EQ(cpu.steps_executed(), 6u) << what;
  }
}

TEST(EngineEquivalenceTest, CompiledSuperblockRegsAreSuffixUnions) {
  // OpEntry::sb_regs must equal the brute-force union of every later op's
  // static read and write sets up to the end of its superblock (and be 0
  // on the off-the-end sentinel): the watch check at superblock entry is
  // only sound if no touching op hides behind it.
  std::mt19937_64 rng(0xc0ffee);
  for (int p = 0; p < 200; ++p) {
    const Program prog = random_program(rng, 4 + (p % 60));
    const auto compiled = compile_jit(prog);
    for (const jit::Superblock& sb : compiled->superblocks) {
      for (std::uint32_t i = sb.first; i <= sb.last; ++i) {
        std::uint32_t want = 0;
        for (std::uint32_t j = i; j <= sb.last; ++j) {
          const Instruction& insn = prog.at(prog.base() + j);
          want |= regs_read(insn) | regs_written(insn);
        }
        ASSERT_EQ(compiled->ops[i].sb_regs, want)
            << "program " << p << " slot " << i;
      }
    }
    EXPECT_EQ(compiled->ops[prog.size()].sb_regs, 0u);
  }
}

/// Runs `prog` on the bare threaded engine (no register soup) and checks
/// it against the reference engine from the same clean state.
EngineState run_clean(const Program& prog,
                      const std::shared_ptr<const jit::CompiledProgram>& cp,
                      Addr entry, std::uint64_t max_steps = 100) {
  EngineState st[2];
  for (int k = 0; k < 2; ++k) {
    Memory mem = make_memory();
    Cpu cpu(&prog, &mem);
    cpu.reset(entry, kStackTop);
    if (k == 1) cpu.set_compiled(cp);
    cpu.set_engine(k == 1 ? EngineKind::Jit : EngineKind::Reference);
    cpu.set_trace(&st[k].trace);
    cpu.counters().arm();
    st[k].info = cpu.run(max_steps);
    st[k].regs = cpu.regs();
    st[k].steps = cpu.steps_executed();
    st[k].tsc = cpu.tsc();
    st[k].counters = cpu.counters().disarm();
    st[k].memory = mem.snapshot();
  }
  expect_equivalent(st[1], st[0], "clean run");
  return st[1];
}

TEST(EngineEquivalenceTest, FusedPairRetiresAsTwoInstructions) {
  Assembler as(kCodeBase);
  as.movi(Reg::rax, 5);
  const auto out = as.make_label();
  as.cmpi(Reg::rax, 5);  // fusable head
  as.je(out);            // fused tail, taken
  as.movi(Reg::rbx, 1);  // skipped
  as.bind(out);
  as.hlt();
  const Program prog = as.finish();
  const auto compiled = compile_jit(prog);
  ASSERT_EQ(handler_at(*compiled, 1), jit::Handler::FuseCmpRIJe);
  EXPECT_EQ(handler_at(*compiled, 2), jit::Handler::Je);

  const EngineState st = run_clean(prog, compiled, prog.base());
  ASSERT_EQ(st.info.status, StepInfo::Status::Halted);
  // movi + cmp + je retire; the pair contributes two trace entries, two
  // retired instructions (one branch), and two TSC ticks.
  EXPECT_EQ(st.steps, 3u);
  EXPECT_EQ(st.tsc, 3 * kTscPerStep);
  EXPECT_EQ(st.counters.inst_retired, 3u);
  EXPECT_EQ(st.counters.branches, 1u);
  const std::vector<Addr> want = {kCodeBase, kCodeBase + 1, kCodeBase + 2};
  EXPECT_EQ(st.trace, want);
  EXPECT_EQ(st.regs[static_cast<std::size_t>(Reg::rbx)], 0u);  // skipped
}

TEST(EngineEquivalenceTest, JumpTargetBetweenPairBlocksFusion) {
  // A branch landing directly on the Jcc slot enters between head and
  // tail.  The threaded stream fuses only the fall-through edge: the tail
  // slot keeps its plain token, so the landing executes the bare Jcc.
  Assembler as(kCodeBase);
  const auto jcc_slot = as.make_label();
  const auto end = as.make_label();
  as.movi(Reg::rax, 1);  // 0
  as.cmpi(Reg::rax, 2);  // 1: head (ZF clear)
  as.bind(jcc_slot);
  as.je(end);            // 2: tail — also a landing point; not taken
  as.cmpi(Reg::rax, 1);  // 3: ZF set
  as.jmp(jcc_slot);      // 4: lands on the tail, which is now taken
  as.bind(end);
  as.hlt();              // 5
  const Program prog = as.finish();
  const auto compiled = compile_jit(prog);
  EXPECT_TRUE(fused_head(*compiled, 1));
  EXPECT_EQ(handler_at(*compiled, 2), jit::Handler::Je);

  const EngineState st = run_clean(prog, compiled, prog.base());
  EXPECT_EQ(st.info.status, StepInfo::Status::Halted);
  const std::vector<Addr> want = {kCodeBase,     kCodeBase + 1, kCodeBase + 2,
                                  kCodeBase + 3, kCodeBase + 4, kCodeBase + 2};
  EXPECT_EQ(st.trace, want);
}

TEST(EngineEquivalenceTest, MovRIOfCodeAddressBlocksFusion) {
  // MovRI of a label is indirect-jump material: a JmpR through it lands
  // between the pair and must execute the bare Jcc.
  Assembler as(kCodeBase);
  const auto tail = as.make_label();
  const auto end = as.make_label();
  as.movi(Reg::rax, 1);     // 0
  as.movi(Reg::rcx, tail);  // 1: rcx = address of the je below
  as.cmpi(Reg::rax, 0);     // 2: head (ZF clear)
  as.bind(tail);
  as.je(end);               // 3: tail; not taken on the fall-through
  as.cmpi(Reg::rax, 1);     // 4: ZF set
  as.jmp_reg(Reg::rcx);     // 5: lands on the tail, which is now taken
  as.bind(end);
  as.hlt();                 // 6
  const Program prog = as.finish();
  const auto compiled = compile_jit(prog);
  EXPECT_TRUE(fused_head(*compiled, 2));
  EXPECT_EQ(handler_at(*compiled, 3), jit::Handler::Je);

  const EngineState st = run_clean(prog, compiled, prog.base());
  EXPECT_EQ(st.info.status, StepInfo::Status::Halted);
  EXPECT_EQ(st.trace.back(), kCodeBase + 3);
  EXPECT_EQ(st.steps, 7u);
}

TEST(EngineEquivalenceTest, SymbolOnTailBlocksFusion) {
  // Dispatch can enter at a symbol placed right on the tail: that entry
  // executes the bare Jcc on whatever flags it finds.
  Assembler as(kCodeBase);
  const auto end = as.make_label();
  as.cmpi(Reg::rax, 0);  // head (slot 0)
  as.global("entry2");   // dispatchable entry right on the tail
  as.je(end);
  as.bind(end);
  as.hlt();
  const Program prog = as.finish();
  const auto compiled = compile_jit(prog);
  EXPECT_TRUE(fused_head(*compiled, 0));
  EXPECT_EQ(handler_at(*compiled, 1), jit::Handler::Je);

  const EngineState st = run_clean(prog, compiled, prog.symbol("entry2"));
  EXPECT_EQ(st.info.status, StepInfo::Status::Halted);
  const std::vector<Addr> want = {kCodeBase + 1};
  EXPECT_EQ(st.trace, want);
}

TEST(EngineEquivalenceTest, CallReturnSiteLandsOnHeadNotTail) {
  // A call's return site is the slot right after it.  When that slot is a
  // fusable pair's *head*, control entering there still executes both
  // instructions of the pair through the fused token.  (A return site can
  // never be a pair's tail: that would put the call in the head slot, and
  // a call is not a compare.)
  Assembler as(kCodeBase);
  const auto skip = as.make_label();
  const auto done = as.make_label();
  as.jmp(skip);
  as.global("leaf");
  as.ret();
  as.bind(skip);
  as.call("leaf");       // slot 2; return site is slot 3
  as.cmpi(Reg::rax, 0);  // slot 3: head, and a landing point
  as.je(done);           // slot 4: tail, not a landing point
  as.bind(done);
  as.hlt();
  const Program prog = as.finish();
  const auto compiled = compile_jit(prog);
  EXPECT_TRUE(fused_head(*compiled, 3));

  const EngineState st = run_clean(prog, compiled, prog.base());
  EXPECT_EQ(st.info.status, StepInfo::Status::Halted);
  EXPECT_EQ(st.steps, 5u);
}

TEST(EngineEquivalenceTest, WatchdogBoundarySplitsFusedPair) {
  // max_steps expiring between head and tail: the threaded engine must
  // execute the head alone and then watchdog, exactly like the reference
  // engine.  test rax,0 sets ZF for any rax, so the loop never exits.
  Assembler as(kCodeBase);
  const auto loop = as.here();
  as.testi(Reg::rax, 0);
  as.je(loop);
  as.hlt();
  const Program prog = as.finish();
  const auto compiled = compile_jit(prog);
  ASSERT_EQ(handler_at(*compiled, 0), jit::Handler::FuseTestRIJe);

  for (std::uint64_t max_steps = 1; max_steps <= 5; ++max_steps) {
    const EngineState ref = run_engine(prog, 42, EngineKind::Reference,
                                       nullptr, true, true, false, max_steps);
    const EngineState threaded = run_engine(prog, 42, EngineKind::Jit,
                                            compiled, true, true, false,
                                            max_steps);
    expect_equivalent(threaded, ref,
                      "jit max_steps " + std::to_string(max_steps));
    EXPECT_EQ(threaded.info.trap.kind, TrapKind::Watchdog);
    EXPECT_EQ(threaded.steps, max_steps);
  }
}

TEST(EngineEquivalenceTest, JitDeoptsAtEveryTightWatchdogBudget) {
  // A long straight-line superblock ending in a backedge: every budget
  // from 0 (immediate watchdog) up past one full iteration forces the
  // threaded engine's sb_remaining check to deopt to the reference engine
  // at a different interior op.  All budgets must stay bit-identical to the
  // reference engine, including counters and the recorded trace.
  Assembler as(kCodeBase);
  const auto loop = as.here();
  for (int i = 0; i < 12; ++i) as.inc(Reg::rax);
  as.movi(Reg::rbx, kDataBase + 4);
  as.store(Reg::rbx, Reg::rax);
  as.jmp(loop);
  const Program prog = as.finish();
  const auto compiled = compile_jit(prog);

  for (std::uint64_t max_steps = 0; max_steps <= 35; ++max_steps) {
    const EngineState ref = run_engine(prog, 9, EngineKind::Reference,
                                       nullptr, true, true, false, max_steps);
    const EngineState threaded = run_engine(prog, 9, EngineKind::Jit,
                                            compiled, true, true, false,
                                            max_steps);
    expect_equivalent(threaded, ref,
                      "budget " + std::to_string(max_steps));
    EXPECT_EQ(threaded.info.trap.kind, TrapKind::Watchdog);
  }
}

TEST(EngineEquivalenceTest, JitMidSuperblockIndirectEntry) {
  // An indirect jump landing in the *middle* of a superblock exercises
  // the entry-bias accounting: the engine must subtract the landing op's
  // prefixes so only the ops actually executed are retired.
  Assembler as(kCodeBase);
  const auto end = as.make_label();
  as.movi(Reg::rcx, kCodeBase + 6);  // mid-run landing site
  as.jmp_reg(Reg::rcx);
  as.inc(Reg::rax);  // slots 2..8: one straight-line run
  as.inc(Reg::rax);
  as.inc(Reg::rax);
  as.inc(Reg::rax);
  as.inc(Reg::rax);  // slot 6: the landing site
  as.inc(Reg::rax);
  as.inc(Reg::rax);
  as.jmp(end);
  as.bind(end);
  as.hlt();
  const Program prog = as.finish();
  const auto compiled = compile_jit(prog);

  const EngineState ref = run_engine(prog, 5, EngineKind::Reference, nullptr,
                                     true, true, false, 100);
  const EngineState threaded = run_engine(prog, 5, EngineKind::Jit, compiled,
                                          true, true, false, 100);
  expect_equivalent(threaded, ref, "mid-superblock entry");
  EXPECT_EQ(threaded.info.status, StepInfo::Status::Halted);
  // movi, jmp_reg, the three incs from the landing site on, jmp — and
  // nothing before the landing site.
  const std::vector<Addr> want = {kCodeBase,     kCodeBase + 1, kCodeBase + 6,
                                  kCodeBase + 7, kCodeBase + 8, kCodeBase + 9};
  EXPECT_EQ(threaded.trace, want);
  EXPECT_EQ(threaded.counters.inst_retired, 6u);
}

TEST(EngineEquivalenceTest, JitOutOfImageControlTransfers) {
  // Unknown-target edges: a direct branch compiled with kNoTarget, an
  // indirect jump past the image, and one landing exactly on the
  // off-the-end sentinel slot.  Every case must fault like the reference
  // engine (instruction fetch #PF at the target).
  const std::int64_t targets[] = {
      static_cast<std::int64_t>(kCodeBase) + 64,   // far past the image
      static_cast<std::int64_t>(kCodeBase) - 1,    // just before it
      static_cast<std::int64_t>(kCodeBase) + 3,    // one past the last slot
      0,                                           // null
  };
  for (const std::int64_t target : targets) {
    for (const bool indirect : {false, true}) {
      Assembler as(kCodeBase);
      if (indirect) {
        as.movi(Reg::rcx, target);
        as.jmp_reg(Reg::rcx);
        as.hlt();
      } else {
        as.nop();
        as.emit_raw({Opcode::Jmp, Reg::rax, Reg::rax, target, 0});
        as.hlt();
      }
      const Program prog = as.finish();
      const auto compiled = compile_jit(prog);
      const EngineState ref = run_engine(prog, 1, EngineKind::Reference,
                                         nullptr, true, true, false, 100);
      const EngineState threaded = run_engine(prog, 1, EngineKind::Jit,
                                              compiled, true, true, false,
                                              100);
      expect_equivalent(threaded, ref,
                        (indirect ? std::string("jmpr ") : std::string("jmp ")) +
                            std::to_string(target));
      EXPECT_EQ(threaded.info.trap.kind, TrapKind::PageFault);
      EXPECT_EQ(threaded.info.trap.fault_addr, static_cast<Addr>(target));
    }
  }
}

TEST(EngineEquivalenceTest, JitWithoutCompiledProgramFallsBackToReference) {
  Assembler as(kCodeBase);
  as.movi(Reg::rax, 7);
  as.inc(Reg::rax);
  as.hlt();
  const Program prog = as.finish();
  const EngineState ref = run_engine(prog, 3, EngineKind::Reference, nullptr,
                                     true, true, false, 100);
  const EngineState threaded = run_engine(prog, 3, EngineKind::Jit, nullptr,
                                          true, true, false, 100);
  expect_equivalent(threaded, ref, "jit fallback");
  EXPECT_EQ(threaded.info.status, StepInfo::Status::Halted);
}

TEST(EngineEquivalenceTest, StaleCompiledProgramRejected) {
  Assembler as(kCodeBase);
  as.movi(Reg::rax, 1);
  as.hlt();
  const Program prog = as.finish();
  Assembler other_as(kCodeBase);
  other_as.movi(Reg::rax, 2);  // different text, same base and size
  other_as.hlt();
  const Program other = other_as.finish();

  Memory mem = make_memory();
  Cpu cpu(&prog, &mem);
  EXPECT_THROW(cpu.set_compiled(compile_jit(other)), std::invalid_argument);
  EXPECT_NO_THROW(cpu.set_compiled(compile_jit(prog)));
}

TEST(EngineEquivalenceTest, CompileRejectsInvalidTilings) {
  Assembler as(kCodeBase);
  as.inc(Reg::rax);  // 0: falls through
  as.inc(Reg::rax);  // 1: falls through
  as.emit_raw({Opcode::Jmp, Reg::rax, Reg::rax,
               static_cast<std::int64_t>(kCodeBase), 0});  // 2: terminator
  as.hlt();                                                // 3: terminator
  const Program prog = as.finish();

  using jit::Superblock;
  // Valid tiling compiles.
  EXPECT_NO_THROW(jit::compile(prog, {{0, 2}, {3, 3}}));
  // Boundary splits the guaranteed 0->1 fall-through edge.
  EXPECT_THROW(jit::compile(prog, {{0, 0}, {1, 2}, {3, 3}}),
               std::invalid_argument);
  // Superblock continues past the non-fall-through jmp.
  EXPECT_THROW(jit::compile(prog, {{0, 3}}), std::invalid_argument);
  // Gap: slot 3 uncovered.
  EXPECT_THROW(jit::compile(prog, {{0, 2}}), std::invalid_argument);
  // Out of range.
  EXPECT_THROW(jit::compile(prog, {{0, 2}, {3, 4}}), std::invalid_argument);
}

// -- Trace cursor -------------------------------------------------------------
//
// The jit's Trace variants store retired rips through a cursor into room
// reserved at superblock entry and trim the caller's vector at every exit.
// These runs compare the jit's trace with the reference engine's on every
// exit kind, starting from caller vectors that already hold entries or
// have little or no capacity.

/// How a trace-cursor program ends.
enum class TraceExit {
  Hlt,
  Trap,
  Assertion,
  WatchdogAtHlt,  ///< the budget runs out exactly at the hlt
  DeoptTail,      ///< the budget runs out mid-superblock
  WatchStop,
  OffImage,
  OffEnd,
};

constexpr std::size_t kTraceLong = 150;  ///< the straight-line run's length

/// A short warm-up loop (several superblock entries, so reservations grow
/// past what they use), a kTraceLong-instruction straight-line run inside
/// the same superblock (a reservation larger than any chunk), then the
/// exit.  Nothing before the exit touches rdx, the watched register.
Program trace_exit_program(TraceExit exit) {
  Assembler as(kCodeBase);
  as.movi(Reg::rcx, 8);
  const auto warm = as.here();
  as.inc(Reg::rax);
  as.dec(Reg::rcx);
  as.jne(warm);
  for (std::size_t i = 0; i < kTraceLong; ++i) as.inc(Reg::rbx);
  switch (exit) {
    case TraceExit::Hlt:
    case TraceExit::WatchdogAtHlt:
      as.hlt();
      break;
    case TraceExit::Trap:
      as.movi(Reg::rsi, 0x7fff0000);
      as.load(Reg::rdi, Reg::rsi);
      as.hlt();
      break;
    case TraceExit::Assertion:
      as.assert_eq(Reg::rbx, 0, 7);
      as.hlt();
      break;
    case TraceExit::DeoptTail: {
      const auto spin = as.make_label();
      as.jmp(spin);
      as.bind(spin);
      for (int i = 0; i < 20; ++i) as.inc(Reg::rsi);
      as.jmp(spin);
      break;
    }
    case TraceExit::WatchStop: {
      const auto next = as.make_label();
      as.jmp(next);
      as.bind(next);
      as.inc(Reg::rbx);
      as.inc(Reg::rbx);
      as.inc(Reg::rdx);  // the watch stops before this one
      as.hlt();
      break;
    }
    case TraceExit::OffImage:
      as.movi(Reg::rsi, 0x1000);
      as.jmp_reg(Reg::rsi);
      break;
    case TraceExit::OffEnd:
      break;  // the straight-line run falls off the image
  }
  return as.finish();
}

struct TracedRun {
  StepInfo info;
  std::uint64_t steps = 0;
  std::vector<Addr> trace;
};

/// Runs `prog` from its base once, into a trace vector that starts with
/// `prefix` entries and at least `capacity` capacity.
TracedRun run_traced(const Program& prog, EngineKind kind,
                     const std::shared_ptr<const jit::CompiledProgram>& cp,
                     std::size_t prefix, std::size_t capacity,
                     std::uint64_t max_steps, std::uint32_t watch = 0) {
  Memory mem = make_memory();
  Cpu cpu(&prog, &mem);
  cpu.reset(prog.base(), kStackTop);
  if (cp != nullptr) cpu.set_compiled(cp);
  cpu.set_engine(kind);
  TracedRun r;
  r.trace.reserve(capacity);
  for (std::size_t i = 0; i < prefix; ++i) r.trace.push_back(0xabc000 + i);
  cpu.set_trace(&r.trace);
  cpu.set_watch(watch);
  r.info = cpu.run(max_steps);
  r.steps = cpu.steps_executed();
  return r;
}

/// Caller vectors the cursor must append to: {entries already held,
/// capacity reserved}.
constexpr std::pair<std::size_t, std::size_t> kTraceStarts[] = {
    {0, 0}, {0, 1}, {0, 3}, {5, 5}, {5, 4096}, {200, 200},
};

TEST(EngineEquivalenceTest, TraceCursorMatchesReferenceOnEveryExit) {
  // Steps before the hlt: movi, 8 x (inc, dec, jne), the straight line.
  const std::uint64_t to_hlt = 1 + 8 * 3 + kTraceLong;
  struct Case {
    TraceExit exit;
    std::uint64_t max_steps;
    StepInfo::Status status;
    TrapKind trap;
  };
  const Case cases[] = {
      {TraceExit::Hlt, 100000, StepInfo::Status::Halted, TrapKind::None},
      {TraceExit::Trap, 100000, StepInfo::Status::Trapped,
       TrapKind::PageFault},
      {TraceExit::Assertion, 100000, StepInfo::Status::Trapped,
       TrapKind::AssertFailed},
      {TraceExit::WatchdogAtHlt, to_hlt, StepInfo::Status::Trapped,
       TrapKind::Watchdog},
      {TraceExit::DeoptTail, 1000, StepInfo::Status::Trapped,
       TrapKind::Watchdog},
      {TraceExit::WatchStop, 100000, StepInfo::Status::Ok, TrapKind::None},
      {TraceExit::OffImage, 100000, StepInfo::Status::Trapped,
       TrapKind::PageFault},
      {TraceExit::OffEnd, 100000, StepInfo::Status::Trapped,
       TrapKind::PageFault},
  };
  const std::uint32_t watch = reg_bit(Reg::rdx);
  for (const Case& c : cases) {
    const Program prog = trace_exit_program(c.exit);
    const auto compiled = compile_jit(prog);
    const std::uint32_t w = c.exit == TraceExit::WatchStop ? watch : 0;
    for (const auto& [prefix, capacity] : kTraceStarts) {
      const std::string what = "exit " +
                               std::to_string(static_cast<int>(c.exit)) +
                               " prefix " + std::to_string(prefix) +
                               " capacity " + std::to_string(capacity);
      const TracedRun ref = run_traced(prog, EngineKind::Reference, nullptr,
                                       prefix, capacity, c.max_steps, w);
      const TracedRun jit = run_traced(prog, EngineKind::Jit, compiled,
                                       prefix, capacity, c.max_steps, w);
      EXPECT_EQ(ref.info.status, c.status) << what;
      EXPECT_EQ(ref.info.trap.kind, c.trap) << what;
      EXPECT_EQ(jit.info.status, ref.info.status) << what;
      EXPECT_EQ(jit.info.trap.kind, ref.info.trap.kind) << what;
      EXPECT_EQ(jit.info.rip_before, ref.info.rip_before) << what;
      EXPECT_EQ(jit.steps, ref.steps) << what;
      // One entry per retired instruction, after the caller's entries.
      ASSERT_EQ(ref.trace.size(), prefix + ref.steps) << what;
      EXPECT_EQ(jit.trace, ref.trace) << what;
    }
  }
}

TEST(EngineEquivalenceTest, TraceCursorWatchdogLoopOf100000Steps) {
  // A hang at the campaign's watchdog budget: every one of the 100,000
  // retires lands in the trace, and the run ends in the deopt tail.
  Assembler as(kCodeBase);
  const auto loop = as.here();
  as.inc(Reg::rax);
  as.movi(Reg::rbx, kDataBase + 4);
  as.store(Reg::rbx, Reg::rax);
  as.cmpi(Reg::rax, 0);
  as.jne(loop);
  as.jmp(loop);
  const Program prog = as.finish();
  const auto compiled = compile_jit(prog);
  for (const auto& [prefix, capacity] : kTraceStarts) {
    const TracedRun ref = run_traced(prog, EngineKind::Reference, nullptr,
                                     prefix, capacity, 100000);
    const TracedRun jit = run_traced(prog, EngineKind::Jit, compiled, prefix,
                                     capacity, 100000);
    EXPECT_EQ(jit.info.trap.kind, TrapKind::Watchdog);
    EXPECT_EQ(jit.steps, 100000u);
    ASSERT_EQ(jit.trace.size(), prefix + 100000u);
    EXPECT_EQ(jit.trace, ref.trace) << "prefix " << prefix;
  }
}

}  // namespace
}  // namespace xentry::sim
