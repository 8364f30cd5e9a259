// Compilation target of the threaded-code execution engine.
//
// A CompiledProgram is a flat, pre-decoded handler stream: one OpEntry per
// instruction slot (plus one off-the-end sentinel), each carrying a small
// handler token, resolved operands, and the static bookkeeping prefixes of
// its superblock.  The hot loop in the executor (src/sim/jit/engine.cpp)
// is then pure label dispatch — no fetch bounds check, no opcode switch,
// no per-step retire/TSC/counter updates, and no fusion re-check.
//
// Superblocks here are maximal fall-through runs: chains of the analysis
// CFG's basic blocks glued along seams their terminators are guaranteed to
// fall through (conditional-branch fall-through paths and plain landing
// -site splits), extended across trailing Ud padding.  A superblock is
// therefore entered at its top by direct branches, anywhere inside it by
// indirect control flow or a corrupted rip, and left by side exits
// (branches, calls, traps) or off its end.  Three static per-op fields
// make entry-anywhere accounting and the superblock-entry checks free:
//
//   pre_*        what a walk from the superblock top to this op would have
//                retired.  The executor *subtracts* the entry op's prefix
//                from its accumulators on entry and *adds* the exit op's
//                prefix on exit, so every op between entry and exit is
//                accounted with zero per-op work, wherever entry landed.
//   sb_remaining worst-case retires from this op to the superblock's end.
//                Checked once per superblock entry against the remaining
//                watchdog budget; when the budget cannot cover the run,
//                the executor deopts to the reference engine for the
//                short tail instead of re-checking per step.
//   sb_regs      union of the static read and write register sets
//                (sim::regs_read | sim::regs_written) from this op to the
//                superblock's end.  Checked against the CPU's register
//                watch in the same entry check: a superblock whose rest
//                might touch a watched register is single-stepped up to
//                the touching op instead of run threaded.
//
// The stream is position-independent shareable data: branch targets are
// slot indices, not pointers, and nothing references the Cpu or Memory it
// will run against, so one CompiledProgram (cached by program text
// signature, see CodeCache) serves every shard of a campaign concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/isa.hpp"
#include "sim/types.hpp"

namespace xentry::sim {

class Program;

namespace jit {

/// Handler tokens of the threaded stream, one per architectural opcode
/// plus the two synthetic entries:
///   OffEnd   the sentinel slot one past the code image (fall-through off
///            the end faults like an instruction fetch from unmapped
///            memory, after retiring everything before it)
///   SyncRip  prefix wrapper for the rare instructions that *read* rip as
///            an explicit operand: materializes the architectural rip
///            (which the engine otherwise keeps implicit in the stream
///            cursor) and chains to the real handler via OpEntry::target.
/// The Fuse* tokens are compile-time macro-fusion: a compare/test whose
/// successor slot is a conditional branch executes both in one dispatch
/// (the fused handler sets flags, advances the cursor, and falls straight
/// into the branch handler's code).  The branch keeps its own plain token
/// in its own slot, so indirect control flow landing *on* the branch
/// still works; fusion only short-circuits the fall-through edge.  Each
/// compare kind's eight branch variants are declared contiguously in Jcc
/// order so the compiler derives the token by offset.
/// Tokens are small indices into a per-specialization label table rather
/// than raw label addresses, so one stream serves all Trace/Shadow
/// executor variants and stays shareable across threads.
#define XENTRY_JIT_HANDLERS(X)                                              \
  X(Nop) X(MovRR) X(MovRI) X(Load) X(Store) X(Push) X(Pop)                  \
  X(AddRR) X(AddRI) X(SubRR) X(SubRI) X(MulRR) X(DivR)                      \
  X(AndRR) X(AndRI) X(OrRR) X(OrRI) X(XorRR) X(XorRI)                       \
  X(ShlRI) X(ShrRI) X(ShlRR) X(ShrRR) X(Neg) X(Not) X(Inc) X(Dec)           \
  X(CmpRR) X(CmpRI) X(TestRR) X(TestRI)                                     \
  X(Jmp) X(JmpR) X(Je) X(Jne) X(Jl) X(Jle) X(Jg) X(Jge) X(Jb) X(Jae)        \
  X(Call) X(Ret) X(Rdtsc) X(Hlt)                                            \
  X(AssertLeRI) X(AssertGeRI) X(AssertEqRI) X(AssertNeRI)                   \
  X(AssertEqRR) X(AssertLtRR)                                               \
  X(Ud) X(OffEnd) X(SyncRip)                                                \
  X(FuseCmpRRJe) X(FuseCmpRRJne) X(FuseCmpRRJl) X(FuseCmpRRJle)             \
  X(FuseCmpRRJg) X(FuseCmpRRJge) X(FuseCmpRRJb) X(FuseCmpRRJae)             \
  X(FuseCmpRIJe) X(FuseCmpRIJne) X(FuseCmpRIJl) X(FuseCmpRIJle)             \
  X(FuseCmpRIJg) X(FuseCmpRIJge) X(FuseCmpRIJb) X(FuseCmpRIJae)             \
  X(FuseTestRRJe) X(FuseTestRRJne) X(FuseTestRRJl) X(FuseTestRRJle)         \
  X(FuseTestRRJg) X(FuseTestRRJge) X(FuseTestRRJb) X(FuseTestRRJae)         \
  X(FuseTestRIJe) X(FuseTestRIJne) X(FuseTestRIJl) X(FuseTestRIJle)         \
  X(FuseTestRIJg) X(FuseTestRIJge) X(FuseTestRIJb) X(FuseTestRIJae)

enum class Handler : std::uint16_t {
#define XENTRY_JIT_ENUM_ENTRY(name) name,
  XENTRY_JIT_HANDLERS(XENTRY_JIT_ENUM_ENTRY)
#undef XENTRY_JIT_ENUM_ENTRY
};

inline constexpr std::size_t kNumHandlers = [] {
  std::size_t n = 0;
#define XENTRY_JIT_COUNT_ENTRY(name) ++n;
  XENTRY_JIT_HANDLERS(XENTRY_JIT_COUNT_ENTRY)
#undef XENTRY_JIT_COUNT_ENTRY
  return n;
}();

/// OpEntry::target value for direct branches whose resolved target lies
/// outside the code image (the taken path page-faults at the target).
inline constexpr std::uint32_t kNoTarget = 0xffffffffu;

/// One pre-decoded slot of the threaded stream.
struct OpEntry {
  std::uint16_t handler = 0;  ///< Handler token (index into the label table)
  std::uint8_t r1 = 0;
  std::uint8_t r2 = 0;
  /// Direct branches: resolved target slot index (kNoTarget when outside
  /// the image).  SyncRip: the wrapped real handler token.  Unused
  /// otherwise.
  std::uint32_t target = kNoTarget;
  // Superblock accounting (see the file header).
  std::uint32_t pre_retired = 0;
  std::uint32_t pre_branches = 0;
  std::uint32_t pre_loads = 0;
  std::uint32_t pre_stores = 0;
  std::uint32_t sb_remaining = 0;
  std::uint32_t sb_regs = 0;  ///< reg_bit mask; see the file header
  std::uint32_t aux = 0;      ///< assertion id
  std::int64_t imm = 0;   ///< raw immediate (branch target address, ALU imm)
};

/// One superblock: an inclusive range of instruction slots.  Produced by
/// analysis::form_superblocks over the CFG; compile() validates that the
/// list tiles the code image and never splits a guaranteed fall-through
/// edge (the accounting scheme is unsound otherwise).
struct Superblock {
  std::uint32_t first = 0;
  std::uint32_t last = 0;
};

/// True when executing `op` can continue at the next instruction slot.
/// Superblocks end exactly at the ops for which this is false; Call
/// counts as non-fall-through because it always transfers (its return
/// site is re-entered indirectly by Ret, with entry-bias accounting).
constexpr bool can_fall_through(Opcode op) {
  switch (op) {
    case Opcode::Jmp: case Opcode::JmpR: case Opcode::Call:
    case Opcode::Ret: case Opcode::Hlt: case Opcode::Ud:
      return false;
    default:
      return true;
  }
}

struct CompiledProgram {
  Addr base = 0;
  std::uint32_t code_size = 0;  ///< instruction slots, excluding sentinel
  /// sim::program_text_signature of the compiled-from program; the cache
  /// key, and the staleness check Cpu::set_compiled enforces.
  std::uint64_t signature = 0;
  std::vector<OpEntry> ops;  ///< code_size + 1 entries (OffEnd sentinel)
  std::vector<Superblock> superblocks;

  /// True when this compilation is valid for `program` (same base, size,
  /// and text signature).
  bool matches(const Program& program) const;
};

/// Compiles `program` into a threaded stream over the given superblock
/// tiling.  Throws std::invalid_argument when the tiling does not cover
/// the image contiguously or splits a fall-through edge (a stale or
/// hand-rolled superblock list — fail fast, the accounting would be
/// silently wrong).
std::shared_ptr<const CompiledProgram> compile(
    const Program& program, const std::vector<Superblock>& superblocks);

}  // namespace jit
}  // namespace xentry::sim
