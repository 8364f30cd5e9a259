// Basic-block control-flow graph over an assembled Program.
//
// Leaders come from the program's landing-site set
// (sim::compute_landing_sites), plus the slot after every branch and the
// first slot of every contiguous non-padding run, so the threaded-code
// compiler, the verifier, and the runtime control-flow-integrity detector
// can never disagree about where control may arrive.  Every non-Ud
// instruction belongs to exactly one block; Ud padding belongs to none.
//
// Edges model one dynamic step of retired control flow, which is exactly
// what the trace-replay CFI check walks:
//   - Jmp/Jcc: taken target (+ fall-through for Jcc);
//   - Call:    the callee entry (the return site becomes a separate
//              root block, entered later by the callee's Ret);
//   - Ret:     every statically visible return address of the enclosing
//              function — return sites of direct calls to its entry plus
//              every MovRI immediate landing in code (manually pushed
//              return addresses, e.g. the multicall trampoline);
//   - JmpR:    the caller-supplied resolved target set, or "accept any
//              valid instruction" when the set is unknown;
//   - Hlt:     nothing (the VM-entry gate does not retire).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/program.hpp"

namespace xentry::analysis {

inline constexpr std::uint32_t kNoBlock = 0xffffffffu;

struct BasicBlock {
  sim::Addr first = 0;  ///< address of the first instruction
  sim::Addr last = 0;   ///< address of the last instruction (inclusive)
  std::vector<std::uint32_t> succs;  ///< successor block indices
  std::vector<std::uint32_t> preds;  ///< predecessor block indices
  /// Set for a block ending in an indirect jump with no resolved target
  /// set: at runtime any valid instruction is accepted as its successor.
  bool accept_any_succ = false;
  bool is_function_entry = false;  ///< leader is a named symbol
  /// Ends with a direct branch whose target is illegal (out of range or
  /// padding); the offending edge is omitted from succs.
  bool has_illegal_target = false;
  /// Last instruction can fall through but the next slot is Ud padding.
  bool falls_into_padding = false;
  std::uint64_t signature = 0;  ///< FNV-1a over the block's instructions

  std::size_t size() const {
    return static_cast<std::size_t>(last - first) + 1;
  }
};

/// Legality of a direct branch/call target — the single implementation
/// behind both CFG edge construction and verifier diagnostics.
enum class TargetStatus : std::uint8_t { Ok, OutOfRange, Padding };
TargetStatus classify_branch_target(const sim::Program& program,
                                    sim::Addr target);

struct CfgOptions {
  /// Statically resolved target sets for indirect jumps, keyed by the
  /// address of the JmpR instruction.  A JmpR without an entry (or with
  /// an empty set) is treated as unresolved: accept_any_succ.
  std::map<sim::Addr, std::vector<sim::Addr>> indirect_targets;
};

struct ControlFlowGraph {
  sim::Addr base = 0;
  std::size_t code_size = 0;
  std::vector<BasicBlock> blocks;  ///< ordered by first address
  /// Per-slot block index (kNoBlock for Ud padding), O(1) lookup for the
  /// runtime edge check.
  std::vector<std::uint32_t> block_of;
  std::vector<bool> landing;  ///< sim::compute_landing_sites snapshot
  /// Block indices control can enter from outside the graph: symbol
  /// entries (or the first instruction when there are none), call return
  /// sites, and MovRI code-immediate landing sites.  Reachability,
  /// dominators, and the interval analysis all start here.
  std::vector<std::uint32_t> roots;

  std::uint32_t block_at(sim::Addr a) const {
    const sim::Addr off = a - base;
    return off < code_size ? block_of[off] : kNoBlock;
  }
};

ControlFlowGraph build_cfg(const sim::Program& program,
                           const CfgOptions& options = {});

/// FNV-1a over the architectural encoding (op, r1, r2, imm, aux) of every
/// instruction slot.  Pairs artifacts with the
/// exact program they were computed from.
std::uint64_t program_signature(const sim::Program& program);

}  // namespace xentry::analysis
