#include "analysis/cfg.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/assembler.hpp"

namespace xentry::analysis {
namespace {

using sim::Addr;
using sim::Assembler;
using sim::Opcode;
using sim::Program;
using sim::Reg;

/// True when `from`'s successor list contains the block starting at
/// `leader`.
bool has_succ_at(const ControlFlowGraph& cfg, std::uint32_t from,
                 Addr leader) {
  const std::uint32_t to = cfg.block_at(leader);
  if (to == kNoBlock || cfg.blocks[to].first != leader) return false;
  const auto& s = cfg.blocks[from].succs;
  return std::find(s.begin(), s.end(), to) != s.end();
}

TEST(CfgTest, SingleBlockFunction) {
  Assembler as(0);
  as.global("main");
  as.movi(Reg::rax, 42);
  as.hlt();
  const Program p = as.finish();
  const ControlFlowGraph cfg = build_cfg(p);
  ASSERT_EQ(cfg.blocks.size(), 1u);
  EXPECT_EQ(cfg.blocks[0].first, 0u);
  EXPECT_EQ(cfg.blocks[0].last, 1u);
  EXPECT_TRUE(cfg.blocks[0].is_function_entry);
  EXPECT_TRUE(cfg.blocks[0].succs.empty());  // Hlt has no edges
  ASSERT_EQ(cfg.roots.size(), 1u);
  EXPECT_EQ(cfg.roots[0], 0u);
  EXPECT_EQ(cfg.block_at(0), 0u);
  EXPECT_EQ(cfg.block_at(1), 0u);
  EXPECT_EQ(cfg.block_at(2), kNoBlock);  // out of range
}

TEST(CfgTest, EmptyProgram) {
  Assembler as(0);
  const Program p = as.finish();
  const ControlFlowGraph cfg = build_cfg(p);
  EXPECT_TRUE(cfg.blocks.empty());
  EXPECT_TRUE(cfg.roots.empty());
  EXPECT_EQ(cfg.block_at(0), kNoBlock);
}

TEST(CfgTest, PaddingBelongsToNoBlock) {
  Assembler as(0);
  as.global("main");
  as.hlt();      // 0
  as.pad_ud(2);  // 1, 2
  as.global("aux");
  as.hlt();  // 3
  const Program p = as.finish();
  const ControlFlowGraph cfg = build_cfg(p);
  ASSERT_EQ(cfg.blocks.size(), 2u);
  EXPECT_EQ(cfg.block_at(1), kNoBlock);
  EXPECT_EQ(cfg.block_at(2), kNoBlock);
  ASSERT_NE(cfg.block_at(3), kNoBlock);
  EXPECT_TRUE(cfg.blocks[cfg.block_at(3)].is_function_entry);
}

TEST(CfgTest, CallAndReturnEdges) {
  Assembler as(100);
  as.global("main");
  as.movi(Reg::rax, 1);  // 100
  as.call("leaf");       // 101
  as.hlt();              // 102 (return site)
  as.pad_ud(2);          // 103, 104
  as.global("leaf");
  as.ret();  // 105
  const Program p = as.finish();
  const ControlFlowGraph cfg = build_cfg(p);
  ASSERT_EQ(cfg.blocks.size(), 3u);

  const std::uint32_t b_main = cfg.block_at(100);
  const std::uint32_t b_site = cfg.block_at(102);
  const std::uint32_t b_leaf = cfg.block_at(105);
  // Call edge goes to the callee entry, not the return site.
  EXPECT_TRUE(has_succ_at(cfg, b_main, 105));
  EXPECT_EQ(cfg.blocks[b_main].succs.size(), 1u);
  // Ret's successor set is the function's statically visible return sites.
  EXPECT_TRUE(has_succ_at(cfg, b_leaf, 102));
  EXPECT_EQ(cfg.blocks[b_leaf].succs.size(), 1u);
  // The return site is re-entered from outside straight-line flow: a root.
  ASSERT_EQ(cfg.roots.size(), 3u);
  EXPECT_NE(std::find(cfg.roots.begin(), cfg.roots.end(), b_site),
            cfg.roots.end());
}

TEST(CfgTest, SelfLoop) {
  Assembler as(0);
  as.movi(Reg::rcx, 50);  // 0 (imm outside the code image)
  const auto loop = as.here();
  as.dec(Reg::rcx);   // 1
  as.cmpi(Reg::rcx, 0);  // 2
  as.jne(loop);       // 3
  as.hlt();           // 4
  const Program p = as.finish();
  const ControlFlowGraph cfg = build_cfg(p);
  ASSERT_EQ(cfg.blocks.size(), 3u);
  const std::uint32_t b_loop = cfg.block_at(1);
  EXPECT_EQ(cfg.blocks[b_loop].first, 1u);
  EXPECT_EQ(cfg.blocks[b_loop].last, 3u);
  // The loop block is its own successor and predecessor.
  EXPECT_TRUE(has_succ_at(cfg, b_loop, 1));
  EXPECT_TRUE(has_succ_at(cfg, b_loop, 4));
  const auto& preds = cfg.blocks[b_loop].preds;
  EXPECT_NE(std::find(preds.begin(), preds.end(), b_loop), preds.end());
  // No symbols: the first block is the root.
  ASSERT_EQ(cfg.roots.size(), 1u);
  EXPECT_EQ(cfg.roots[0], cfg.block_at(0));
}

TEST(CfgTest, IndirectJumpWithUnknownTargetsAcceptsAny) {
  Assembler as(0);
  as.global("main");
  as.movi(Reg::rax, 3);  // 0 (also marks 3 as a landing site)
  as.jmp_reg(Reg::rax);  // 1
  as.pad_ud(1);          // 2
  as.hlt();              // 3
  const Program p = as.finish();
  const ControlFlowGraph cfg = build_cfg(p);
  const std::uint32_t b = cfg.block_at(1);
  EXPECT_TRUE(cfg.blocks[b].accept_any_succ);
  EXPECT_TRUE(cfg.blocks[b].succs.empty());
}

TEST(CfgTest, IndirectJumpWithResolvedTargets) {
  Assembler as(0);
  as.global("main");
  as.movi(Reg::rax, 3);  // 0
  as.jmp_reg(Reg::rax);  // 1
  as.pad_ud(1);          // 2
  as.hlt();              // 3
  const Program p = as.finish();
  CfgOptions opt;
  opt.indirect_targets.emplace(1, std::vector<Addr>{3});
  const ControlFlowGraph cfg = build_cfg(p, opt);
  const std::uint32_t b = cfg.block_at(1);
  EXPECT_FALSE(cfg.blocks[b].accept_any_succ);
  ASSERT_EQ(cfg.blocks[b].succs.size(), 1u);
  EXPECT_TRUE(has_succ_at(cfg, b, 3));
}

TEST(CfgTest, BranchTargetAtJccSuppressesFusionAndSplitsBlocks) {
  // A conditional branch that is itself a branch target is a landing
  // site between it and the Cmp before it, so the pair must land in
  // separate blocks (the threaded engine keeps the Jcc's own token there).
  Assembler as(0);
  const auto jcc = as.make_label();
  const auto exit = as.make_label();
  as.global("main");
  as.jmp(jcc);           // 0 -> 2
  as.cmpi(Reg::rax, 3);  // 1 (dead)
  as.bind(jcc);
  as.je(exit);  // 2
  as.hlt();     // 3
  as.bind(exit);
  as.hlt();  // 4
  const Program p = as.finish();
  EXPECT_TRUE(p.landing_sites()[2]);  // landing site between cmp and jcc
  const ControlFlowGraph cfg = build_cfg(p);
  EXPECT_NE(cfg.block_at(1), cfg.block_at(2));
  const std::uint32_t b_jcc = cfg.block_at(2);
  EXPECT_EQ(cfg.blocks[b_jcc].first, 2u);
  EXPECT_EQ(cfg.blocks[b_jcc].last, 2u);
  EXPECT_TRUE(has_succ_at(cfg, b_jcc, 4));
  EXPECT_TRUE(has_succ_at(cfg, b_jcc, 3));
}

TEST(CfgTest, FusedPairStaysInsideOneBlock) {
  Assembler as(0);
  const auto exit = as.make_label();
  as.global("main");
  as.movi(Reg::rax, 50);  // 0
  as.cmpi(Reg::rax, 7);   // 1
  as.je(exit);            // 2 (fuses with the cmp)
  as.hlt();               // 3
  as.bind(exit);
  as.hlt();  // 4
  const Program p = as.finish();
  EXPECT_FALSE(p.landing_sites()[2]);  // nothing lands between the pair
  const ControlFlowGraph cfg = build_cfg(p);
  EXPECT_EQ(cfg.block_at(1), cfg.block_at(2));
}

TEST(CfgTest, IllegalDirectTargetFlagged) {
  Assembler as(0);
  as.emit_raw({Opcode::Jmp, Reg::rax, Reg::rax, 999, 0});
  const Program p = as.finish();
  const ControlFlowGraph cfg = build_cfg(p);
  ASSERT_EQ(cfg.blocks.size(), 1u);
  EXPECT_TRUE(cfg.blocks[0].has_illegal_target);
  EXPECT_TRUE(cfg.blocks[0].succs.empty());
}

TEST(CfgTest, FallthroughIntoPaddingFlagged) {
  Assembler as(0);
  as.movi(Reg::rax, 50);  // 0, falls into the Ud below
  as.pad_ud(1);           // 1
  const Program p = as.finish();
  const ControlFlowGraph cfg = build_cfg(p);
  ASSERT_EQ(cfg.blocks.size(), 1u);
  EXPECT_TRUE(cfg.blocks[0].falls_into_padding);
}

TEST(CfgTest, ProgramSignatureTracksContent) {
  const auto make = [](std::int64_t imm) {
    Assembler as(0);
    as.global("main");
    as.movi(Reg::rax, imm);
    as.hlt();
    return as.finish();
  };
  const Program a = make(42), b = make(42), c = make(43);
  EXPECT_EQ(program_signature(a), program_signature(b));
  EXPECT_NE(program_signature(a), program_signature(c));
}

TEST(CfgTest, BlockSignaturesDifferWithContent) {
  Assembler as(0);
  as.global("f");
  as.movi(Reg::rax, 50);  // block 0
  as.hlt();
  as.pad_ud(1);
  as.global("g");
  as.movi(Reg::rax, 51);  // block 1
  as.hlt();
  const Program p = as.finish();
  const ControlFlowGraph cfg = build_cfg(p);
  ASSERT_EQ(cfg.blocks.size(), 2u);
  EXPECT_NE(cfg.blocks[0].signature, cfg.blocks[1].signature);
}

TEST(CfgTest, ClassifyBranchTarget) {
  Assembler as(0);
  as.hlt();      // 0
  as.pad_ud(1);  // 1
  const Program p = as.finish();
  EXPECT_EQ(classify_branch_target(p, 0), TargetStatus::Ok);
  EXPECT_EQ(classify_branch_target(p, 1), TargetStatus::Padding);
  EXPECT_EQ(classify_branch_target(p, 2), TargetStatus::OutOfRange);
}

}  // namespace
}  // namespace xentry::analysis
