#include "analysis/bitlive.hpp"

#include <gtest/gtest.h>

#include "analysis/artifacts.hpp"
#include "sim/assembler.hpp"

namespace xentry::analysis {
namespace {

using sim::Addr;
using sim::Assembler;
using sim::Program;
using sim::Reg;

constexpr std::uint64_t kAll = ~0ull;

// All programs assemble at base 1000 (see dataflow_test.cpp: small
// immediates must never alias code addresses).
constexpr Addr kBase = 1000;

VulnerabilityMap map_of(const Program& p) {
  const AnalysisArtifacts art = analyze_program(p);
  return art.vuln;
}

std::uint64_t live_at(const VulnerabilityMap& m, Addr a, Reg r) {
  return m.live_mask(a, static_cast<std::uint8_t>(r));
}

TEST(BitLivenessTest, ShiftByImmediateKillsLowBits) {
  Assembler as(kBase);
  as.global("main");
  as.shri(Reg::rax, 8);        // rax >>= 8: low 8 input bits fall away
  as.store(Reg::rbx, Reg::rax);  // memory write: rax fully live here
  as.hlt();
  const VulnerabilityMap m = map_of(as.finish());
  // Live-in at the shift: only the bits that survive into the store.
  EXPECT_EQ(live_at(m, kBase + 0, Reg::rax), kAll << 8);
  EXPECT_EQ(live_at(m, kBase + 1, Reg::rax), kAll);
}

TEST(BitLivenessTest, ShiftByRegisterIsConservativeAndNeedsCount) {
  Assembler as(kBase);
  as.global("main");
  as.shr(Reg::rax, Reg::rcx);  // dynamic amount: any input bit can matter
  as.store(Reg::rbx, Reg::rax);
  as.hlt();
  const VulnerabilityMap m = map_of(as.finish());
  EXPECT_EQ(live_at(m, kBase + 0, Reg::rax), kAll);
  // The shift amount is masked to 6 bits; the rest of rcx stays dead.
  EXPECT_EQ(live_at(m, kBase + 0, Reg::rcx), 0x3full);
}

TEST(BitLivenessTest, AndOrImmediatePropagateBitMasks) {
  Assembler as(kBase);
  as.global("main");
  as.andi(Reg::rax, 0xff);  // clears bits 8..63
  as.ori(Reg::rax, 0x0f);   // forces bits 0..3 to 1
  as.store(Reg::rbx, Reg::rax);
  as.hlt();
  const VulnerabilityMap m = map_of(as.finish());
  // Into the or: everything except the forced-to-1 bits.
  EXPECT_EQ(live_at(m, kBase + 1, Reg::rax), kAll & ~0x0full);
  // Into the and: additionally only the bits the and keeps.
  EXPECT_EQ(live_at(m, kBase + 0, Reg::rax), 0xf0ull);
}

TEST(BitLivenessTest, TestImmediateLivesOnlyTestedBit) {
  Assembler as(kBase);
  as.global("main");
  const auto odd = as.make_label();
  as.testi(Reg::rax, 1);
  as.jne(odd);
  as.hlt();
  as.bind(odd);
  as.hlt();
  const VulnerabilityMap m = map_of(as.finish());
  // The branch observes only ZF of (rax & 1): a single live bit.
  EXPECT_EQ(live_at(m, kBase + 0, Reg::rax), 0x1ull);
}

TEST(BitLivenessTest, MovCopiesLivenessAndKillsDestination) {
  Assembler as(kBase);
  as.global("main");
  as.mov(Reg::rbx, Reg::rax);
  as.store(Reg::rcx, Reg::rbx);
  as.hlt();
  const VulnerabilityMap m = map_of(as.finish());
  EXPECT_EQ(live_at(m, kBase + 0, Reg::rax), kAll);  // copied liveness
  EXPECT_EQ(live_at(m, kBase + 0, Reg::rbx), 0ull);  // overwritten
}

TEST(BitLivenessTest, CompareForBranchMakesOperandFullyLive) {
  Assembler as(kBase);
  as.global("main");
  const auto eq = as.make_label();
  as.cmpi(Reg::rax, 5);
  as.je(eq);
  as.hlt();
  as.bind(eq);
  as.hlt();
  const VulnerabilityMap m = map_of(as.finish());
  // ZF of a compare depends on every bit of the operand.
  EXPECT_EQ(live_at(m, kBase + 0, Reg::rax), kAll);
}

TEST(BitLivenessTest, FusedAndUnfusedComparesAgree) {
  // The threaded engine fuses adjacent cmp+jcc pairs; a nop in between
  // prevents fusion.  Fusion is an execution concern only — the map must
  // be identical at the compare either way.
  Assembler fused(kBase);
  fused.global("main");
  const auto f1 = fused.make_label();
  fused.cmpi(Reg::rdx, 9);
  fused.je(f1);
  fused.hlt();
  fused.bind(f1);
  fused.hlt();
  const Program pf = fused.finish();
  ASSERT_TRUE(sim::is_cond_branch(pf.at(kBase + 1).op));

  Assembler plain(kBase);
  plain.global("main");
  const auto p1 = plain.make_label();
  plain.cmpi(Reg::rdx, 9);
  plain.nop();
  plain.je(p1);
  plain.hlt();
  plain.bind(p1);
  plain.hlt();
  const Program pp = plain.finish();
  ASSERT_FALSE(sim::is_cond_branch(pp.at(kBase + 1).op));

  const VulnerabilityMap mf = map_of(pf);
  const VulnerabilityMap mp = map_of(pp);
  for (int r = 0; r < sim::kNumArchRegs; ++r) {
    EXPECT_EQ(mf.live[0][static_cast<std::size_t>(r)],
              mp.live[0][static_cast<std::size_t>(r)])
        << "reg " << r;
  }
}

TEST(BitLivenessTest, XorSelfKillsWithoutGen) {
  Assembler as(kBase);
  as.global("main");
  as.xor_(Reg::rax, Reg::rax);  // idiom: rax = 0 regardless of input
  as.store(Reg::rbx, Reg::rax);
  as.hlt();
  const VulnerabilityMap m = map_of(as.finish());
  EXPECT_EQ(live_at(m, kBase + 0, Reg::rax), 0ull);
}

TEST(BitLivenessTest, LoopBackEdgeReachesFixpoint) {
  Assembler as(kBase);
  as.global("main");
  const auto loop = as.make_label();
  as.movi(Reg::rcx, 8);
  as.bind(loop);
  as.dec(Reg::rcx);
  as.jne(loop);
  as.hlt();
  const VulnerabilityMap m = map_of(as.finish());
  // Inside the loop the counter feeds ZF (all bits); before the movi that
  // initializes it, it is dead — the kill survives the back-edge join.
  EXPECT_EQ(live_at(m, kBase + 1, Reg::rcx), kAll);
  EXPECT_EQ(live_at(m, kBase + 0, Reg::rcx), 0ull);
}

TEST(BitLivenessTest, GateConsumesDerivedAssertionRegisters) {
  Assembler as(kBase);
  as.global("main");
  as.movi(Reg::rax, 5);  // non-top interval -> derived assertion at hlt
  as.hlt();
  const Program p = as.finish();
  const AnalysisArtifacts art = analyze_program(p);
  ASSERT_FALSE(art.derived.empty());
  const VulnerabilityMap& m = art.vuln;
  // The asserted register is consumed at the gate; an unconstrained one
  // is not.
  EXPECT_EQ(live_at(m, kBase + 1, Reg::rax), kAll);
  EXPECT_EQ(live_at(m, kBase + 1, Reg::rbx), 0ull);
  // The initializing write kills it upstream of the gate.
  EXPECT_EQ(live_at(m, kBase + 0, Reg::rax), 0ull);
}

TEST(BitLivenessTest, RipAlwaysFullyLiveAndOffMapIsLive) {
  Assembler as(kBase);
  as.global("main");
  as.nop();
  as.hlt();
  const VulnerabilityMap m = map_of(as.finish());
  for (Addr a = kBase; a < kBase + 2; ++a) {
    EXPECT_EQ(live_at(m, a, Reg::rip), kAll) << "addr " << a;
  }
  // Addresses outside the image are never provably masked.
  EXPECT_EQ(live_at(m, kBase + 999, Reg::rax), kAll);
  EXPECT_EQ(live_at(m, 0, Reg::rax), kAll);
}

}  // namespace
}  // namespace xentry::analysis
