// Probe-decided faulted runs: on the jit engine, InjectionExperiment
// decides a flip the golden run never reads from the golden probe instead
// of executing it (run_one).  These tests hold the decision to the
// executed run: the same injection on the reference engine, which always
// executes, must give the same Result field by field, the same assertion
// fires, the same xentry.* metrics and the same flight-recorder ring.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "differential_rig.hpp"
#include "analysis/artifacts.hpp"
#include "fault/campaign.hpp"
#include "fault/experiment.hpp"
#include "fault/training.hpp"
#include "hv/exit_reason.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/assembler.hpp"

namespace xentry::fault {
namespace {

using FlipFate = InjectionExperiment::FlipFate;

struct Tally {
  int pairs = 0;
  int decided = 0;
  int decided_untouched = 0;
  int decided_at_gate = 0;  ///< at_step == probe steps: only hlt pending
};

/// Runs `pairs` (activation, injection) pairs through a jit rig and a
/// reference rig in lock-step and compares everything each run leaves
/// behind.  The injection mix: uniform and activated-biased draws, plus
/// flips right before the hlt gate, rip flips, and flips past the end.
void run_differential(const XentryConfig& cfg, const ml::RuleSet* model,
                      const analysis::AnalysisArtifacts* artifacts, int pairs,
                      std::uint64_t seed, Tally& tally) {
  Side jit(sim::EngineKind::Jit, cfg, model, artifacts);
  Side ref(sim::EngineKind::Reference, cfg, model, artifacts);
  const auto& reasons = hv::all_exit_reasons();
  const sim::Program& program = jit.golden.microvisor().program;
  std::mt19937_64 rng(seed);
  for (int i = 0; i < pairs && !::testing::Test::HasFailure(); ++i) {
    const hv::Activation act = jit.golden.make_activation(
        reasons[rng() % reasons.size()], seed * 1000003 + i);
    jit.exp.probe_golden_advance(act, jit.probe);
    ref.exp.probe_golden_advance(act, ref.probe);
    ASSERT_EQ(jit.probe.trace, ref.probe.trace);
    ASSERT_EQ(jit.probe.final_regs, ref.probe.final_regs);
    const std::uint64_t steps = jit.probe.steps;
    if (steps == 0) {
      jit.golden.restore(jit.probe.pre);
      ref.golden.restore(ref.probe.pre);
      continue;
    }
    hv::Injection inj;
    switch (i % 8) {
      case 0:  // right before the hlt gate: only the pending hlt is left
        inj = InjectionExperiment::draw_injection(rng, steps);
        inj.at_step = steps;
        if (inj.reg == sim::Reg::rip) inj.reg = sim::Reg::rax;
        break;
      case 1:  // rip flips always execute
        inj = InjectionExperiment::draw_injection(rng, steps);
        inj.reg = sim::Reg::rip;
        break;
      case 2:  // past the end: never injected
        inj = InjectionExperiment::draw_injection(rng, steps);
        inj.at_step = steps + 1;
        break;
      case 3:
      case 5:
        inj = InjectionExperiment::draw_activated_injection(
            rng, jit.probe.trace, program);
        break;
      default:
        inj = InjectionExperiment::draw_injection(rng, steps);
        break;
    }
    SCOPED_TRACE(::testing::Message()
                 << "pair " << i << " exit " << act.reason.code() << " seed "
                 << act.seed << " at_step " << inj.at_step << "/" << steps
                 << " reg " << static_cast<int>(inj.reg) << " bit "
                 << inj.bit);
    const InjectionExperiment::Result got =
        jit.exp.run_one(act, inj, jit.probe);
    const InjectionExperiment::Result want =
        ref.exp.run_one(act, inj, ref.probe);
    ++tally.pairs;
    EXPECT_FALSE(want.probe_decided);
    // The rule decides every eligible flip the executed run did not
    // activate, and nothing else.
    const bool eligible = jit.probe.reached_vm_entry &&
                          inj.reg != sim::Reg::rip && inj.at_step <= steps;
    EXPECT_EQ(got.probe_decided, eligible && !want.record.activated);
    if (got.probe_decided) {
      ++tally.decided;
      const FlipFate fate = InjectionExperiment::flip_fate(
          program, jit.probe.trace, inj.at_step,
          jit.probe.final_regs[static_cast<std::size_t>(sim::Reg::rip)],
          inj.reg);
      if (fate == FlipFate::Untouched) ++tally.decided_untouched;
      if (inj.at_step == steps) ++tally.decided_at_gate;
    }
    expect_same_result(got, want);
    std::vector<obs::FlightFrame> ring_got, ring_want;
    jit.flight.dump_into(ring_got);
    ref.flight.dump_into(ring_want);
    EXPECT_EQ(ring_got, ring_want);
    expect_same_metrics(jit.metrics, ref.metrics);
    EXPECT_EQ(jit.xentry.assertions().total_fires(),
              ref.xentry.assertions().total_fires());
  }
  expect_same_fires(jit.xentry.assertions(), ref.xentry.assertions());
}

class ProbeDecidedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    artifacts_ = new analysis::AnalysisArtifacts(analysis::analyze_program(
        hv::build_microvisor(hv::MicrovisorOptions{}).program));
    CampaignConfig train;
    train.injections = 2500;
    train.shards = 1;
    train.seed = 5;
    train.collect_dataset = true;
    model_ = new ml::RuleSet(train_detector(run_campaign(train).dataset).rules);
  }
  static void TearDownTestSuite() {
    delete artifacts_;
    delete model_;
    artifacts_ = nullptr;
    model_ = nullptr;
  }

  static XentryConfig config(bool cfi_timing, bool model) {
    XentryConfig cfg;
    cfg.runtime_detection = true;
    cfg.transition_detection = model;
    cfg.control_flow_detection = cfi_timing;
    cfg.timing_detection = cfi_timing;
    cfg.obs.metrics = true;
    return cfg;
  }

  static analysis::AnalysisArtifacts* artifacts_;
  static ml::RuleSet* model_;
};

analysis::AnalysisArtifacts* ProbeDecidedTest::artifacts_ = nullptr;
ml::RuleSet* ProbeDecidedTest::model_ = nullptr;

TEST_F(ProbeDecidedTest, ProbeDecidedRunMatchesExecution) {
  // 3 configs x 2,000 pairs.  Runtime only arms no counters (the decided
  // run's features must be zero, not the golden counters); CFI + timing
  // read the final registers at the gate (derived range checks) and the
  // counters; the trained model judges the features.
  struct Case {
    XentryConfig cfg;
    const ml::RuleSet* model;
    const analysis::AnalysisArtifacts* artifacts;
  };
  const Case cases[] = {
      {config(false, false), nullptr, nullptr},
      {config(true, false), nullptr, artifacts_},
      {config(true, true), model_, artifacts_},
  };
  Tally total;
  std::uint64_t seed = 101;
  for (const Case& c : cases) {
    Tally t;
    run_differential(c.cfg, c.model, c.artifacts, 2000, seed++, t);
    ASSERT_FALSE(HasFailure());
    EXPECT_GT(t.decided, t.pairs / 10);
    total.pairs += t.pairs;
    total.decided += t.decided;
    total.decided_untouched += t.decided_untouched;
    total.decided_at_gate += t.decided_at_gate;
  }
  EXPECT_GE(total.pairs, 5000);
  EXPECT_GT(total.decided_untouched, 0);
  EXPECT_GT(total.decided_at_gate, 0);
}

TEST(FlipFateTest, PendingInstructionIsTheLastTouch) {
  // A clean run that stopped before `store` (say, at a budget): the
  // retired trace never touches rbx, the pending instruction reads it.
  sim::Assembler as(0x1000);
  as.movi(sim::Reg::rax, 1);             // 0x1000
  as.addi(sim::Reg::rax, 2);             // 0x1001
  as.store(sim::Reg::rcx, sim::Reg::rbx);  // 0x1002
  as.movi(sim::Reg::rdx, 3);             // 0x1003
  as.hlt();                              // 0x1004
  const sim::Program program = as.finish();
  const std::vector<sim::Addr> trace = {0x1000, 0x1001};
  EXPECT_EQ(InjectionExperiment::flip_fate(program, trace, 0, 0x1002,
                                           sim::Reg::rbx),
            FlipFate::Read);
  EXPECT_EQ(InjectionExperiment::flip_fate(program, trace, 2, 0x1002,
                                           sim::Reg::rcx),
            FlipFate::Read);
  // Pending hlt touches nothing: the flip survives the run.
  EXPECT_EQ(InjectionExperiment::flip_fate(program, trace, 0, 0x1004,
                                           sim::Reg::rbx),
            FlipFate::Untouched);
  // A write-only touch is an overwrite, and the first touch decides.
  EXPECT_EQ(InjectionExperiment::flip_fate(program, {0x1002, 0x1003}, 1,
                                           0x1004, sim::Reg::rdx),
            FlipFate::Overwritten);
  EXPECT_EQ(InjectionExperiment::flip_fate(program, trace, 0, 0x1004,
                                           sim::Reg::rax),
            FlipFate::Overwritten);
  // An instruction that reads and writes the register reads it first.
  EXPECT_EQ(InjectionExperiment::flip_fate(program, trace, 1, 0x1004,
                                           sim::Reg::rax),
            FlipFate::Read);
  EXPECT_EQ(InjectionExperiment::flip_fate(program, trace, 1, 0x1004,
                                           sim::Reg::rflags),
            FlipFate::Overwritten);
}

}  // namespace
}  // namespace xentry::fault
