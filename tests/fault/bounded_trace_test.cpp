// Bounded faulted-run traces: InjectionExperiment records an executed
// faulted run's trace only up to InjectionExperiment::trace_limit, and
// re-executes the run with a whole trace when it outran the bound and
// Xentry::judge replays its trace (CFI).  These tests hold the bounded jit
// rig to an unbounded oracle: a reference-engine rig (which executes every
// faulted run) whose probe claims the watchdog budget as its length, so
// its bound lies past any run.  For an executed run the probe's length
// reaches nothing but the bound.  Every pair must give the same Result,
// flight ring, xentry.* metrics and assertion fires, and every executed
// faulted run exactly one VM-exit span.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "differential_rig.hpp"
#include "analysis/artifacts.hpp"
#include "fault/experiment.hpp"
#include "hv/exit_reason.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"

namespace xentry::fault {
namespace {

struct BoundedTally {
  int executed = 0;
  int truncated = 0;  ///< executed runs that outran their trace bound
  int reruns = 0;
  int rerun_vm_entry = 0;
  int hangs = 0;
  int hang_reruns = 0;
};

void run_bounded_differential(const XentryConfig& cfg,
                              const analysis::AnalysisArtifacts* artifacts,
                              int pairs, std::uint64_t seed,
                              BoundedTally& tally) {
  Side bounded(sim::EngineKind::Jit, cfg, nullptr, artifacts);
  Side whole(sim::EngineKind::Reference, cfg, nullptr, artifacts);
  obs::TraceRecorder spans;
  bounded.hooks.trace = &spans;
  const std::uint64_t budget = hv::RunOptions{}.max_steps;
  const auto& reasons = hv::all_exit_reasons();
  const sim::Program& program = bounded.golden.microvisor().program;
  std::mt19937_64 rng(seed);
  for (int i = 0; i < pairs && !::testing::Test::HasFailure(); ++i) {
    const hv::Activation act = bounded.golden.make_activation(
        reasons[rng() % reasons.size()], seed * 1000003 + i);
    bounded.exp.probe_golden_advance(act, bounded.probe);
    whole.exp.probe_golden_advance(act, whole.probe);
    const std::uint64_t steps = bounded.probe.steps;
    if (steps == 0) {
      bounded.golden.restore(bounded.probe.pre);
      whole.golden.restore(whole.probe.pre);
      continue;
    }
    // The campaign's draw mix: half biased toward activated flips.
    const hv::Injection inj =
        i % 2 == 0 ? InjectionExperiment::draw_activated_injection(
                         rng, bounded.probe.trace, program)
                   : InjectionExperiment::draw_injection(rng, steps);
    whole.probe.steps = budget;
    SCOPED_TRACE(::testing::Message()
                 << "pair " << i << " exit " << act.reason.code() << " seed "
                 << act.seed << " at_step " << inj.at_step << "/" << steps
                 << " reg " << static_cast<int>(inj.reg) << " bit "
                 << inj.bit);
    const std::size_t spans_before = spans.events().size();
    const InjectionExperiment::Result got =
        bounded.exp.run_one(act, inj, bounded.probe);
    const InjectionExperiment::Result want =
        whole.exp.run_one(act, inj, whole.probe);
    EXPECT_FALSE(want.trace_rerun);
    expect_same_result(got, want);
    std::vector<obs::FlightFrame> ring_got, ring_want;
    bounded.flight.dump_into(ring_got);
    whole.flight.dump_into(ring_want);
    EXPECT_EQ(ring_got, ring_want);
    expect_same_metrics(bounded.metrics, whole.metrics);
    if (got.probe_decided) {
      EXPECT_FALSE(got.trace_rerun);
      continue;
    }
    EXPECT_EQ(spans.events().size(), spans_before + 1);
    ++tally.executed;
    const std::uint64_t ran = bounded.faulty.cpu().steps_executed();
    const bool truncated =
        ran > InjectionExperiment::trace_limit(inj, bounded.probe);
    const bool hang = got.record.trap == sim::TrapKind::Watchdog;
    tally.truncated += truncated ? 1 : 0;
    tally.hangs += hang ? 1 : 0;
    // Re-executed exactly when the run outran the bound and the judge
    // reads its trace; the newest flight frame is this run's end.
    const obs::FlightFrame& frame = ring_got.back();
    hv::RunResult end;
    end.reached_vm_entry = frame.reached_vm_entry;
    end.trap = sim::Trap{static_cast<sim::TrapKind>(frame.trap_kind),
                         frame.trap_addr, frame.trap_aux};
    EXPECT_EQ(got.trace_rerun, truncated && bounded.xentry.reads_trace(end));
    if (got.trace_rerun) {
      ++tally.reruns;
      tally.rerun_vm_entry += end.reached_vm_entry ? 1 : 0;
      tally.hang_reruns += hang ? 1 : 0;
    }
    // A run past the bound is longer than the golden run.
    if (truncated) {
      EXPECT_TRUE(got.record.trace_diverged);
    }
  }
  expect_same_fires(bounded.xentry.assertions(), whole.xentry.assertions());
}

class BoundedTraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    artifacts_ = new analysis::AnalysisArtifacts(analysis::analyze_program(
        hv::build_microvisor(hv::MicrovisorOptions{}).program));
  }
  static void TearDownTestSuite() {
    delete artifacts_;
    artifacts_ = nullptr;
  }

  static XentryConfig config(bool cfi, bool watchdog_is_fatal) {
    XentryConfig cfg;
    cfg.runtime_detection = true;
    cfg.transition_detection = false;
    cfg.control_flow_detection = cfi;
    cfg.timing_detection = true;
    cfg.exception_policy.watchdog_is_fatal = watchdog_is_fatal;
    cfg.obs.metrics = true;
    return cfg;
  }

  static analysis::AnalysisArtifacts* artifacts_;
};

analysis::AnalysisArtifacts* BoundedTraceTest::artifacts_ = nullptr;

constexpr int kPairs = 20000;

TEST_F(BoundedTraceTest, CfiRunPastTheBoundToVmEntryIsReExecuted) {
  // (a) and (b): CFI on, the watchdog fatal.  A run that outran the bound
  // and reached VM entry is re-executed; a hang is caught by runtime
  // detection, so its truncated trace stands and still reads as diverged.
  BoundedTally t;
  run_bounded_differential(config(true, true), artifacts_, kPairs, 31, t);
  ASSERT_FALSE(HasFailure());
  EXPECT_GT(t.rerun_vm_entry, 0);
  EXPECT_GT(t.hangs, 0);
  EXPECT_EQ(t.hang_reruns, 0);
  EXPECT_GT(t.truncated, t.reruns);
}

TEST_F(BoundedTraceTest, WithoutCfiNothingIsReExecuted) {
  // (c): with CFI off the judge never reads a faulted trace.
  BoundedTally t;
  run_bounded_differential(config(false, true), artifacts_, kPairs, 31, t);
  ASSERT_FALSE(HasFailure());
  EXPECT_GT(t.truncated, 0);
  EXPECT_EQ(t.reruns, 0);
}

TEST_F(BoundedTraceTest, CfiHangThatRuntimeDetectionPassesIsReExecuted) {
  // (d): a watchdog the parser lets pass goes to CFI, which replays the
  // whole 100,000-step trace.
  BoundedTally t;
  run_bounded_differential(config(true, false), artifacts_, kPairs, 31, t);
  ASSERT_FALSE(HasFailure());
  EXPECT_GT(t.hangs, 0);
  EXPECT_EQ(t.hang_reruns, t.hangs);
  EXPECT_GT(t.rerun_vm_entry, 0);
}

}  // namespace
}  // namespace xentry::fault
