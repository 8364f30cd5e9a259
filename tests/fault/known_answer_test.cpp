// Known answers of the `micro_campaign 2000 1 7` fixed point (the same
// configuration, built here without the bench binary).
//
// Records: engine-equivalence and repeat-run tests only prove that two
// runs agree with each other; a change that alters every engine's records
// the same way passes them.  These pins fix the absolute record digest
// for every engine, uniform and importance-sampled.  Re-pinning a value is
// a change to the records: say in CHANGES.md what changed in them and why.
//
// Cost: the machine copy counters bound the memory words snapshot and
// restore move per injection, a deterministic stand-in for their time.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "analysis/artifacts.hpp"
#include "fault/campaign.hpp"
#include "fault/record_io.hpp"
#include "hv/microvisor.hpp"
#include "obs/metrics.hpp"

namespace xentry::fault {
namespace {

/// The configuration `micro_campaign 2000 1 7 [--engine E] [--sampling]`
/// runs: dataset collection and transition detection on, analysis
/// artifacts attached whenever the engine or the sampler needs them.
CampaignConfig micro_campaign_config(sim::EngineKind engine, bool sampling) {
  CampaignConfig cfg;
  cfg.injections = 2000;
  cfg.shards = 1;
  cfg.seed = 7;
  cfg.collect_dataset = true;
  cfg.xentry.transition_detection = true;
  cfg.xentry.engine = engine;
  cfg.sampling.importance = sampling;
  if (engine == sim::EngineKind::Jit || sampling) {
    cfg.analysis = std::make_shared<analysis::AnalysisArtifacts>(
        analysis::analyze_program(
            hv::build_microvisor(cfg.machine).program));
  }
  return cfg;
}

struct Pin {
  sim::EngineKind engine;
  bool sampling;
  std::uint64_t digest;
};

// Pin has padding; without this gtest would print its uninitialised bytes
// into the discovered test names, which would then differ between builds.
void PrintTo(const Pin& pin, std::ostream* os) {
  *os << sim::engine_name(pin.engine)
      << (pin.sampling ? " sampled " : " uniform ") << std::hex << pin.digest
      << std::dec;
}

class KnownAnswerTest : public ::testing::TestWithParam<Pin> {};

TEST_P(KnownAnswerTest, RecordsDigestIsPinned) {
  const Pin& pin = GetParam();
  const CampaignResult res =
      run_campaign(micro_campaign_config(pin.engine, pin.sampling));
  ASSERT_EQ(res.records.size(), 2000u);
  EXPECT_EQ(records_digest(res.records), pin.digest)
      << std::hex << "got " << records_digest(res.records) << ", pinned "
      << pin.digest;
}

// Uniform digests are engine-independent; so are sampled ones.  The two
// families differ because sampling changes which flips are drawn.
INSTANTIATE_TEST_SUITE_P(
    MicroCampaign2000x1Seed7, KnownAnswerTest,
    ::testing::Values(
        Pin{sim::EngineKind::Fast, false, 0xea90685bedc71d1bull},
        Pin{sim::EngineKind::Reference, false, 0xea90685bedc71d1bull},
        Pin{sim::EngineKind::Jit, false, 0xea90685bedc71d1bull},
        Pin{sim::EngineKind::Fast, true, 0x1a2dc40e709dc7b3ull},
        Pin{sim::EngineKind::Reference, true, 0x1a2dc40e709dc7b3ull},
        Pin{sim::EngineKind::Jit, true, 0x1a2dc40e709dc7b3ull}),
    [](const ::testing::TestParamInfo<Pin>& info) {
      return std::string(sim::engine_name(info.param.engine)) +
             (info.param.sampling ? "_sampled" : "_uniform");
    });

TEST(CopyBudgetTest, WordsCopiedPerInjectionStayUnderBudget) {
  // Per injection the golden machine captures its pre-run state and the
  // faulty machine is realigned from it; with block-granular generations
  // both copy only the 64-word blocks the activations since the last sync
  // wrote (about 1,400 words here, against a ~5,000-word machine image).
  CampaignConfig cfg = micro_campaign_config(sim::EngineKind::Fast, false);
  cfg.obs.metrics = true;
  const CampaignResult res = run_campaign(cfg);
  ASSERT_EQ(res.records.size(), 2000u);
  EXPECT_EQ(records_digest(res.records), 0xea90685bedc71d1bull);
  const obs::Counter* snap = res.metrics.find_counter("machine.snapshot_words");
  const obs::Counter* rest = res.metrics.find_counter("machine.restore_words");
  ASSERT_NE(snap, nullptr);
  ASSERT_NE(rest, nullptr);
  const double per_injection =
      static_cast<double>(snap->value() + rest->value()) /
      static_cast<double>(res.records.size());
  EXPECT_GT(per_injection, 0.0);
  EXPECT_LE(per_injection, 2500.0)
      << "snapshot " << snap->value() << " + restore " << rest->value()
      << " words over " << res.records.size() << " injections";
}

}  // namespace
}  // namespace xentry::fault
