// Known answers of `micro_campaign` fixed points (the same configurations,
// built here without the bench binary): `2000 1 7` uniform and sampled,
// `2000 4 7` uniform, and CI's checkpointed streaming run `5000 2 23
// --records-out ... --checkpoint ... --checkpoint-every 200`.
//
// Records: engine-equivalence and repeat-run tests only prove that two
// runs agree with each other; a change that alters every engine's records
// the same way passes them.  These pins fix the absolute record digest
// for every engine.  Re-pinning a value is a change to the records: say in
// CHANGES.md what changed in them and why.
//
// Cost: the machine copy counters bound the memory words snapshot and
// restore move per injection, a deterministic stand-in for their time.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include "analysis/artifacts.hpp"
#include "fault/campaign.hpp"
#include "fault/record_io.hpp"
#include "hv/microvisor.hpp"
#include "obs/metrics.hpp"

namespace xentry::fault {
namespace {

/// The configuration `micro_campaign 2000 <shards> 7 [--engine E]
/// [--sampling]` runs: dataset collection and transition detection on,
/// analysis artifacts attached when the sampler needs them.
CampaignConfig micro_campaign_config(sim::EngineKind engine, bool sampling,
                                     int shards = 1) {
  CampaignConfig cfg;
  cfg.injections = 2000;
  cfg.shards = shards;
  cfg.seed = 7;
  cfg.collect_dataset = true;
  cfg.xentry.transition_detection = true;
  cfg.xentry.engine = engine;
  cfg.sampling.importance = sampling;
  if (sampling) {
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
        Pin{sim::EngineKind::Reference, false, 0xea90685bedc71d1bull},
        Pin{sim::EngineKind::Jit, false, 0xea90685bedc71d1bull},
        Pin{sim::EngineKind::Reference, true, 0x1a2dc40e709dc7b3ull},
        Pin{sim::EngineKind::Jit, true, 0x1a2dc40e709dc7b3ull}),
    [](const ::testing::TestParamInfo<Pin>& info) {
      return std::string(sim::engine_name(info.param.engine)) +
             (info.param.sampling ? "_sampled" : "_uniform");
    });

/// FNV-1a over a byte string, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Hash of every record's telemetry, the fields records_digest leaves out:
/// the flight-recorder frames (field by field, no padding bytes) and the
/// forensics JSON, with a separator per record.
std::uint64_t telemetry_digest(const std::vector<InjectionRecord>& records) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::ostringstream os;
  for (const InjectionRecord& r : records) {
    os.str("");
    for (const obs::FlightFrame& f : r.blackbox) {
      os << f.seq << ',' << f.exit_code << ',' << f.steps << ','
         << f.inst_retired << ',' << f.branches << ',' << f.loads << ','
         << f.stores << ',' << int{f.source} << ',' << f.reached_vm_entry
         << ',' << int{f.trap_kind} << ',' << f.trap_aux << ','
         << f.trap_addr << ';';
    }
    os << '|';
    if (r.forensics.has_value()) r.forensics->write_json(os);
    os << '\n';
    h = fnv1a(h, os.str());
  }
  return h;
}

/// Canonical text of the metrics that do not measure cost: every counter,
/// gauge and histogram except wall-clock ones (`*_ns`, `*_us`, `*_sec`),
/// the snapshot/restore copy counters (`machine.*_words`), which measure
/// work that a faster campaign is free to skip, and
/// `campaign.probe_decided`, which counts the faulted runs skipped.
std::string deterministic_metrics(const obs::MetricsRegistry& m) {
  const auto is_cost = [](std::string_view name) {
    const auto ends = [&](std::string_view s) {
      return name.size() >= s.size() &&
             name.substr(name.size() - s.size()) == s;
    };
    return ends("_ns") || ends("_us") || ends("_sec") ||
           (name.substr(0, 8) == "machine." && ends("_words")) ||
           name == "campaign.probe_decided";
  };
  std::ostringstream os;
  for (const auto& [name, c] : m.counters()) {
    if (!is_cost(name)) os << name << '=' << c.value() << '\n';
  }
  for (const auto& [name, g] : m.gauges()) {
    if (!is_cost(name)) os << name << '=' << g.value() << '\n';
  }
  for (const auto& [name, hist] : m.histograms()) {
    if (is_cost(name)) continue;
    os << name << '=' << hist.count() << '/' << hist.sum() << '/'
       << hist.min() << '/' << hist.max() << ':';
    for (int i = 0; i < obs::Log2Histogram::kNumBuckets; ++i) {
      os << hist.bucket(i) << ',';
    }
    os << '\n';
  }
  return os.str();
}

TEST(KnownAnswerTelemetryTest, FlightFramesForensicsAndMetricsArePinned) {
  // `micro_campaign 2000 1 7` with every collection layer on
  // (obs::Options::all()) plus forensics.  records_digest covers neither
  // the blackbox nor the forensics evidence, and the cost-free metric
  // values are a second view of the same runs.
  CampaignConfig cfg = micro_campaign_config(sim::EngineKind::Jit, false);
  cfg.obs = obs::Options::all();
  cfg.obs.forensics = true;
  const CampaignResult res = run_campaign(cfg);
  ASSERT_EQ(res.records.size(), 2000u);
  EXPECT_EQ(records_digest(res.records), 0xea90685bedc71d1bull);
  EXPECT_EQ(telemetry_digest(res.records), 0xd30d0c0c2fa73dbaull)
      << std::hex << "got " << telemetry_digest(res.records);
  const std::string metrics = deterministic_metrics(res.metrics);
  EXPECT_EQ(fnv1a(0xcbf29ce484222325ull, metrics), 0x5f030a52247a6898ull)
      << std::hex << "got " << fnv1a(0xcbf29ce484222325ull, metrics)
      << std::dec << " over\n"
      << metrics;
}

TEST(KnownAnswerShardsTest, FourShardUniformDigestIsPinned) {
  // `micro_campaign 2000 4 7`: shards split the quota and seed their own
  // streams, so this digest differs from the one-shard pin.
  for (const sim::EngineKind engine :
       {sim::EngineKind::Reference, sim::EngineKind::Jit}) {
    const CampaignResult res =
        run_campaign(micro_campaign_config(engine, false, 4));
    ASSERT_EQ(res.records.size(), 2000u);
    EXPECT_EQ(records_digest(res.records), 0x93cbe61a5fef0188ull)
        << sim::engine_name(engine) << std::hex << ": got "
        << records_digest(res.records);
  }
}

TEST(KnownAnswerResumeTest, CheckpointedStreamDigestIsPinned) {
  // CI's kill/resume reference run, uninterrupted: `micro_campaign 5000 2
  // 23 --records-out B --checkpoint B.ckpt --checkpoint-every 200`.  A
  // checkpointed run trades away dataset collection and with it
  // transition detection; metrics stay on for the snapshot sidecar.
  const std::string dir = ::testing::TempDir() + "known_answer_resume";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CampaignConfig cfg;
  cfg.injections = 5000;
  cfg.shards = 2;
  cfg.seed = 23;
  cfg.collect_dataset = false;
  cfg.xentry.transition_detection = false;
  cfg.obs.metrics = true;
  cfg.streaming.records_path = dir + "/ref";
  cfg.streaming.checkpoint_path = dir + "/ref.ckpt";
  cfg.streaming.checkpoint_every = 200;
  const CampaignResult res = run_campaign(cfg);
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(res.resumed);
  ASSERT_EQ(res.records.size(), 5000u);
  EXPECT_EQ(records_digest(res.records), 0xdfac96cc452761bbull)
      << std::hex << "got " << records_digest(res.records);
}

TEST(CopyBudgetTest, WordsCopiedPerInjectionStayUnderBudget) {
  // Per injection the golden machine captures its pre-run state and the
  // faulty machine is realigned from it; with block-granular generations
  // both copy only the 64-word blocks the activations since the last sync
  // wrote (about 1,400 words here, against a ~5,000-word machine image).
  CampaignConfig cfg = micro_campaign_config(sim::EngineKind::Jit, false);
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
