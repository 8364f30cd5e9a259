// Kill/resume determinism: a campaign killed at (or between) checkpoint
// boundaries and resumed under the identical config must reproduce the
// uninterrupted run's record stream byte for byte — same records digest,
// same merged (timing-stripped) metrics.  `streaming.abort_after` is the
// in-process SIGKILL: the shard drops its buffered sink bytes and returns
// without a final flush or checkpoint, exactly what a killed process
// leaves behind.  The same contract covers the unit partition
// (CampaignConfig::fleet): campaigns that each run a subset of the work
// units, killed and resumed, leave the files of one unpartitioned run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/artifacts.hpp"
#include "fault/campaign.hpp"
#include "fault/checkpoint.hpp"
#include "fault/record_io.hpp"
#include "hv/microvisor.hpp"
#include "obs/snapshot.hpp"

namespace xentry::fault {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Decodes the persisted shard streams in shard order — the full-stream
/// view a resumed run cannot hold in memory.
std::vector<InjectionRecord> decode_stream(const std::string& base,
                                           obs::RecordFormat fmt, int shards) {
  std::vector<InjectionRecord> recs;
  for (int s = 0; s < shards; ++s) {
    const std::string path = obs::ShardedFileSink::shard_path(
        base, fmt, static_cast<std::size_t>(s));
    EXPECT_TRUE(decode_records(slurp(path), fmt, recs)) << path;
  }
  return recs;
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Replaces every occurrence of `from` in `text` with `to`.
std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

std::string stripped_metrics_json(const obs::MetricsRegistry& reg) {
  std::ostringstream os;
  obs::strip_timing_metrics(reg).write_json(os);
  return os.str();
}

std::shared_ptr<const analysis::AnalysisArtifacts> analyze_machine(
    const hv::MicrovisorOptions& opt) {
  const hv::Microvisor mv = hv::build_microvisor(opt);
  return std::make_shared<const analysis::AnalysisArtifacts>(
      analysis::analyze_program(mv.program, hv::analyze_options(mv)));
}

/// Fresh scratch directory per test; removed on teardown.
class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "resume_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  CampaignConfig make_cfg(const std::string& tag, int shards, bool importance,
                          obs::RecordFormat fmt = obs::RecordFormat::kJsonl) {
    CampaignConfig cfg;
    cfg.injections = 240;
    cfg.seed = 31;
    cfg.shards = shards;
    cfg.xentry.transition_detection = false;  // no model installed
    cfg.obs.metrics = true;  // tracing/flight recorder stay off: their
                             // payloads are not resume-stable
    cfg.streaming.records_path = dir_ + "/" + tag;
    cfg.streaming.records_format = fmt;
    cfg.streaming.checkpoint_path = dir_ + "/" + tag + ".ckpt";
    cfg.streaming.checkpoint_every = 16;
    if (importance) {
      cfg.analysis = analyze_machine(cfg.machine);
      cfg.sampling.importance = true;
    }
    return cfg;
  }

  /// Two campaigns over one records_path, each running half of a
  /// four-unit space (the second killed and resumed), against one run
  /// with shards = 4: every unit's stream is byte-identical to the
  /// reference's shard stream, so the digests match too.
  void expect_partitioned_runs_match(bool importance) {
    const CampaignResult ref = run_campaign(make_cfg("ref", 4, importance));

    const std::vector<int> units[2] = {{0, 2}, {1, 3}};
    CampaignConfig half[2];
    for (int h = 0; h < 2; ++h) {
      half[h] = make_cfg("part", 0, importance);
      half[h].streaming.checkpoint_path =
          dir_ + "/part" + std::to_string(h) + ".ckpt";
      half[h].fleet.unit_count = 4;
      half[h].fleet.units = units[h];
    }
    half[1].streaming.abort_after = 21;
    const CampaignResult cut = run_campaign(half[1]);
    EXPECT_FALSE(cut.resumed);
    EXPECT_FALSE(run_campaign(half[0]).resumed);
    half[1].streaming.abort_after = 0;
    const CampaignResult resumed = run_campaign(half[1]);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_LT(cut.records_streamed, resumed.records_streamed);

    for (int u = 0; u < 4; ++u) {
      const auto up = static_cast<std::size_t>(u);
      EXPECT_EQ(slurp(obs::ShardedFileSink::shard_path(
                    dir_ + "/part", obs::RecordFormat::kJsonl, up)),
                slurp(obs::ShardedFileSink::shard_path(
                    dir_ + "/ref", obs::RecordFormat::kJsonl, up)))
          << "unit " << u;
    }
    EXPECT_EQ(records_digest(
                  decode_stream(dir_ + "/part", obs::RecordFormat::kJsonl, 4)),
              records_digest(ref.records));
  }

  std::string dir_;
};

void expect_resume_matches_reference(CampaignConfig ref_cfg,
                                     CampaignConfig victim_cfg,
                                     int abort_after) {
  const auto ref = run_campaign(ref_cfg);
  EXPECT_FALSE(ref.resumed);
  const auto ref_stream =
      decode_stream(ref_cfg.streaming.records_path,
                    ref_cfg.streaming.records_format, ref_cfg.shards);
  ASSERT_EQ(ref_stream.size(), ref.records.size());
  const std::uint64_t want_digest = records_digest(ref.records);
  ASSERT_EQ(records_digest(ref_stream), want_digest);

  victim_cfg.streaming.abort_after = abort_after;
  const auto victim = run_campaign(victim_cfg);
  EXPECT_LT(victim.records_streamed, ref.records_streamed)
      << "the abort hook should have cut the campaign short";

  victim_cfg.streaming.abort_after = 0;
  const auto resumed = run_campaign(victim_cfg);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.records_streamed, ref.records_streamed);

  // Byte-identical shard streams, hence identical digests.
  for (int s = 0; s < ref_cfg.shards; ++s) {
    const auto sp = static_cast<std::size_t>(s);
    EXPECT_EQ(slurp(obs::ShardedFileSink::shard_path(
                  victim_cfg.streaming.records_path,
                  victim_cfg.streaming.records_format, sp)),
              slurp(obs::ShardedFileSink::shard_path(
                  ref_cfg.streaming.records_path,
                  ref_cfg.streaming.records_format, sp)))
        << "shard " << s;
  }
  const auto resumed_stream =
      decode_stream(victim_cfg.streaming.records_path,
                    victim_cfg.streaming.records_format, victim_cfg.shards);
  EXPECT_EQ(records_digest(resumed_stream), want_digest);

  // The merged metrics are reconstructed from the sidecar prefix plus the
  // live suffix; stripped of timing they match the uninterrupted run.
  EXPECT_EQ(stripped_metrics_json(resumed.metrics),
            stripped_metrics_json(ref.metrics));
}

TEST_F(ResumeTest, KillBetweenCheckpointsSingleShard) {
  // abort_after=21 with checkpoint_every=16: the last 5 iterations were
  // never durable and must be re-executed identically.
  expect_resume_matches_reference(make_cfg("ref", 1, false),
                                  make_cfg("victim", 1, false), 21);
}

TEST_F(ResumeTest, KillExactlyAtCheckpointBoundary) {
  // The buffered suffix is empty at the kill: resume re-executes nothing
  // before the boundary and everything after it.
  expect_resume_matches_reference(make_cfg("ref", 2, false),
                                  make_cfg("victim", 2, false), 16);
}

TEST_F(ResumeTest, KillBeforeFirstCheckpointRestartsFromScratch) {
  // Journal holds only the header: every shard restarts at iteration 0,
  // truncating its streams to zero — still bit-identical at the end.
  expect_resume_matches_reference(make_cfg("ref", 2, false),
                                  make_cfg("victim", 2, false), 5);
}

TEST_F(ResumeTest, KillBetweenCheckpointsSevenShards) {
  expect_resume_matches_reference(make_cfg("ref", 7, false),
                                  make_cfg("victim", 7, false), 20);
}

TEST_F(ResumeTest, KillWithImportanceSampling) {
  // The sampler's aux RNG cursor is journaled too; a resumed importance
  // campaign must redraw the same slots with the same weights.
  expect_resume_matches_reference(make_cfg("ref", 2, true),
                                  make_cfg("victim", 2, true), 21);
}

TEST_F(ResumeTest, KillWithImportanceSamplingSevenShards) {
  expect_resume_matches_reference(make_cfg("ref", 7, true),
                                  make_cfg("victim", 7, true), 17);
}

TEST_F(ResumeTest, BinaryFormatResumesIdentically) {
  expect_resume_matches_reference(
      make_cfg("ref", 2, false, obs::RecordFormat::kBinary),
      make_cfg("victim", 2, false, obs::RecordFormat::kBinary), 21);
}

TEST_F(ResumeTest, JsonlAndBinaryStreamsAreDigestEquivalent) {
  auto jcfg = make_cfg("jsonl_run", 2, false, obs::RecordFormat::kJsonl);
  auto bcfg = make_cfg("bin_run", 2, false, obs::RecordFormat::kBinary);
  const auto a = run_campaign(jcfg);
  const auto b = run_campaign(bcfg);
  const auto ja = decode_stream(jcfg.streaming.records_path,
                                obs::RecordFormat::kJsonl, 2);
  const auto jb = decode_stream(bcfg.streaming.records_path,
                                obs::RecordFormat::kBinary, 2);
  ASSERT_EQ(ja.size(), jb.size());
  EXPECT_EQ(records_digest(ja), records_digest(jb));
  EXPECT_EQ(records_digest(ja), records_digest(a.records));
  EXPECT_EQ(records_digest(jb), records_digest(b.records));
}

TEST_F(ResumeTest, StreamingWithoutCheckpointMatchesInMemoryRecords) {
  auto cfg = make_cfg("plain", 3, false);
  cfg.streaming.checkpoint_path.clear();
  const auto res = run_campaign(cfg);
  const auto stream =
      decode_stream(cfg.streaming.records_path, obs::RecordFormat::kJsonl, 3);
  ASSERT_EQ(stream.size(), res.records.size());
  EXPECT_EQ(records_digest(stream), records_digest(res.records));
  EXPECT_EQ(res.records_streamed, stream.size());
  // Sink accounting reached the metrics registry.
  ASSERT_NE(res.metrics.find_counter("obs.sink.appends"), nullptr);
  EXPECT_EQ(res.metrics.find_counter("obs.sink.appends")->value(),
            res.records_streamed);
}

TEST_F(ResumeTest, KeepRecordsOffStreamsWithoutAccumulating) {
  auto keep = make_cfg("keep", 2, false);
  auto drop = make_cfg("drop", 2, false);
  drop.streaming.keep_records = false;
  const auto a = run_campaign(keep);
  const auto b = run_campaign(drop);
  EXPECT_TRUE(b.records.empty());
  EXPECT_EQ(b.records_streamed, a.records_streamed);
  const auto stream =
      decode_stream(drop.streaming.records_path, obs::RecordFormat::kJsonl, 2);
  EXPECT_EQ(records_digest(stream), records_digest(a.records));
}

TEST_F(ResumeTest, ResumeUnderDifferentConfigIsRejected) {
  auto victim = make_cfg("victim", 2, false);
  victim.streaming.abort_after = 20;
  run_campaign(victim);

  auto other = victim;
  other.streaming.abort_after = 0;
  other.seed = 77;  // same journal path, different campaign identity
  EXPECT_THROW(run_campaign(other), std::invalid_argument);

  auto reshard = victim;
  reshard.streaming.abort_after = 0;
  reshard.shards = 3;
  EXPECT_THROW(run_campaign(reshard), std::invalid_argument);
}

TEST_F(ResumeTest, JournalRoundTripsShardState) {
  auto cfg = make_cfg("journal", 2, false);
  run_campaign(cfg);
  const JournalContents j = read_journal(cfg.streaming.checkpoint_path);
  ASSERT_TRUE(j.valid);
  EXPECT_EQ(j.header.seed, 31u);
  EXPECT_EQ(j.header.injections, 240);
  EXPECT_EQ(j.header.shards, 2);
  EXPECT_EQ(j.header.checkpoint_every, 16);
  ASSERT_EQ(j.shards.size(), 2u);
  std::uint64_t records = 0;
  for (int s = 0; s < 2; ++s) {
    ASSERT_TRUE(j.shards[s].has_value()) << s;
    const ShardCheckpoint& ck = *j.shards[s];
    EXPECT_EQ(ck.shard, s);
    EXPECT_GT(ck.iterations, 0u);
    EXPECT_FALSE(ck.main_rng.empty());
    EXPECT_FALSE(ck.gen_rng.empty());
    EXPECT_TRUE(ck.aux_rng.empty());  // uniform sampling: no aux stream
    EXPECT_FALSE(ck.memory.empty());
    records += ck.records_written;
    // The final checkpoint's sink offset covers the whole shard file.
    const std::string path = obs::ShardedFileSink::shard_path(
        cfg.streaming.records_path, obs::RecordFormat::kJsonl,
        static_cast<std::size_t>(s));
    EXPECT_EQ(ck.sink_offset, std::filesystem::file_size(path));
  }
  // Final checkpoints land at the quota: every record is journaled.
  const auto stream =
      decode_stream(cfg.streaming.records_path, obs::RecordFormat::kJsonl, 2);
  EXPECT_EQ(records, stream.size());
}

TEST_F(ResumeTest, StreamingConfigValidation) {
  const auto valid = [this] { return make_cfg("v", 1, false); };
  EXPECT_NO_THROW(validate_campaign_config(valid()));

  auto c = valid();
  c.streaming.checkpoint_path = dir_ + "/c.ckpt";
  c.streaming.records_path.clear();  // checkpoint needs a record stream
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.streaming.checkpoint_every = 0;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.streaming.abort_after = -1;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.streaming.sink_buffer_bytes = 0;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.streaming.records_path.clear();
  c.streaming.checkpoint_path.clear();
  c.streaming.keep_records = false;  // would discard every record
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  // The dataset accumulator is not journaled: checkpointing + dataset
  // collection is an up-front error, not a silent wrong resume.
  c = valid();
  c.xentry.transition_detection = false;
  c.collect_dataset = true;
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
}

TEST_F(ResumeTest, PartitionedRunsMatchOneRunUniform) {
  expect_partitioned_runs_match(false);
}

TEST_F(ResumeTest, PartitionedRunsMatchOneRunImportance) {
  expect_partitioned_runs_match(true);
}

TEST_F(ResumeTest, HeaderUnitsRoundTripAndGuardResumeIdentity) {
  // A partitioned campaign's journal header records its unit assignment.
  CampaignConfig cfg = make_cfg("w", 0, false);
  cfg.fleet.unit_count = 4;
  cfg.fleet.units = {0, 2};
  cfg.streaming.abort_after = 20;  // leave a resumable journal behind
  run_campaign(cfg);

  const JournalContents j = read_journal(cfg.streaming.checkpoint_path);
  ASSERT_TRUE(j.valid);
  EXPECT_EQ(j.header.shards, 4);  // the unit space, not the active subset
  EXPECT_EQ(j.header.units, (std::vector<int>{0, 2}));

  // Resuming under a different unit assignment would splice streams from
  // two different partitions — rejected like any identity mismatch.
  CampaignConfig other = cfg;
  other.streaming.abort_after = 0;
  other.fleet.units = {0, 3};
  EXPECT_THROW(run_campaign(other), std::invalid_argument);

  // The correct assignment resumes fine.
  cfg.streaming.abort_after = 0;
  const CampaignResult res = run_campaign(cfg);
  EXPECT_TRUE(res.resumed);
}

TEST_F(ResumeTest, UnpartitionedJournalHeaderHasNoUnits) {
  // The "units" key is emitted only for partitioned campaigns: every
  // other journal keeps the unpartitioned format byte for byte.
  const CampaignConfig cfg = make_cfg("solo", 2, false);
  run_campaign(cfg);
  const JournalContents j = read_journal(cfg.streaming.checkpoint_path);
  ASSERT_TRUE(j.valid);
  EXPECT_TRUE(j.header.units.empty());
  EXPECT_EQ(slurp(cfg.streaming.checkpoint_path).find("\"units\""),
            std::string::npos);
}

TEST_F(ResumeTest, PartitionConfigValidation) {
  const auto valid = [this] {
    CampaignConfig cfg = make_cfg("v", 0, false);
    cfg.streaming.checkpoint_path.clear();
    cfg.fleet.unit_count = 4;
    cfg.fleet.units = {1, 3};
    return cfg;
  };
  EXPECT_NO_THROW(validate_campaign_config(valid()));

  auto c = valid();
  c.streaming.records_path.clear();  // units only exist as durable streams
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.fleet.unit_count = 500;  // > injections: the unpartitioned run would
  EXPECT_THROW(validate_campaign_config(c),  // clamp, breaking bit-identity
               std::invalid_argument);

  c = valid();
  c.fleet.units.clear();
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.fleet.units = {1, 4};  // out of range
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.fleet.units = {1, 1};  // duplicate
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);

  c = valid();
  c.fleet.unit_count = 0;  // units without a unit space
  EXPECT_THROW(validate_campaign_config(c), std::invalid_argument);
}

TEST_F(ResumeTest, CorruptJournalRngIsATypedError) {
  // A shard that cannot parse its journaled RNG state throws inside its
  // thread; run_campaign joins every shard and rethrows it to the caller.
  auto cfg = make_cfg("rng", 2, false);
  cfg.streaming.abort_after = 20;  // past the checkpoint at iteration 16
  run_campaign(cfg);
  const std::string path = cfg.streaming.checkpoint_path;
  spit(path, replace_all(slurp(path), "\"main_rng\":\"",
                         "\"main_rng\":\"x"));
  ASSERT_TRUE(read_journal(path).valid);

  cfg.streaming.abort_after = 0;
  try {
    run_campaign(cfg);
    ADD_FAILURE() << "resume from a mangled RNG state must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("RNG"), std::string::npos)
        << e.what();
  }
}

TEST_F(ResumeTest, SinkOffsetPastFileEndFailsClosed) {
  // A journaled sink offset past the end of its shard file names records
  // that were never written.  Resume must refuse it rather than
  // zero-extend the file and continue.
  auto cfg = make_cfg("off", 2, false);
  cfg.streaming.abort_after = 20;
  run_campaign(cfg);
  const std::string path = cfg.streaming.checkpoint_path;
  spit(path, replace_all(slurp(path), "\"sink_off\":", "\"sink_off\":9"));
  const std::string shard0 = obs::ShardedFileSink::shard_path(
      cfg.streaming.records_path, obs::RecordFormat::kJsonl, 0);
  const std::string before = slurp(shard0);

  cfg.streaming.abort_after = 0;
  try {
    run_campaign(cfg);
    ADD_FAILURE() << "resume past the end of a shard file must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open record sink"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(slurp(shard0), before) << "the shard file must be left as it was";
}

}  // namespace
}  // namespace xentry::fault
