// The traced copy of the shard loop must do the same work as
// run_campaign: same record digest, same record count and effective mass,
// and on train_2shard the same trained rules.  Tiny campaigns keep this
// fast; the benchmark re-checks it at full size on every traced rep.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

using namespace cbench;

class TracedCopyTest : public ::testing::TestWithParam<Workload> {};

TEST_P(TracedCopyTest, DigestEqualsRunCampaign) {
  Params p;
  p.workload = GetParam();
  p.seed = 11;
  p.injections = 600;
  // Relative to the working directory (ctest runs in the build tree).
  p.out_dir = "campaign_bench_test_out/" + std::string(workload_name(p.workload));

  const Prepared plain = prepare(p);
  const xentry::fault::CampaignResult expected =
      xentry::fault::run_campaign(plain.cfg);
  const Outcome want = summarize(plain, expected);
  const PostResult want_post = post_process(plain, expected);

  const Prepared traced = prepare(p);  // fresh stream directory
  TracedLedger ledger;
  const xentry::fault::CampaignResult got =
      run_traced_campaign(traced.cfg, ledger);
  const Outcome have = summarize(traced, got);
  const PostResult have_post = post_process(traced, got);
  std::filesystem::remove_all(p.out_dir);

  EXPECT_GT(want.records, 0u);
  EXPECT_TRUE(want.decoded_ok);
  EXPECT_TRUE(have.decoded_ok);
  EXPECT_EQ(have.digest, want.digest);
  EXPECT_EQ(have.records, want.records);
  EXPECT_DOUBLE_EQ(have.effective, want.effective);
  EXPECT_EQ(have_post.rules_hash, want_post.rules_hash);
  EXPECT_EQ(traced.model_hash, plain.model_hash);
  EXPECT_EQ(got.dataset.size(), expected.dataset.size());

  // The ledger saw every slot and the side sample ran.
  EXPECT_EQ(ledger.slots, have.records);
  EXPECT_GT(ledger.side_samples, 0u);
  EXPECT_GT(ledger.covered_s, 0.0);
  EXPECT_LE(ledger.covered_s, ledger.wall_s);
  EXPECT_EQ(ledger.lanes.size(),
            static_cast<std::size_t>(traced.cfg.shards) + 1);
}

INSTANTIATE_TEST_SUITE_P(Workloads, TracedCopyTest,
                         ::testing::Values(Workload::kDetectFull,
                                           Workload::kSampledStream,
                                           Workload::kTrain2Shard),
                         [](const auto& info) {
                           return std::string(workload_name(info.param));
                         });

TEST(WorkloadNames, RoundTrip) {
  for (Workload w : {Workload::kDetectFull, Workload::kSampledStream,
                     Workload::kTrain2Shard}) {
    EXPECT_EQ(workload_from_name(workload_name(w)), w);
  }
  EXPECT_FALSE(workload_from_name("nope").has_value());
}

}  // namespace
