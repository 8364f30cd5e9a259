#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/artifacts.hpp"
#include "bench.hpp"
#include "fault/record_io.hpp"
#include "fault/training.hpp"
#include "hv/microvisor.hpp"
#include "obs/record_sink.hpp"
#include "workloads/workload.hpp"

namespace cbench {

using namespace xentry;

namespace {

// Benchmark campaign sizes: each rep runs ~0.5-1 s on a 4-core x86-64
// host, so a 30 s run holds enough reps for a stable median.
constexpr int kDetectFullInjections = 20000;
constexpr int kSampledStreamInjections = 40000;
constexpr int kTrain2ShardInjections = 30000;

/// detect_full's model-training campaign, at the paper's ratio of
/// training to evaluation injections (23,400 : 30,000).
int training_injections(int injections) { return injections * 78 / 100; }

/// Bytes read from a streamed shard file at a time.
constexpr std::size_t kReadChunkBytes = 1 << 16;

int default_injections(Workload w) {
  switch (w) {
    case Workload::kDetectFull: return kDetectFullInjections;
    case Workload::kSampledStream: return kSampledStreamInjections;
    case Workload::kTrain2Shard: return kTrain2ShardInjections;
  }
  return 0;
}

std::string records_base(const std::string& out_dir) {
  return out_dir + "/records";
}

fault::TrainingOptions training_options(std::uint64_t seed) {
  fault::TrainingOptions opt;
  opt.random_tree = true;
  opt.seed = seed;
  return opt;
}

std::uint64_t hash_text(std::string_view text) {
  std::uint64_t h = fault::kDigestBasis;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::optional<Workload> workload_from_name(std::string_view name) {
  if (name == "detect_full") return Workload::kDetectFull;
  if (name == "sampled_stream") return Workload::kSampledStream;
  if (name == "train_2shard") return Workload::kTrain2Shard;
  return std::nullopt;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kDetectFull: return "detect_full";
    case Workload::kSampledStream: return "sampled_stream";
    case Workload::kTrain2Shard: return "train_2shard";
  }
  return "?";
}

Prepared prepare(const Params& p) {
  if (p.workload == Workload::kSampledStream) {
    // A leftover journal would make run_campaign resume instead of
    // starting over, so each rep starts from an empty directory.  This is
    // the benchmark's own cleanup, so it happens before set-up is timed.
    std::filesystem::remove_all(p.out_dir);
    std::filesystem::create_directories(p.out_dir);
  }
  const auto t0 = Clock::now();
  Prepared out;
  fault::CampaignConfig& cfg = out.cfg;
  cfg.seed = p.seed;
  cfg.injections = p.injections > 0 ? p.injections : default_injections(p.workload);
  if (p.engine.has_value()) cfg.xentry.engine = *p.engine;
  // Only detect_full installs a model; the others run runtime detection.
  cfg.xentry.transition_detection = false;

  auto t = Clock::now();
  const hv::Microvisor mv = hv::build_microvisor(cfg.machine);
  out.times.hv_build_s = seconds_since(t);

  // Every workload installs the artifacts: detect_full's CFI and timing
  // envelopes and sampled_stream's vulnerability map read them, and the
  // threaded engine compiles from them if it is the configured engine.
  t = Clock::now();
  cfg.analysis = std::make_shared<const analysis::AnalysisArtifacts>(
      analysis::analyze_program(mv.program, hv::analyze_options(mv)));
  out.times.analyze_s = seconds_since(t);

  switch (p.workload) {
    case Workload::kDetectFull: {
      cfg.shards = 1;
      // The model is trained in set-up from its own campaign, at a seed
      // derived from the workload seed (uniform sweep, dataset on).
      fault::CampaignConfig tcfg = cfg;
      tcfg.injections = training_injections(cfg.injections);
      tcfg.seed = p.seed * 0x9e3779b97f4a7c15ull + 0x7261696eull;
      tcfg.collect_dataset = true;
      const fault::CampaignResult trained = fault::run_campaign(tcfg);
      t = Clock::now();
      fault::TrainedDetector det =
          fault::train_detector(trained.dataset, training_options(p.seed));
      out.times.ml_train_s = seconds_since(t);
      out.times.ml_train_samples = det.train_samples;
      out.times.ml_rules = det.rules.size();
      out.model_hash = hash_text(det.rules.serialize());
      cfg.model = std::move(det.rules);
      cfg.xentry.transition_detection = true;
      cfg.xentry.control_flow_detection = true;
      cfg.xentry.timing_detection = true;
      break;
    }
    case Workload::kSampledStream: {
      cfg.shards = 1;
      cfg.workload = wl::profile(wl::Benchmark::postmark, wl::VirtMode::Para);
      cfg.sampling.importance = true;
      cfg.obs.metrics = true;  // the checkpoint's metrics sidecar
      cfg.streaming.records_path = records_base(p.out_dir);
      cfg.streaming.records_format = obs::RecordFormat::kBinary;
      cfg.streaming.checkpoint_path = p.out_dir + "/journal.jsonl";
      cfg.streaming.keep_records = false;
      break;
    }
    case Workload::kTrain2Shard:
      cfg.shards = 2;
      cfg.collect_dataset = true;
      break;
  }
  out.setup_s = seconds_since(t0);
  return out;
}

PostResult post_process(const Prepared& prep,
                        const fault::CampaignResult& res) {
  PostResult post;
  if (!prep.cfg.collect_dataset) return post;
  const auto t = Clock::now();
  const fault::TrainedDetector det =
      fault::train_detector(res.dataset, training_options(prep.cfg.seed));
  post.ml_train_s = seconds_since(t);
  post.ml_train_samples = det.train_samples;
  post.ml_rules = det.rules.size();
  post.rules_hash = hash_text(det.rules.serialize());
  return post;
}

Outcome summarize(const Prepared& prep, const fault::CampaignResult& res) {
  const fault::CampaignConfig& cfg = prep.cfg;
  Outcome out;
  out.attempted = static_cast<std::uint64_t>(cfg.injections);
  out.digest = fault::kDigestBasis;
  const auto fold = [&out](const fault::InjectionRecord& r) {
    ++out.records;
    out.digest = fault::digest_update(out.digest, r);
    out.effective += r.weight > 0.0 ? 1.0 / r.weight : 1.0;
    if (r.detected) ++out.detected[static_cast<std::size_t>(r.technique)];
  };
  if (cfg.streaming.records_path.empty()) {
    for (const fault::InjectionRecord& r : res.records) fold(r);
    return out;
  }
  // Shard streams concatenated in shard order are the record stream.  Each
  // file is read in chunks and decoded one frame at a time, so checking the
  // stream adds little to the process's peak memory.
  const obs::RecordFormat fmt = cfg.streaming.records_format;
  std::vector<char> chunk(kReadChunkBytes);
  std::string buf;
  fault::InjectionRecord rec;
  for (int s = 0; s < cfg.shards; ++s) {
    std::ifstream in(obs::ShardedFileSink::shard_path(
                         cfg.streaming.records_path, fmt,
                         static_cast<std::size_t>(s)),
                     std::ios::binary);
    if (!in.is_open()) {
      out.decoded_ok = false;
      continue;
    }
    buf.clear();
    std::size_t pos = 0;
    while (in.read(chunk.data(), static_cast<std::streamsize>(chunk.size())) ||
           in.gcount() > 0) {
      buf.erase(0, pos);
      pos = 0;
      buf.append(chunk.data(), static_cast<std::size_t>(in.gcount()));
      while (fault::decode_record(buf, fmt, pos, rec)) fold(rec);
    }
    out.decoded_ok &= pos == buf.size();  // no undecodable tail
  }
  if (const obs::Counter* c = res.metrics.find_counter("obs.sink.dropped")) {
    out.dropped = c->value();
  }
  return out;
}

}  // namespace cbench
