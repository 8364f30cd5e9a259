// The campaign benchmark's workloads and its traced copy of the shard loop.
//
// Every layer is timed from outside, around calls into its public
// functions: set-up (hv::build_microvisor, analysis::analyze_program, the
// model-training campaign, fault::train_detector), the campaign
// (fault::run_campaign, or the traced copy below), and post-processing.
// Nothing here reaches inside src/.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/campaign.hpp"
#include "sim/cpu.hpp"

namespace cbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Workload { kDetectFull, kSampledStream, kTrain2Shard };

std::optional<Workload> workload_from_name(std::string_view name);
std::string_view workload_name(Workload w);

struct Params {
  Workload workload = Workload::kDetectFull;
  std::uint64_t seed = 7;
  /// Campaign size; 0 selects the workload's benchmark size.
  int injections = 0;
  /// Directory for streamed records, journal and sidecar (sampled_stream).
  std::string out_dir = ".bench_build/out";
  /// Execution engine; unset keeps XentryConfig's default.
  std::optional<xentry::sim::EngineKind> engine;
};

/// Set-up ledger: each entry is a span around one public call.
struct SetupTimes {
  double hv_build_s = 0;
  double analyze_s = 0;
  double ml_train_s = 0;        ///< train_detector inside set-up
  std::size_t ml_train_samples = 0;
  std::size_t ml_rules = 0;
};

struct Prepared {
  xentry::fault::CampaignConfig cfg;
  SetupTimes times;
  /// Hash of the installed model's RuleSet::serialize() (0: no model).
  std::uint64_t model_hash = 0;
  double setup_s = 0;
};

/// Set-up: everything from workload start to the first injection.
Prepared prepare(const Params& p);

/// Post-processing: train_detector on train_2shard's merged dataset (a
/// no-op elsewhere).  Returns the trained rules' hash, or 0.
struct PostResult {
  std::uint64_t rules_hash = 0;
  double ml_train_s = 0;
  std::size_t ml_train_samples = 0;
  std::size_t ml_rules = 0;
};
PostResult post_process(const Prepared& prep,
                        const xentry::fault::CampaignResult& res);

/// What a campaign produced, for comparison against the oracle.  On
/// sampled_stream the records are decoded from the streamed shard files.
struct Outcome {
  std::uint64_t attempted = 0;  ///< injections configured
  std::uint64_t records = 0;
  std::uint64_t digest = 0;
  double effective = 0;  ///< sum of 1/weight
  std::uint64_t dropped = 0;  ///< sink frames dropped
  bool decoded_ok = true;  ///< every streamed byte decoded
  std::array<std::uint64_t, xentry::kNumTechniques> detected{};
};
Outcome summarize(const Prepared& prep,
                  const xentry::fault::CampaignResult& res);

/// Per-layer ledger of one traced campaign.  Phase times are sums over
/// all lanes; coverage uses the main lane plus the slowest shard lane.
enum Phase : std::uint8_t {
  kInit,        ///< validate, signature check, compile, open sink/journal
  kShardInit,   ///< build and tear down per-shard machines, experiment, ...
  kNext,        ///< WorkloadGenerator::next
  kProbe,       ///< InjectionExperiment::probe_golden_advance
  kDraw,        ///< draw_* / ImportanceSampler::propose_*
  kFaulted,     ///< InjectionExperiment::run_one
  kRecord,      ///< analytic record, dataset rows, record bookkeeping
  kDigest,      ///< digest_update
  kEncode,      ///< encode_record
  kAppend,      ///< RecordSink::append
  kFlush,       ///< RecordSink::flush
  kCheckpoint,  ///< capture_machine + SnapshotWriter + journal append
  kAdvance,     ///< InjectionExperiment::advance (warm-up and stream gap)
  kMerge,       ///< shard-order merge of partial results
  kNumPhases,
};

std::string_view phase_name(Phase p);

struct Span {
  Phase phase = kInit;
  std::int64_t start_ns = 0;  ///< since the campaign's epoch
  std::int64_t end_ns = 0;
};

struct TracedLedger {
  /// Raw spans, kept in memory during the run: lane 0 is the calling
  /// thread, lane s + 1 is shard s.
  std::vector<std::vector<Span>> lanes;
  std::array<double, kNumPhases> phase_s{};
  std::vector<double> faulted_us;  ///< one sample per faulted run
  double wall_s = 0;      ///< campaign wall, side samples included
  double side_s = 0;  ///< slowest shard's side-sample time (not covered)
  double covered_s = 0;   ///< main-lane spans + slowest shard's spans
  std::vector<double> shard_s;  ///< per-shard lane wall time
  std::uint64_t golden_steps = 0;
  std::uint64_t slots = 0;          ///< non-degenerate slots
  std::uint64_t analytic_slots = 0;
  std::uint64_t bytes_written = 0;  ///< record-sink bytes flushed
  std::uint64_t checkpoints = 0;
  std::uint64_t journal_bytes = 0;
  // Side sample: Xentry::observe vs plain Machine::run, same activation.
  std::uint64_t side_samples = 0;
  double side_observe_s = 0;
  double side_run_s = 0;
  std::uint64_t side_steps = 0;
};

/// A benchmark-owned copy of run_campaign's shard loop built from public
/// calls, with one span lane per shard.  Supports the configurations the
/// workloads use (no resume, fleet, heartbeat, tracing, flight recorder
/// or forensics) and throws std::invalid_argument otherwise.  Every 64th
/// slot also runs the side sample.
xentry::fault::CampaignResult run_traced_campaign(
    const xentry::fault::CampaignConfig& cfg, TracedLedger& ledger);

/// Writes a traced campaign's spans as Chrome trace-event JSON (one
/// Perfetto lane per shard).  Returns false when the file cannot be written.
bool write_chrome_trace(const TracedLedger& ledger, const std::string& path);

}  // namespace cbench
