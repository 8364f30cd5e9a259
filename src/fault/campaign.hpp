// Parallel fault-injection campaigns.
//
// The paper runs 30,000 injections for the coverage study and ~23,400 +
// ~17,700 for training/testing the classifier (Sections III-B, V-D).  A
// campaign shards its injections across threads; each shard owns an
// isolated golden/faulty Machine pair and a workload generator seeded
// per shard, so results are deterministic for a fixed (seed, shards)
// pair and shards share no mutable state.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/artifacts.hpp"
#include "fault/experiment.hpp"
#include "fault/outcome.hpp"
#include "ml/dataset.hpp"
#include "ml/rules.hpp"
#include "obs/metrics.hpp"
#include "obs/options.hpp"
#include "obs/record_sink.hpp"
#include "obs/trace.hpp"
#include "workloads/workload.hpp"
#include "xentry/framework.hpp"

namespace xentry::fault {

/// One progress heartbeat (see CampaignConfig::Heartbeat).  Aggregated
/// from relaxed per-shard counters, so mid-campaign samples are a
/// consistent-enough snapshot, not a barrier; the final sample (emitted
/// after all shards join) is exact.
struct HeartbeatSample {
  std::uint64_t completed = 0;  ///< injections finished so far
  std::uint64_t total = 0;      ///< configured campaign size
  double elapsed_sec = 0;
  double injections_per_sec = 0;  ///< mean rate since campaign start
  double recent_per_sec = 0;      ///< rate since the previous heartbeat
  /// Remaining-work estimate from the recent rate (mean rate when no
  /// recent sample exists yet); 0 when done or the rate is unknown.
  double eta_sec = 0;
  std::uint64_t detected_total = 0;
  /// Indexed by Technique; entry 0 (None) stays zero.
  std::array<std::uint64_t, kNumTechniques> detected_by_technique{};
  /// Injections durable at the last checkpoint (0 without checkpointing).
  std::uint64_t checkpointed = 0;
  /// Record-sink bytes appended but not yet flushed to disk.
  std::uint64_t sink_lag_bytes = 0;
  /// Record-sink frames dropped across all shards (nonzero only when a
  /// sink failed or hit a capacity cap — a healthy file sink never drops).
  std::uint64_t sink_dropped = 0;
  /// Per-shard progress, one entry per *running* shard of this campaign,
  /// in shard order.  Feeds the straggler monitor.
  struct ShardThroughput {
    int shard = -1;
    std::uint64_t completed = 0;
    double recent_per_sec = 0;  ///< since the previous heartbeat
    /// True when this shard's recent rate fell below half the median
    /// across the campaign's unfinished shards.
    bool straggler = false;
  };
  std::vector<ShardThroughput> shards;
  std::uint64_t stragglers = 0;  ///< count of flagged shards this sample
  bool last = false;  ///< true for the exact post-join sample
};

struct CampaignConfig {
  int injections = 1000;
  /// Probability that an injection targets a register the upcoming
  /// instruction reads (an *activated* error, paper Section V-B) instead
  /// of a uniform architectural flip (which mostly lands in dead registers
  /// and masks).  0.5 reproduces the paper's manifestation rate of
  /// roughly 17,700 of 30,000 injections.
  double activation_bias = 0.5;
  /// Fault-free activations executed before the first injection, so the
  /// machine is warm ("regions when applications are running", V-B).
  int warmup_activations = 32;
  /// Fault-free activations between consecutive injections.
  int stream_gap = 2;
  std::uint64_t seed = 1;
  int shards = 0;  ///< 0: hardware concurrency

  /// Unit partition.  Fixes the shard space to `unit_count` work units —
  /// the quotas and seeds of the run with `shards = unit_count` — and
  /// executes only the `units` subset.  Unit streams land in that run's
  /// shard-file layout (`<records_path>.shard<u>.*`), so campaigns that
  /// together cover every unit leave the identical byte stream.  The
  /// subset is part of the checkpoint journal's identity.  Requires
  /// streaming.records_path; `units` must be unique and within
  /// [0, unit_count).  unit_count == 0 runs every shard.
  struct FleetConfig {
    int unit_count = 0;
    std::vector<int> units;
  };
  FleetConfig fleet{};

  hv::MicrovisorOptions machine{};
  XentryConfig xentry{};
  OutcomeModel outcome{};
  /// Transition-detection model (empty: no model installed).
  ml::RuleSet model{};
  /// Activation source.  Leave `mix` empty to sweep all exit reasons
  /// uniformly (the classifier-training configuration).
  wl::WorkloadProfile workload{};

  /// Collect (features, label) samples into CampaignResult::dataset.
  bool collect_dataset = false;

  /// Masking-aware importance sampling (src/fault/sampler.hpp).  When
  /// enabled, draws the vulnerability map proves masked are skipped and
  /// their probability mass reweighted exactly onto the records
  /// (InjectionRecord::weight / masked_weight), so weighted_rates()
  /// reproduces the uniform-sampling answer while spending faulted runs
  /// only on live bits.  Requires `analysis` carrying a bit-liveness map.
  /// The main RNG stream is consumed identically to uniform mode, so the
  /// activation/golden-probe sequence is bit-identical across modes.
  struct SamplingConfig {
    bool importance = false;
    /// Slots whose live mass falls below this floor are attributed to
    /// Masked analytically without a faulted run (bias <= floor per
    /// affected slot).  Must be in (0, 1].
    double weight_floor = 1.0 / 64;
  };
  SamplingConfig sampling{};

  /// Static-analysis artifacts for xentry.control_flow_detection, shared
  /// read-only across shards (every shard's Microvisor assembles the same
  /// program, so one analysis serves all).  Required when control-flow
  /// detection is enabled — validate_campaign_config fails fast otherwise,
  /// mirroring the transition-detection-without-model guard.
  std::shared_ptr<const analysis::AnalysisArtifacts> analysis;

  /// Observability: per-shard metrics, phase/VM-exit tracing, and the
  /// SDC flight recorder.  All off by default; none of it perturbs the
  /// record stream (digests are bit-identical across telemetry modes).
  obs::Options obs{};

  /// Streaming telemetry: durable record sinks and the checkpoint
  /// journal (src/fault/checkpoint.hpp).  With `records_path` set, every
  /// shard streams its records through an append-only per-shard file
  /// (`<records_path>.shard<N>.<jsonl|bin>`); shard files concatenated in
  /// shard order decode to exactly the in-memory record stream.  With
  /// `checkpoint_path` also set, shards journal their resume state every
  /// `checkpoint_every` iterations, and run_campaign with the same config
  /// resumes a killed campaign automatically — the resumed record stream
  /// and final metrics are bit-identical to an uninterrupted run's (see
  /// DESIGN.md section 5g).
  struct StreamingConfig {
    std::string records_path;  ///< empty: no record streaming
    obs::RecordFormat records_format = obs::RecordFormat::kJsonl;
    std::size_t sink_buffer_bytes = 64 * 1024;
    /// Journal file; empty disables checkpointing.  Requires
    /// records_path (resuming without a durable record stream would lose
    /// the pre-kill records).  Metrics sidecars live next to it.
    std::string checkpoint_path;
    int checkpoint_every = 1024;  ///< shard iterations between checkpoints
    /// false: do not accumulate records in CampaignResult::records (the
    /// 10^7-injection configuration — read them back from the sink).
    bool keep_records = true;
    /// Test hook simulating SIGKILL: each shard returns after this many
    /// iterations without flushing or checkpointing, so buffered sink
    /// bytes are lost exactly as a kill would lose them.  0 = off.
    int abort_after = 0;
  };
  StreamingConfig streaming{};

  /// Periodic progress reporting from a monitor thread.  Disabled unless
  /// `interval_sec > 0` and a callback is installed; the callback runs on
  /// the monitor thread (and once more, exactly, from the caller's thread
  /// after all shards join, with `HeartbeatSample::last` set).
  struct Heartbeat {
    double interval_sec = 0;
    std::function<void(const HeartbeatSample&)> callback;
  };
  Heartbeat heartbeat{};
};

/// Validates a configuration, throwing std::invalid_argument naming the
/// offending field.  run_campaign calls this before spawning shards, so
/// a bad config fails fast and loudly instead of silently misbehaving.
void validate_campaign_config(const CampaignConfig& config);

struct CampaignResult {
  std::vector<InjectionRecord> records;
  /// Labelled samples: golden runs (Correct) + faulted runs that reached
  /// VM entry (Incorrect when the control-flow trace diverged).
  ml::Dataset dataset{std::vector<std::string>{"VMER", "RT", "BR", "RM",
                                               "WM"}};
  /// Shard metrics merged in shard order (empty unless obs.metrics).
  /// Includes campaign-level gauges (injections_per_sec, elapsed_us).
  obs::MetricsRegistry metrics;
  /// All shards' spans on one timeline, tid = shard index (empty unless
  /// obs.tracing).  Export with trace.write_chrome_json for Perfetto.
  obs::TraceRecorder trace;
  /// Records durably written to the sink across all shards, including
  /// those streamed before a resume (0 without streaming.records_path).
  std::uint64_t records_streamed = 0;
  /// True when this run continued from an existing checkpoint journal —
  /// `records` then holds only the post-resume suffix; the full stream
  /// lives in the sink files.
  bool resumed = false;
};

/// Runs the campaign.  Deterministic per (config.seed, shard count).
CampaignResult run_campaign(const CampaignConfig& config);

/// A workload profile that sweeps every exit reason uniformly.
wl::WorkloadProfile uniform_sweep_profile();

}  // namespace xentry::fault
