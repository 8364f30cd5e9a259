// The traced copy of run_campaign's shard loop.  It performs the same
// calls in the same order as src/fault/campaign.cpp's run_shard for the
// configurations the benchmark runs, so its record digest equals
// run_campaign's; the benchmark checks that on every traced rep.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "analysis/cfg.hpp"
#include "analysis/superblocks.hpp"
#include "bench.hpp"
#include "fault/checkpoint.hpp"
#include "fault/experiment.hpp"
#include "fault/record_io.hpp"
#include "fault/sampler.hpp"
#include "hv/microvisor.hpp"
#include "obs/record_sink.hpp"
#include "obs/snapshot.hpp"
#include "obs/telemetry.hpp"

namespace cbench {

using namespace xentry;

namespace {

/// Every `kSideEvery`-th slot also runs the side sample.
constexpr std::uint64_t kSideEvery = 64;

/// Reads the cheapest monotonic counter: the TSC on x86-64, steady_clock
/// nanoseconds elsewhere.  A TSC read costs about half a steady_clock read
/// on a KVM guest (22 vs 45 ns on a 4-vCPU Xeon VM).  The reads fall
/// between spans, so their cost is most of fault.unaccounted_frac.
std::int64_t read_ticks() {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return Clock::now().time_since_epoch() / std::chrono::nanoseconds(1);
#endif
}

/// One thread's span lane.  Spans are appended to a vector owned by the
/// ledger; nothing is aggregated or written until the campaign ends.  A
/// span opens at the call and closes after it, so time between calls
/// (loop overhead, descheduling, side samples, waiting for shard threads)
/// is left uncovered and shows in fault.unaccounted_frac.  Times are
/// ticks since the campaign's epoch until run_traced_campaign rescales
/// them to nanoseconds.
class Lane {
 public:
  Lane(std::vector<Span>& spans, std::int64_t epoch_ticks)
      : spans_(spans), epoch_(epoch_ticks) {}

  std::int64_t now() const { return read_ticks() - epoch_; }

  /// Closes a span of `phase` that opened at `start`.
  void close(Phase phase, std::int64_t start) {
    spans_.push_back({phase, start, now()});
  }

  class Scope {
   public:
    Scope(Lane& lane, Phase phase)
        : lane_(lane), phase_(phase), start_(lane.now()) {}
    ~Scope() { lane_.close(phase_, start_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Lane& lane_;
    Phase phase_;
    std::int64_t start_;
  };

 private:
  std::vector<Span>& spans_;
  std::int64_t epoch_;
};

/// Per-shard counters the ledger needs besides spans.
struct ShardTally {
  std::int64_t begin = 0;  ///< lane start and end, in Lane::now() units
  std::int64_t end = 0;
  std::uint64_t golden_steps = 0;
  std::uint64_t slots = 0;
  std::uint64_t analytic_slots = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t checkpoints = 0;
  double side_s = 0;
  std::uint64_t side_samples = 0;
  double side_observe_s = 0;
  double side_run_s = 0;
  std::uint64_t side_steps = 0;
};

/// Side sample: restore a spare machine to the slot's pre-run state and
/// time Xentry::observe against a plain Machine::run of the same
/// activation.  Its own Xentry keeps the shard's detector untouched.
class SideSampler {
 public:
  SideSampler(const fault::CampaignConfig& cfg,
              const std::shared_ptr<const sim::jit::CompiledProgram>& compiled)
      : machine_(cfg.machine), xentry_(side_config(cfg)) {
    machine_.set_execution_engine(cfg.xentry.engine, compiled);
    if (!cfg.model.empty()) xentry_.set_model(cfg.model);
    if (cfg.analysis != nullptr) xentry_.set_analysis(cfg.analysis.get());
  }

  void sample(const hv::Activation& act, const hv::Machine::Snapshot& pre,
              ShardTally& tally) {
    machine_.restore(pre);
    auto t = Clock::now();
    xentry_.observe(machine_, act);
    tally.side_observe_s += seconds_since(t);
    machine_.restore(pre);
    t = Clock::now();
    const hv::RunResult rr = machine_.run(act);
    tally.side_run_s += seconds_since(t);
    tally.side_steps += rr.steps;
    ++tally.side_samples;
  }

 private:
  static XentryConfig side_config(const fault::CampaignConfig& cfg) {
    XentryConfig x = cfg.xentry;
    x.obs = {};
    return x;
  }

  hv::Machine machine_;
  Xentry xentry_;
};

struct ShardContext {
  const fault::CampaignConfig* cfg = nullptr;
  const wl::WorkloadProfile* profile = nullptr;
  int shard_index = 0;
  int num_shards = 1;
  std::shared_ptr<const sim::jit::CompiledProgram> compiled;
  obs::RecordSink* sink = nullptr;
  fault::CheckpointJournal* journal = nullptr;
};

fault::CampaignResult run_shard_traced(const ShardContext& ctx, Lane& lane,
                                       ShardTally& tally) {
  const fault::CampaignConfig& cfg = *ctx.cfg;
  const int shard_index = ctx.shard_index;
  const int quota = cfg.injections / ctx.num_shards +
                    (shard_index < cfg.injections % ctx.num_shards ? 1 : 0);

  fault::CampaignResult result;
  if (quota == 0) return result;
  // Declared first so it is destroyed last: its span covers the shard's
  // teardown (machines, buffers, streams), from `start`, set just before
  // the final return, to the end of the last destructor.
  struct TeardownSpan {
    Lane& lane;
    std::int64_t start = -1;  // unset when the shard throws
    ~TeardownSpan() {
      if (start >= 0) lane.close(kShardInit, start);
    }
  } teardown{lane};

  const obs::Options& oo = cfg.obs;
  std::ofstream snap_stream;
  std::unique_ptr<obs::SnapshotWriter> snap_writer;
  std::unique_ptr<hv::Machine> golden_ptr, faulty_ptr;
  std::unique_ptr<Xentry> xentry_ptr;
  std::unique_ptr<fault::InjectionExperiment> experiment_ptr;
  std::unique_ptr<wl::WorkloadGenerator> gen_ptr;
  std::unique_ptr<fault::ImportanceSampler> sampler;
  obs::MachineTelemetry golden_hooks, faulty_hooks;
  // Campaign counters (run_shard's CampaignMetricHandles subset).
  obs::Counter* c_injections = nullptr;
  obs::Counter* c_activated = nullptr;
  obs::Counter* c_manifested = nullptr;
  obs::Counter* c_detected = nullptr;
  obs::Counter* c_golden_steps = nullptr;
  obs::Counter* c_blackbox = nullptr;
  obs::Counter* c_analytic = nullptr;
  const std::uint64_t shard_seed =
      cfg.seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(shard_index);
  {
    Lane::Scope span(lane, kShardInit);
    if (cfg.streaming.keep_records) {
      result.records.reserve(static_cast<std::size_t>(quota));
    }
    if (ctx.journal != nullptr && oo.metrics) {
      const std::string spath =
          fault::snapshot_sidecar_path(cfg.streaming.checkpoint_path, shard_index);
      snap_stream.open(spath, std::ios::binary | std::ios::trunc);
      if (!snap_stream.is_open()) {
        throw std::runtime_error("traced campaign: cannot open " + spath);
      }
      snap_writer = std::make_unique<obs::SnapshotWriter>(snap_stream);
    }
    golden_ptr = std::make_unique<hv::Machine>(cfg.machine);
    faulty_ptr = std::make_unique<hv::Machine>(cfg.machine);
    golden_ptr->set_execution_engine(cfg.xentry.engine, ctx.compiled);
    faulty_ptr->set_execution_engine(cfg.xentry.engine, ctx.compiled);
    if (oo.metrics) {
      obs::Log2Histogram* snap = &result.metrics.histogram("machine.snapshot_ns");
      obs::Log2Histogram* rest = &result.metrics.histogram("machine.restore_ns");
      golden_hooks.snapshot_ns = faulty_hooks.snapshot_ns = snap;
      golden_hooks.restore_ns = faulty_hooks.restore_ns = rest;
      golden_ptr->set_telemetry(&golden_hooks);
      faulty_ptr->set_telemetry(&faulty_hooks);
      c_injections = &result.metrics.counter("campaign.injections");
      c_activated = &result.metrics.counter("campaign.activated");
      c_manifested = &result.metrics.counter("campaign.manifested");
      c_detected = &result.metrics.counter("campaign.detected");
      c_golden_steps = &result.metrics.counter("campaign.golden_steps");
      c_blackbox = &result.metrics.counter("campaign.blackbox_dumps");
      if (cfg.sampling.importance) {
        c_analytic = &result.metrics.counter("campaign.analytic_slots");
      }
    }
    XentryConfig xcfg = cfg.xentry;
    if (oo.metrics) xcfg.obs.metrics = true;
    xentry_ptr = std::make_unique<Xentry>(xcfg);
    if (!cfg.model.empty()) xentry_ptr->set_model(cfg.model);
    if (cfg.analysis != nullptr) xentry_ptr->set_analysis(cfg.analysis.get());
    if (oo.metrics) xentry_ptr->set_metrics(&result.metrics);
    experiment_ptr = std::make_unique<fault::InjectionExperiment>(
        *golden_ptr, *faulty_ptr, *xentry_ptr, cfg.outcome);
    gen_ptr = std::make_unique<wl::WorkloadGenerator>(*golden_ptr, *ctx.profile,
                                                      shard_seed);
    if (cfg.sampling.importance) {
      sampler = std::make_unique<fault::ImportanceSampler>(
          cfg.analysis->vuln, golden_ptr->microvisor().program,
          cfg.sampling.weight_floor, shard_seed ^ 0x94d049bb133111ebull);
    }
  }
  hv::Machine& golden = *golden_ptr;
  fault::InjectionExperiment& experiment = *experiment_ptr;
  wl::WorkloadGenerator& gen = *gen_ptr;
  std::mt19937_64 rng(shard_seed ^ 0xc2b2ae3d27d4eb4full);

  const auto side_t0 = Clock::now();
  SideSampler side(cfg, ctx.compiled);
  tally.side_s += seconds_since(side_t0);

  // Warm-up: next and advance, split so each layer gets its own span.
  for (int i = 0; i < cfg.warmup_activations; ++i) {
    hv::Activation act;
    {
      Lane::Scope span(lane, kNext);
      act = gen.next();
    }
    Lane::Scope span(lane, kAdvance);
    experiment.advance(act);
  }

  obs::RecordSink* const sink = ctx.sink;
  const obs::RecordFormat fmt = cfg.streaming.records_format;
  std::uint64_t records_written = 0;
  std::uint64_t digest = fault::kDigestBasis;
  double effective = 0.0;
  std::string frame;
  obs::SinkShardStats mirrored{};
  const auto mirror_sink_stats = [&] {
    if (sink == nullptr || !oo.metrics) return;
    const obs::SinkShardStats& now = sink->stats(shard_index);
    result.metrics.counter("obs.sink.appends").inc(now.appends - mirrored.appends);
    result.metrics.counter("obs.sink.appended_bytes")
        .inc(now.appended_bytes - mirrored.appended_bytes);
    result.metrics.counter("obs.sink.flushes").inc(now.flushes - mirrored.flushes);
    result.metrics.counter("obs.sink.flushed_bytes")
        .inc(now.flushed_bytes - mirrored.flushed_bytes);
    result.metrics.counter("obs.sink.backpressure_flushes")
        .inc(now.backpressure_flushes - mirrored.backpressure_flushes);
    result.metrics.counter("obs.sink.dropped").inc(now.dropped - mirrored.dropped);
    mirrored = now;
  };
  const auto write_checkpoint = [&](std::uint64_t iterations_done) {
    if (sink != nullptr) {
      Lane::Scope span(lane, kFlush);
      sink->flush(shard_index);
    }
    Lane::Scope span(lane, kCheckpoint);
    mirror_sink_stats();
    fault::ShardCheckpoint ck;
    ck.shard = shard_index;
    ck.iterations = iterations_done;
    ck.records_written = records_written;
    ck.digest = digest;
    ck.effective = effective;
    ck.sink_offset = sink != nullptr ? sink->offset(shard_index) : 0;
    if (snap_writer != nullptr) {
      snap_writer->write(result.metrics);
      ck.snap_offset = static_cast<std::uint64_t>(snap_stream.tellp());
      ck.snap_count = snap_writer->next_seq();
    }
    ck.forensics_counter = experiment.forensics_counter();
    ck.activations_generated = gen.activations_generated();
    ck.gen_rng = fault::rng_state_string(gen.rng());
    ck.main_rng = fault::rng_state_string(rng);
    if (sampler != nullptr) ck.aux_rng = fault::rng_state_string(sampler->aux());
    fault::capture_machine(golden, ck);
    ctx.journal->append(ck);
    ++tally.checkpoints;
  };

  std::bernoulli_distribution biased(cfg.activation_bias);
  fault::InjectionExperiment::GoldenProbe probe;
  for (int i = 0; i < quota; ++i) {
    hv::Activation act;
    {
      Lane::Scope span(lane, kNext);
      act = gen.next();
    }
    {
      Lane::Scope span(lane, kProbe);
      experiment.probe_golden_advance(act, probe);
    }
    if (probe.steps == 0) {
      Lane::Scope span(lane, kProbe);
      golden.restore(probe.pre);
    } else {
      tally.golden_steps += probe.steps;
      ++tally.slots;
      fault::ImportanceSampler::Proposal prop;
      {
        Lane::Scope span(lane, kDraw);
        if (sampler != nullptr) {
          prop = biased(rng) ? sampler->propose_activated(rng, probe.trace)
                             : sampler->propose_uniform(rng, probe.steps,
                                                        probe.trace);
        } else {
          prop.injection =
              biased(rng)
                  ? fault::InjectionExperiment::draw_activated_injection(
                        rng, probe.trace, golden.microvisor().program)
                  : fault::InjectionExperiment::draw_injection(rng, probe.steps);
        }
      }
      const hv::Injection inj = prop.injection;
      fault::InjectionExperiment::Result r;
      if (prop.analytic) {
        Lane::Scope span(lane, kRecord);
        fault::InjectionRecord& rec0 = r.record;
        rec0.reason = act.reason;
        rec0.activation_seed = act.seed;
        rec0.vcpu = act.vcpu;
        rec0.injection = inj;
        rec0.injected = true;
        rec0.consequence = fault::Consequence::Masked;
        rec0.features = FeatureVector::from(act.reason, probe.counters);
        r.golden_features = rec0.features;
        r.golden_ok = probe.reached_vm_entry;
        if (c_analytic != nullptr) c_analytic->inc();
        ++tally.analytic_slots;
      } else {
        {
          Lane::Scope span(lane, kFaulted);
          r = experiment.run_one(act, inj, probe);
        }
        if (sampler != nullptr) {
          r.record.weight = prop.live_mass;
          r.record.masked_weight = 1.0 - prop.live_mass;
        }
      }
      if (tally.slots % kSideEvery == 0) {
        const auto t = Clock::now();
        side.sample(act, probe.pre, tally);
        tally.side_s += seconds_since(t);
      }
      fault::InjectionRecord rec;
      {
        Lane::Scope span(lane, kRecord);
        if (cfg.collect_dataset) {
          result.dataset.add(r.golden_features.as_array(), ml::Label::Correct);
          if (r.record.activated && r.record.trap == sim::TrapKind::None &&
              r.record.injected) {
            result.dataset.add(r.record.features.as_array(),
                               r.record.trace_diverged ? ml::Label::Incorrect
                                                       : ml::Label::Correct);
          }
        }
        rec = std::move(r.record);
        effective += rec.weight > 0.0 ? 1.0 / rec.weight : 1.0;
      }
      {
        Lane::Scope span(lane, kDigest);
        digest = fault::digest_update(digest, rec);
      }
      ++records_written;
      if (sink != nullptr) {
        {
          Lane::Scope span(lane, kEncode);
          frame.clear();
          fault::encode_record(rec, fmt, frame);
        }
        Lane::Scope span(lane, kAppend);
        sink->append(static_cast<std::size_t>(shard_index), frame);
      }
      {
        Lane::Scope span(lane, kRecord);
        if (c_injections != nullptr) {
          c_injections->inc();
          c_golden_steps->inc(probe.steps);
          if (rec.activated) c_activated->inc();
          if (fault::is_manifested(rec.consequence)) c_manifested->inc();
          if (rec.detected) c_detected->inc();
          if (!rec.blackbox.empty()) c_blackbox->inc();
        }
        if (cfg.streaming.keep_records) result.records.push_back(std::move(rec));
      }
      for (int g = 0; g < cfg.stream_gap; ++g) {
        hv::Activation gap;
        {
          Lane::Scope span(lane, kNext);
          gap = gen.next();
        }
        Lane::Scope span(lane, kAdvance);
        experiment.advance(gap);
      }
    }
    if (ctx.journal != nullptr &&
        (i + 1) % cfg.streaming.checkpoint_every == 0 && i + 1 < quota) {
      write_checkpoint(static_cast<std::uint64_t>(i) + 1);
    }
  }

  if (oo.metrics) {
    Lane::Scope span(lane, kRecord);
    result.metrics.gauge("campaign.effective_injections")
        .set(static_cast<std::int64_t>(std::llround(effective)));
  }
  if (sink != nullptr) {
    {
      Lane::Scope span(lane, kFlush);
      sink->flush(static_cast<std::size_t>(shard_index));
    }
    Lane::Scope span(lane, kCheckpoint);
    mirror_sink_stats();
    result.records_streamed = records_written;
    tally.bytes_written = sink->stats(shard_index).flushed_bytes;
  }
  if (ctx.journal != nullptr) write_checkpoint(static_cast<std::uint64_t>(quota));
  teardown.start = lane.now();
  return result;
}

double span_seconds(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

}  // namespace

std::string_view phase_name(Phase p) {
  static constexpr std::string_view kNames[kNumPhases] = {
      "fault.init",      "fault.shard_init", "workloads.next",
      "fault.golden_probe", "fault.draw",   "fault.faulted_run",
      "fault.record",    "fault.digest",     "obs.encode",
      "obs.sink_append", "obs.sink_flush",   "obs.checkpoint",
      "fault.advance",   "fault.merge"};
  return p < kNumPhases ? kNames[p] : "?";
}

fault::CampaignResult run_traced_campaign(const fault::CampaignConfig& cfg,
                                          TracedLedger& ledger) {
  if (cfg.fleet.unit_count > 0 || cfg.obs.tracing || cfg.obs.flight_recorder ||
      cfg.obs.forensics || cfg.streaming.abort_after > 0 ||
      cfg.heartbeat.interval_sec > 0) {
    throw std::invalid_argument(
        "traced campaign: fleet, tracing, flight recorder, forensics, "
        "abort_after and heartbeat are not part of the benchmark's copy");
  }
  ledger = TracedLedger{};
  const auto epoch = Clock::now();
  const std::int64_t epoch_ticks = read_ticks();
  std::vector<Span> main_spans;  // becomes lane 0 once the lanes exist
  Lane main_lane(main_spans, epoch_ticks);

  std::shared_ptr<const sim::jit::CompiledProgram> compiled;
  int shards = cfg.shards;
  wl::WorkloadProfile profile;
  std::unique_ptr<obs::ShardedFileSink> sink;
  std::unique_ptr<fault::CheckpointJournal> journal;
  const fault::CampaignConfig::StreamingConfig& st = cfg.streaming;
  {
    Lane::Scope span(main_lane, kInit);
    fault::validate_campaign_config(cfg);
    if (cfg.analysis != nullptr) {
      const hv::Microvisor probe = hv::build_microvisor(cfg.machine);
      if (analysis::program_signature(probe.program) != cfg.analysis->signature) {
        throw std::invalid_argument(
            "traced campaign: analysis artifacts do not match the program");
      }
    }
    if (cfg.xentry.engine == sim::EngineKind::Jit) {
      compiled = analysis::compile_threaded(*cfg.analysis);
    }
    if (shards <= 0) {
      shards = static_cast<int>(std::thread::hardware_concurrency());
      if (shards <= 0) shards = 4;
    }
    if (shards > cfg.injections && cfg.injections > 0) shards = cfg.injections;
    profile = cfg.workload.mix.empty() ? fault::uniform_sweep_profile()
                                       : cfg.workload;
    if (!st.records_path.empty()) {
      obs::ShardedFileSink::Options so;
      so.base_path = st.records_path;
      so.format = st.records_format;
      so.shard_count = static_cast<std::size_t>(shards);
      so.buffer_bytes = st.sink_buffer_bytes;
      sink = std::make_unique<obs::ShardedFileSink>(std::move(so));
      if (!sink->ok()) {
        throw std::runtime_error("traced campaign: cannot open record sink");
      }
    }
    if (!st.checkpoint_path.empty()) {
      fault::CheckpointHeader header;
      header.seed = cfg.seed;
      header.injections = cfg.injections;
      header.shards = shards;
      header.activation_bias = cfg.activation_bias;
      header.warmup_activations = cfg.warmup_activations;
      header.stream_gap = cfg.stream_gap;
      header.importance = cfg.sampling.importance;
      header.checkpoint_every = st.checkpoint_every;
      header.records_format = static_cast<std::uint8_t>(st.records_format);
      journal = fault::CheckpointJournal::create(st.checkpoint_path, header);
      if (journal == nullptr || !journal->ok()) {
        throw std::runtime_error("traced campaign: cannot open journal");
      }
    }
  }

  // Reserve each lane up front so appending a span never reallocates
  // inside the timed loop (about 9 + 2 * stream_gap spans per slot).
  const std::size_t per_shard =
      static_cast<std::size_t>(cfg.injections / shards + 1);
  const std::size_t lane_capacity =
      per_shard * static_cast<std::size_t>(9 + 2 * cfg.stream_gap) +
      static_cast<std::size_t>(2 * cfg.warmup_activations) + 4096;
  ledger.lanes.resize(static_cast<std::size_t>(shards) + 1);
  for (int s = 0; s < shards; ++s) {
    ledger.lanes[static_cast<std::size_t>(s) + 1].reserve(lane_capacity);
  }
  std::vector<ShardTally> tallies(static_cast<std::size_t>(shards));
  std::vector<fault::CampaignResult> partials(static_cast<std::size_t>(shards));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(shards));
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      threads.emplace_back([&, s] {
        const auto u = static_cast<std::size_t>(s);
        Lane lane(ledger.lanes[u + 1], epoch_ticks);
        ShardTally& tally = tallies[u];
        tally.begin = lane.now();
        try {
          ShardContext ctx;
          ctx.cfg = &cfg;
          ctx.profile = &profile;
          ctx.shard_index = s;
          ctx.num_shards = shards;
          ctx.compiled = compiled;
          ctx.sink = sink.get();
          ctx.journal = journal.get();
          partials[u] = run_shard_traced(ctx, lane, tally);
        } catch (...) {
          errors[u] = std::current_exception();
        }
        tally.end = lane.now();
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  fault::CampaignResult merged;
  {
    Lane::Scope span(main_lane, kMerge);
    std::size_t total_records = 0, total_rows = 0;
    for (const fault::CampaignResult& p : partials) {
      total_records += p.records.size();
      total_rows += p.dataset.size();
    }
    merged.records.reserve(total_records);
    merged.dataset.reserve(total_rows);
    for (fault::CampaignResult& p : partials) {
      merged.records.insert(merged.records.end(),
                            std::make_move_iterator(p.records.begin()),
                            std::make_move_iterator(p.records.end()));
      merged.dataset.append(p.dataset);
      merged.metrics.merge_from(p.metrics);
      merged.records_streamed += p.records_streamed;
    }
  }
  const double wall = seconds_since(epoch);
  const std::int64_t wall_ticks = read_ticks() - epoch_ticks;
  ledger.lanes[0] = std::move(main_spans);
  // Rescale ticks to nanoseconds against steady_clock over the campaign.
  const double ns_per_tick =
      wall * 1e9 / static_cast<double>(std::max<std::int64_t>(1, wall_ticks));
  const auto to_ns = [ns_per_tick](std::int64_t ticks) {
    return std::llround(static_cast<double>(ticks) * ns_per_tick);
  };
  for (std::vector<Span>& lane : ledger.lanes) {
    for (Span& sp : lane) {
      sp.start_ns = to_ns(sp.start_ns);
      sp.end_ns = to_ns(sp.end_ns);
    }
  }
  journal.reset();  // close before measuring its size
  sink.reset();

  // -- aggregate the in-memory spans into the ledger --------------------------
  ledger.wall_s = wall;
  double main_s = 0;
  for (const Span& s : ledger.lanes[0]) {
    main_s += span_seconds(s);
    ledger.phase_s[s.phase] += span_seconds(s);
  }
  double slowest_lane = -1, slowest_spans = 0, slowest_side = 0;
  for (int s = 0; s < shards; ++s) {
    const auto u = static_cast<std::size_t>(s);
    const ShardTally& t = tallies[u];
    double spans = 0;
    for (const Span& sp : ledger.lanes[u + 1]) {
      const double d = span_seconds(sp);
      spans += d;
      ledger.phase_s[sp.phase] += d;
      if (sp.phase == kFaulted) ledger.faulted_us.push_back(d * 1e6);
    }
    const double lane_s =
        static_cast<double>(t.end - t.begin) * ns_per_tick * 1e-9;
    ledger.shard_s.push_back(lane_s);
    if (lane_s - t.side_s > slowest_lane) {
      slowest_lane = lane_s - t.side_s;
      slowest_spans = spans;
      slowest_side = t.side_s;
    }
    ledger.golden_steps += t.golden_steps;
    ledger.slots += t.slots;
    ledger.analytic_slots += t.analytic_slots;
    ledger.bytes_written += t.bytes_written;
    ledger.checkpoints += t.checkpoints;
    ledger.side_samples += t.side_samples;
    ledger.side_observe_s += t.side_observe_s;
    ledger.side_run_s += t.side_run_s;
    ledger.side_steps += t.side_steps;
  }
  ledger.covered_s = main_s + slowest_spans;
  ledger.side_s = slowest_side;
  if (!st.checkpoint_path.empty()) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(st.checkpoint_path, ec);
    if (!ec) ledger.journal_bytes = size;
  }
  return merged;
}

bool write_chrome_trace(const TracedLedger& ledger, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t lane = 0; lane < ledger.lanes.size(); ++lane) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s%zu\"}}",
                 first ? "" : ",\n", lane, lane == 0 ? "main" : "shard",
                 lane == 0 ? 0 : lane - 1);
    first = false;
    for (const Span& s : ledger.lanes[lane]) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   std::string(phase_name(s.phase)).c_str(), lane,
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace cbench
