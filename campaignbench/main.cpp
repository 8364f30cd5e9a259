// campaign_bench: runs one benchmark workload and prints one JSON object
// per line on stdout.  run.py drives it; it can also be run by hand:
//
//   campaign_bench --mode oracle|timed|traced --workload NAME --seed N
//                  [--seconds S] [--out-dir DIR] [--trace-out FILE]
//
//   oracle  one untimed rep on the reference engine (sim::EngineKind::
//           Reference, the independent Cpu::step path): the answer every
//           timed rep must reproduce.
//   timed   reps of set-up + run_campaign + post-processing on the default
//           engine until S seconds have passed; one "rep" line each, then
//           a "process" line with the peak RSS.
//   traced  alternates untimed-layer reps (as in timed) with reps of the
//           traced copy of the shard loop; "traced" lines carry the
//           per-layer ledger.  --trace-out writes the last traced rep's
//           spans as Chrome trace JSON.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace cbench;
using xentry::Technique;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// One JSON line, built field by field.
class Line {
 public:
  explicit Line(const char* kind) { text_ = "{\"kind\":\"" + std::string(kind) + "\""; }
  Line& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Line& count(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Line& hex(const char* key, std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "\"%016" PRIx64 "\"", v);
    return raw(key, buf);
  }
  Line& flag(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Line& raw(const std::string& key, const std::string& value) {
    text_ += ",\"" + key + "\":" + value;
    return *this;
  }
  void print() const {
    std::printf("%s}\n", text_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string text_;
};

struct Rep {
  Prepared prep;
  xentry::fault::CampaignResult result;
  PostResult post;
  Outcome outcome;
  double campaign_s = 0;
  double cpu_s = 0;
  double post_s = 0;
};

/// Appends the fields every rep line carries (timings + the answer).
void add_rep_fields(Line& line, const Rep& r) {
  const std::uint64_t rules =
      r.post.rules_hash != 0 ? r.post.rules_hash : r.prep.model_hash;
  line.num("setup_s", r.prep.setup_s)
      .num("campaign_s", r.campaign_s)
      .num("post_s", r.post_s)
      .num("total_s", r.prep.setup_s + r.campaign_s + r.post_s)
      .num("cpu_s", r.cpu_s)
      .count("attempted", r.outcome.attempted)
      .count("records", r.outcome.records)
      .hex("digest", r.outcome.digest)
      .hex("rules_hash", rules)
      .num("effective", r.outcome.effective)
      .count("dropped", r.outcome.dropped)
      .flag("decoded_ok", r.outcome.decoded_ok);
}

/// Set-up, the campaign (run_campaign or the traced copy), and
/// post-processing; only the three timed phases are measured.
Rep run_rep(const Params& params, TracedLedger* ledger) {
  Rep r;
  r.prep = prepare(params);
  const auto t = Clock::now();
  const double cpu0 = cpu_seconds();
  r.result = ledger != nullptr ? run_traced_campaign(r.prep.cfg, *ledger)
                               : xentry::fault::run_campaign(r.prep.cfg);
  r.cpu_s = cpu_seconds() - cpu0;
  r.campaign_s = seconds_since(t);
  const auto tp = Clock::now();
  r.post = post_process(r.prep, r.result);
  r.post_s = seconds_since(tp);
  r.outcome = summarize(r.prep, r.result);
  return r;
}

void print_traced(const Rep& r, const TracedLedger& lg) {
  Line line("traced");
  add_rep_fields(line, r);
  const double campaign = lg.wall_s - lg.side_s;
  const double total = r.prep.setup_s + r.campaign_s + r.post_s;
  const auto ph = [&](Phase p) { return lg.phase_s[p]; };
  const auto frac = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  const double shard_max =
      lg.shard_s.empty() ? 0.0
                         : *std::max_element(lg.shard_s.begin(), lg.shard_s.end());
  const double shard_median = median(lg.shard_s);
  const std::uint64_t faulted = lg.faulted_us.size();
  const auto det = [&](Technique t) {
    return r.outcome.detected[static_cast<std::size_t>(t)];
  };
  line.num("traced_injections_per_s", frac(static_cast<double>(r.outcome.records), campaign))
      .num("fault.faulted_run_s", ph(kFaulted))
      .count("fault.faulted_runs", faulted)
      .num("fault.faulted_run_us_p50", percentile(lg.faulted_us, 0.50))
      .num("fault.faulted_run_us_p99", percentile(lg.faulted_us, 0.99))
      .num("fault.golden_probe_s", ph(kProbe))
      .count("hv.golden_steps", lg.golden_steps)
      .num("hv.golden_steps_per_s", frac(static_cast<double>(lg.golden_steps), ph(kProbe)))
      .num("fault.advance_s", ph(kAdvance))
      .num("fault.draw_s", ph(kDraw))
      .num("workloads.next_s", ph(kNext))
      .num("fault.digest_s", ph(kDigest))
      .num("fault.record_s", ph(kRecord))
      .num("fault.init_s", ph(kInit) + ph(kShardInit))
      .num("fault.analytic_frac", frac(static_cast<double>(lg.analytic_slots),
                                       static_cast<double>(lg.slots)))
      .num("fault.effective_per_record", frac(r.outcome.effective,
                                              static_cast<double>(r.outcome.records)))
      .num("obs.encode_frac", frac(ph(kEncode), campaign))
      .num("obs.sink_append_frac", frac(ph(kAppend), campaign))
      .num("obs.sink_flush_frac", frac(ph(kFlush), campaign))
      .num("obs.checkpoint_frac", frac(ph(kCheckpoint), campaign))
      .count("obs.bytes_written", lg.bytes_written)
      .count("obs.checkpoints", lg.checkpoints)
      .count("obs.journal_bytes", lg.journal_bytes)
      .num("fault.shard_s_max", shard_max)
      .num("fault.shard_imbalance", frac(shard_max, shard_median))
      .num("fault.merge_s", ph(kMerge))
      .num("ml.train_frac", frac(r.prep.times.ml_train_s + r.post.ml_train_s, total))
      .count("ml.train_samples", r.prep.times.ml_train_samples + r.post.ml_train_samples)
      .count("ml.rules", r.prep.times.ml_rules + r.post.ml_rules)
      .num("analysis.analyze_s", r.prep.times.analyze_s)
      .num("hv.build_s", r.prep.times.hv_build_s)
      .num("xentry.observe_overhead_us",
           frac((lg.side_observe_s - lg.side_run_s) * 1e6,
                static_cast<double>(lg.side_samples)))
      .num("sim.steps_per_s", frac(static_cast<double>(lg.side_steps), lg.side_run_s))
      .count("xentry.side_samples", lg.side_samples)
      .count("xentry.detected.hw_exception", det(Technique::HardwareException))
      .count("xentry.detected.assertion", det(Technique::SoftwareAssertion))
      .count("xentry.detected.transition", det(Technique::VmTransition))
      .count("xentry.detected.control_flow", det(Technique::ControlFlow))
      .count("xentry.detected.timing", det(Technique::Timing))
      .num("fault.unaccounted_frac", 1.0 - frac(lg.covered_s, campaign));
  line.print();
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "campaign_bench: %s\nusage: campaign_bench --mode "
               "oracle|timed|traced --workload detect_full|sampled_stream|"
               "train_2shard --seed N [--seconds S] [--out-dir DIR] "
               "[--trace-out FILE]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode, trace_out;
  Params params;
  bool have_workload = false, have_seed = false;
  double seconds = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--mode") {
      mode = v;
    } else if (a == "--workload") {
      const auto w = workload_from_name(v);
      if (!w) usage(("unknown workload " + v).c_str());
      params.workload = *w;
      have_workload = true;
    } else if (a == "--seed") {
      params.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || !(seconds >= 0)) usage("bad --seconds");
    } else if (a == "--out-dir") {
      params.out_dir = v;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  if (mode != "oracle" && mode != "timed" && mode != "traced") usage("bad --mode");

  try {
    if (mode == "oracle") {
      params.engine = xentry::sim::EngineKind::Reference;
      const Rep r = run_rep(params, nullptr);
      Line line("oracle");
      add_rep_fields(line, r);
      line.print();
      return 0;
    }
    const auto t0 = Clock::now();
    TracedLedger ledger;
    bool traced_turn = false;
    do {
      if (mode == "traced" && traced_turn) {
        const Rep r = run_rep(params, &ledger);
        print_traced(r, ledger);
      } else {
        const Rep r = run_rep(params, nullptr);
        Line line("rep");
        add_rep_fields(line, r);
        line.print();
      }
      traced_turn = !traced_turn;
      // A traced run ends after a traced rep, so both kinds are present.
    } while (seconds_since(t0) < seconds || (mode == "traced" && traced_turn));
    if (!trace_out.empty() && !write_chrome_trace(ledger, trace_out)) {
      std::fprintf(stderr, "campaign_bench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    Line("process").num("peak_rss_mb", peak_rss_mb()).print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
