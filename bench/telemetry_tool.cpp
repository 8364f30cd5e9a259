// Telemetry stream toolbox: merge / verify / tail over persisted
// campaign record streams and metrics-snapshot sidecars.
//
// A large study runs as many independent workers (one micro_campaign
// --records-out each, possibly on different hosts); each worker leaves
// per-shard record streams and, when checkpointed, metrics sidecars.
// This tool is the read side of that pipeline:
//
//   merge   fold any number of workers' streams into one report —
//           record counts, the exact reweighted rates (WeightedRates
//           merges by field-wise sum, so the merged rates equal the
//           rates of the concatenated streams), coverage breakdown, and
//           the merged metrics registry from the snapshot sidecars.
//   verify  check a stream against its checkpoint journal: every
//           journaled shard's record count and running digest must match
//           what the persisted frames decode to, and the whole stream
//           must decode cleanly.  Optionally pin the full-stream digest
//           against a known value (--digest, e.g. micro_campaign's
//           records_digest output).  Non-zero exit on any mismatch —
//           CI's kill/resume smoke runs this.
//   tail    decode the stream and print the last N records as JSONL
//           (whatever the on-disk format), for eyeballing a campaign.
//
// Shard discovery probes `<base>.shard<N>.<ext>` from N = 0 upward; the
// first missing index ends the worker.  Streams are read in shard order,
// which is the campaign's deterministic merge order.
//
// Usage:
//   telemetry_tool merge  --records BASE [--records BASE ...]
//                         [--format jsonl|bin] [--snapshots FILE ...]
//                         [-o REPORT.json]
//   telemetry_tool verify --records BASE [--format jsonl|bin]
//                         [--checkpoint JOURNAL] [--digest HEX16]
//   telemetry_tool tail   --records BASE [--format jsonl|bin] [-n N]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/record_io.hpp"
#include "fault/stats.hpp"
#include "obs/record_sink.hpp"
#include "obs/snapshot.hpp"

namespace {

using namespace xentry;

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// One worker's persisted stream: per-shard raw bytes, in shard order.
struct WorkerStream {
  std::string base;
  std::vector<std::string> shard_data;
};

std::optional<WorkerStream> load_worker(const std::string& base,
                                        obs::RecordFormat fmt) {
  WorkerStream w;
  w.base = base;
  for (std::size_t shard = 0;; ++shard) {
    auto data =
        read_file(obs::ShardedFileSink::shard_path(base, fmt, shard));
    if (!data.has_value()) break;
    w.shard_data.push_back(std::move(*data));
  }
  if (w.shard_data.empty()) {
    std::fprintf(stderr, "telemetry_tool: no shard files found for '%s'\n",
                 base.c_str());
    return std::nullopt;
  }
  return w;
}

struct Flags {
  std::vector<std::string> records;
  std::vector<std::string> snapshots;
  obs::RecordFormat format = obs::RecordFormat::kJsonl;
  std::string checkpoint;
  std::string out;
  std::optional<std::uint64_t> digest;
  int tail_n = 10;
  bool ok = true;
};

Flags parse_flags(int argc, char** argv, int first) {
  Flags f;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "telemetry_tool: %s needs a value\n",
                     arg.c_str());
        f.ok = false;
        return "";
      }
      return argv[++i];
    };
    if (arg == "--records") {
      f.records.emplace_back(value());
    } else if (arg == "--snapshots") {
      f.snapshots.emplace_back(value());
    } else if (arg == "--checkpoint") {
      f.checkpoint = value();
    } else if (arg == "-o" || arg == "--out") {
      f.out = value();
    } else if (arg == "-n") {
      f.tail_n = std::atoi(value());
    } else if (arg == "--digest") {
      f.digest = std::strtoull(value(), nullptr, 16);
    } else if (arg == "--format") {
      const auto fmt = obs::record_format_from_name(value());
      if (!fmt.has_value()) {
        std::fprintf(stderr,
                     "telemetry_tool: unknown --format (want jsonl|bin)\n");
        f.ok = false;
      } else {
        f.format = *fmt;
      }
    } else {
      std::fprintf(stderr, "telemetry_tool: unknown argument '%s'\n",
                   arg.c_str());
      f.ok = false;
    }
  }
  if (f.records.empty()) {
    std::fprintf(stderr, "telemetry_tool: at least one --records BASE "
                         "is required\n");
    f.ok = false;
  }
  return f;
}

int cmd_merge(const Flags& f) {
  std::size_t total_records = 0, total_shards = 0;
  fault::WeightedRates rates;
  std::vector<fault::InjectionRecord> all;
  std::vector<std::pair<std::string, std::uint64_t>> worker_digests;
  for (const std::string& base : f.records) {
    const auto w = load_worker(base, f.format);
    if (!w.has_value()) return 1;
    std::vector<fault::InjectionRecord> records;
    for (const std::string& data : w->shard_data) {
      if (!fault::decode_records(data, f.format, records)) {
        std::fprintf(stderr,
                     "telemetry_tool: undecodable trailing bytes in a "
                     "shard stream of '%s'\n",
                     base.c_str());
        return 1;
      }
    }
    total_shards += w->shard_data.size();
    total_records += records.size();
    worker_digests.emplace_back(base, fault::records_digest(records));
    // Rates merge by field-wise sum: the merged answer equals the rates
    // of the concatenated streams without holding all workers at once.
    rates.merge_from(fault::weighted_rates(records));
    all.insert(all.end(), std::make_move_iterator(records.begin()),
               std::make_move_iterator(records.end()));
  }
  const fault::CoverageBreakdown cov = fault::coverage_breakdown(all);

  obs::MetricsRegistry metrics;
  for (const std::string& path : f.snapshots) {
    const auto text = read_file(path);
    if (!text.has_value()) {
      std::fprintf(stderr, "telemetry_tool: cannot read snapshots '%s'\n",
                   path.c_str());
      return 1;
    }
    metrics.merge_from(obs::merge_snapshots(obs::read_snapshots(*text)));
  }

  std::FILE* os = stdout;
  if (!f.out.empty()) {
    os = std::fopen(f.out.c_str(), "w");
    if (os == nullptr) {
      std::fprintf(stderr, "telemetry_tool: cannot open '%s'\n",
                   f.out.c_str());
      return 1;
    }
  }
  std::fprintf(os,
               "{\n"
               "  \"tool\": \"telemetry_tool merge\",\n"
               "  \"workers\": %zu,\n"
               "  \"shards\": %zu,\n"
               "  \"records\": %zu,\n"
               "  \"worker_digests\": {",
               f.records.size(), total_shards, total_records);
  for (std::size_t i = 0; i < worker_digests.size(); ++i) {
    std::fprintf(os, "%s\n    \"%s\": \"%016" PRIx64 "\"",
                 i == 0 ? "" : ",", worker_digests[i].first.c_str(),
                 worker_digests[i].second);
  }
  std::fprintf(os,
               "\n  },\n"
               "  \"effective_injections\": %.1f,\n"
               "  \"weighted_masked_rate\": %.6f,\n"
               "  \"weighted_sdc_rate\": %.6f,\n"
               "  \"weighted_crash_rate\": %.6f,\n"
               "  \"weighted_manifested_rate\": %.6f,\n"
               "  \"weighted_detected_rate\": %.6f,\n"
               "  \"manifested\": %zu,\n"
               "  \"detected_coverage\": %.6f,\n"
               "  \"undetected\": %zu,\n",
               rates.effective_injections,
               rates.rate(fault::Consequence::Masked),
               rates.rate(fault::Consequence::AppSdc),
               rates.rate(fault::Consequence::AppCrash),
               rates.manifested_rate(), rates.detected_rate(),
               cov.manifested, cov.coverage(), cov.undetected);
  if (!f.snapshots.empty()) {
    // The merged registry as nested JSON (counters/gauges/histograms).
    std::ostringstream mjson;
    metrics.write_json(mjson);
    std::fprintf(os, "  \"metrics\": %s,\n", mjson.str().c_str());
  }
  std::fprintf(os, "  \"snapshot_streams\": %zu\n}\n", f.snapshots.size());
  if (os != stdout) std::fclose(os);
  return 0;
}

int cmd_verify(const Flags& f) {
  if (f.records.size() != 1) {
    std::fprintf(stderr,
                 "telemetry_tool: verify takes exactly one --records BASE "
                 "(the journal is per campaign)\n");
    return 2;
  }
  const auto w = load_worker(f.records[0], f.format);
  if (!w.has_value()) return 1;

  bool ok = true;
  std::uint64_t full_digest = fault::kDigestBasis;
  std::size_t total = 0;
  std::vector<std::vector<fault::InjectionRecord>> per_shard(
      w->shard_data.size());
  for (std::size_t s = 0; s < w->shard_data.size(); ++s) {
    if (!fault::decode_records(w->shard_data[s], f.format, per_shard[s])) {
      std::fprintf(stderr,
                   "FAIL: shard %zu has undecodable trailing bytes\n", s);
      ok = false;
    }
    for (const fault::InjectionRecord& r : per_shard[s]) {
      full_digest = fault::digest_update(full_digest, r);
    }
    total += per_shard[s].size();
  }

  if (!f.checkpoint.empty()) {
    const fault::JournalContents journal = fault::read_journal(f.checkpoint);
    if (!journal.valid) {
      std::fprintf(stderr, "FAIL: no parseable journal at '%s'\n",
                   f.checkpoint.c_str());
      ok = false;
    } else {
      if (journal.shards.size() != w->shard_data.size()) {
        std::fprintf(stderr,
                     "FAIL: journal expects %zu shards, found %zu stream "
                     "files\n",
                     journal.shards.size(), w->shard_data.size());
        ok = false;
      }
      const std::size_t n =
          std::min(journal.shards.size(), w->shard_data.size());
      for (std::size_t s = 0; s < n; ++s) {
        if (!journal.shards[s].has_value()) continue;  // never checkpointed
        const fault::ShardCheckpoint& ck = *journal.shards[s];
        if (per_shard[s].size() < ck.records_written) {
          std::fprintf(stderr,
                       "FAIL: shard %zu holds %zu records, journal says "
                       ">= %" PRIu64 "\n",
                       s, per_shard[s].size(), ck.records_written);
          ok = false;
          continue;
        }
        // The journaled digest covers the first records_written records —
        // frames past it are post-checkpoint (rewritten on resume).
        std::uint64_t h = fault::kDigestBasis;
        for (std::uint64_t i = 0; i < ck.records_written; ++i) {
          h = fault::digest_update(h, per_shard[s][i]);
        }
        if (h != ck.digest) {
          std::fprintf(stderr,
                       "FAIL: shard %zu digest %016" PRIx64
                       " != journaled %016" PRIx64 "\n",
                       s, h, ck.digest);
          ok = false;
        }
      }
      // Sink backpressure audit: the metrics sidecars next to the
      // journal carry the writer's own obs.sink.* counters.  A nonzero
      // drop count means frames never reached the stream, so a clean
      // digest over what DID land would be a hollow verification.
      // Missing sidecars are fine (metrics off, or units run by another
      // partitioned campaign).
      obs::MetricsRegistry side;
      for (std::size_t s = 0; s < journal.shards.size(); ++s) {
        const auto text =
            read_file(fault::snapshot_sidecar_path(f.checkpoint,
                                                   static_cast<int>(s)));
        if (!text.has_value() || text->empty()) continue;
        side.merge_from(obs::merge_snapshots(obs::read_snapshots(*text)));
      }
      if (const obs::Counter* dropped = side.find_counter("obs.sink.dropped");
          dropped != nullptr && dropped->value() > 0) {
        std::fprintf(stderr,
                     "FAIL: metrics sidecars report %" PRIu64
                     " dropped record-sink frame(s) — the persisted stream "
                     "is incomplete (write-time backpressure or I/O "
                     "failure), so this campaign's records cannot be "
                     "trusted as complete\n",
                     dropped->value());
        ok = false;
      }
    }
  }
  if (f.digest.has_value() && full_digest != *f.digest) {
    std::fprintf(stderr,
                 "FAIL: stream digest %016" PRIx64 " != expected %016" PRIx64
                 "\n",
                 full_digest, *f.digest);
    ok = false;
  }

  std::printf(
      "{\n"
      "  \"tool\": \"telemetry_tool verify\",\n"
      "  \"shards\": %zu,\n"
      "  \"records\": %zu,\n"
      "  \"records_digest\": \"%016" PRIx64 "\",\n"
      "  \"ok\": %s\n"
      "}\n",
      w->shard_data.size(), total, full_digest, ok ? "true" : "false");
  return ok ? 0 : 1;
}

int cmd_tail(const Flags& f) {
  if (f.records.size() != 1) {
    std::fprintf(stderr, "telemetry_tool: tail takes one --records BASE\n");
    return 2;
  }
  const auto w = load_worker(f.records[0], f.format);
  if (!w.has_value()) return 1;
  std::vector<fault::InjectionRecord> records;
  for (const std::string& data : w->shard_data) {
    fault::decode_records(data, f.format, records);
  }
  const std::size_t n =
      f.tail_n > 0 ? static_cast<std::size_t>(f.tail_n) : 10;
  const std::size_t first = records.size() > n ? records.size() - n : 0;
  std::string line;
  for (std::size_t i = first; i < records.size(); ++i) {
    line.clear();
    fault::encode_record(records[i], obs::RecordFormat::kJsonl, line);
    std::fputs(line.c_str(), stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: telemetry_tool merge|verify|tail [flags]\n"
                 "  merge  --records BASE [--records BASE ...] "
                 "[--format jsonl|bin] [--snapshots FILE ...] [-o FILE]\n"
                 "  verify --records BASE [--format jsonl|bin] "
                 "[--checkpoint JOURNAL] [--digest HEX16]\n"
                 "  tail   --records BASE [--format jsonl|bin] [-n N]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Flags f = parse_flags(argc, argv, 2);
  if (!f.ok) return 2;
  if (cmd == "merge") return cmd_merge(f);
  if (cmd == "verify") return cmd_verify(f);
  if (cmd == "tail") return cmd_tail(f);
  std::fprintf(stderr, "telemetry_tool: unknown command '%s'\n", cmd.c_str());
  return 2;
}
