// Campaign checkpoint journal: resumable injection campaigns.
//
// Every K completed loop iterations, a shard persists everything needed
// to continue the campaign bit-identically after a kill: its three RNG
// cursors (workload generator, main draw stream, importance-sampler aux
// stream), the golden machine image (memory words + TSC — the faulty
// machine realigns from the golden probe every injection, so only golden
// state matters), the running record digest and effective-injection
// accumulator, and the durable offsets of its record sink and metrics
// sidecar streams.
//
// Kill-safety protocol, per checkpoint, in order:
//   1. flush the shard's record sink (records become durable),
//   2. write + flush a metrics snapshot delta to the sidecar,
//   3. append one journal line (the commit point).
// A kill between any two steps leaves a journal whose last line points at
// durable prefixes of both streams; resume truncates the streams to the
// journaled offsets, so torn tails vanish and the rewritten suffix is
// byte-identical to the uninterrupted run's.
//
// The journal itself is JSONL: a header line (the campaign's identity —
// resuming under a different config is an error, not a silent divergence)
// followed by checkpoint lines from all shards interleaved in completion
// order.  The reader takes each shard's last intact line; a torn final
// line is expected input, not corruption.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "hv/machine.hpp"

namespace xentry::fault {

/// The campaign identity a journal is bound to.  Resume requires an
/// exact match: any of these changing would silently produce a record
/// stream from a different campaign.
struct CheckpointHeader {
  std::uint64_t seed = 0;
  int injections = 0;
  int shards = 0;
  double activation_bias = 0.5;
  int warmup_activations = 0;
  int stream_gap = 0;
  bool importance = false;
  int checkpoint_every = 0;
  std::uint8_t records_format = 0;
  /// Work-unit identity (CampaignConfig::fleet): the subset of the
  /// `shards` unit space this journal's campaign runs.  Empty means "all
  /// shards".  Resuming under a different unit assignment would splice
  /// streams from two different partitions, so the assignment is part
  /// of the resume identity.
  std::vector<int> units;

  friend bool operator==(const CheckpointHeader&,
                         const CheckpointHeader&) = default;
};

/// One shard's resume state at a checkpoint boundary ("about to start
/// loop iteration `iterations`").
struct ShardCheckpoint {
  int shard = -1;
  std::uint64_t iterations = 0;       ///< loop iterations completed
  std::uint64_t records_written = 0;  ///< records emitted (non-degenerate)
  std::uint64_t digest = 0;           ///< running digest of those records
  double effective = 0.0;             ///< sum of 1/weight so far
  std::uint64_t sink_offset = 0;      ///< durable record-sink bytes
  std::uint64_t snap_offset = 0;      ///< durable metrics-sidecar bytes
  std::uint64_t snap_count = 0;       ///< snapshots written (writer seq)
  std::uint64_t forensics_counter = 0;
  std::uint64_t activations_generated = 0;
  std::string gen_rng;   ///< mt19937_64 textual state (workload stream)
  std::string main_rng;  ///< mt19937_64 textual state (draw stream)
  std::string aux_rng;   ///< sampler aux stream; empty without importance
  std::uint64_t tsc = 0;
  /// Golden machine memory, one word vector per mapped region.
  std::vector<std::vector<std::uint64_t>> memory;
};

/// Append-only journal writer shared by all shards (mutex-serialized
/// line appends, flushed per line so the commit point is durable).
class CheckpointJournal {
 public:
  /// Creates/truncates `path` and writes the header line.
  static std::unique_ptr<CheckpointJournal> create(
      const std::string& path, const CheckpointHeader& header);

  /// Opens an existing journal for appending (resume path; the header is
  /// already on disk).  Returns nullptr when the file cannot be opened.
  static std::unique_ptr<CheckpointJournal> append_to(const std::string& path);

  ~CheckpointJournal();
  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  /// Appends one checkpoint line and flushes it.
  void append(const ShardCheckpoint& ckpt);

  bool ok() const { return file_ != nullptr && !failed_; }

 private:
  CheckpointJournal() = default;

  std::mutex mu_;
  std::FILE* file_ = nullptr;
  bool failed_ = false;
};

/// Parsed journal state: the header plus each shard's latest intact
/// checkpoint line (nullopt for shards that never checkpointed).
struct JournalContents {
  bool valid = false;  ///< file existed and carried a parseable header
  CheckpointHeader header;
  std::vector<std::optional<ShardCheckpoint>> shards;  ///< size = header.shards
};

/// Reads a journal, tolerating a torn final line.  `valid` is false when
/// the file is missing or its header does not parse.
JournalContents read_journal(const std::string& path);

/// Path of one shard's metrics-snapshot sidecar stream, derived from the
/// journal path: `<checkpoint_path>.shard<N>.snap.jsonl`.
std::string snapshot_sidecar_path(std::string_view checkpoint_path, int shard);

/// Captures the machine's resumable state (memory words + TSC) into `out`.
void capture_machine(const hv::Machine& machine, ShardCheckpoint& out);

/// Restores a machine from checkpointed state.  Throws std::runtime_error
/// when the region shapes do not match the machine's mapping (a journal
/// from a different machine configuration).
void restore_machine(hv::Machine& machine, const ShardCheckpoint& ckpt);

/// mt19937_64 state round-trip (textual, the stream-operator encoding).
std::string rng_state_string(const std::mt19937_64& rng);
bool rng_state_from_string(std::mt19937_64& rng, const std::string& state);

}  // namespace xentry::fault
