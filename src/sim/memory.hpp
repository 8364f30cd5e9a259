// Physical memory of the simulated machine.
//
// Memory is a set of mapped regions over a 64-bit word-address space.  Any
// access outside a mapped region raises #PF; a write to a read-only region
// raises #GP.  The sparseness is deliberate: a single bit flip in a pointer
// register usually lands far outside every region, which is exactly how
// soft errors manifest as "fatal system corruptions" the paper's runtime
// detection catches via hardware exceptions (Section III-A).
//
// Snapshot/restore is the fault-campaign hot path: every injection
// round-trips machine state.  Two mechanisms keep that cheap without
// changing observable contents:
//   - every region carries a generation counter bumped on each mutation,
//     and every 64-word block of it records the generation of its last
//     mutation, so snapshot capture and restore copy only the blocks that
//     provably changed since the last capture/sync (see Snapshot);
//   - read/write cache the last-hit region index, since straight-line
//     code touches the same region on almost every consecutive access;
//     every other lookup (the engines' software-TLB refills, the host-side
//     poke/peek/poke_span) is one load from a page-to-region byte table.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace xentry::sim {

enum class Perm : std::uint8_t {
  Read = 1,
  ReadWrite = 3,
};

/// One word that differs between two Memories with identical mappings:
/// the compact (location, xor-mask) element of a corruption set.  The
/// forensics replay engine diffs golden/faulty state at every lockstep
/// checkpoint, so the representation carries no values — just where and
/// which bits.
struct WordDiff {
  Addr addr = 0;
  Word xor_mask = 0;  ///< a ^ b at `addr`; never zero
};

class Memory {
 public:
  /// log2 of the block size (in words) that generations are tracked at.
  static constexpr unsigned kBlockShift = 6;

  struct Region {
    Addr base = 0;
    Addr size = 0;  ///< in words
    Perm perm = Perm::ReadWrite;
    std::string name;
    std::vector<Word> data;
    /// Mutation generation: bumped on every write/poke/restore-copy/clear.
    /// Equal generations between two points in time prove the contents
    /// did not change in between (the converse need not hold).
    std::uint64_t gen = 0;
    /// Per block of 2^kBlockShift words: the generation of the block's
    /// last mutation.  Every mutation after a point at which the region
    /// stood at generation G stamps a value above G, so a block stamped
    /// at or below G is unchanged since that point.
    std::vector<std::uint64_t> block_gen;

    bool contains(Addr a) const { return a >= base && a - base < size; }
    /// Stores `v` at offset `off` and stamps its block with a fresh
    /// generation.
    void store(Addr off, Word v) {
      data[off] = v;
      block_gen[off >> kBlockShift] = ++gen;
    }
  };

  /// A copy of all region contents, tagged with the source Memory's
  /// identity and per-region and per-block generations so a later restore
  /// (or re-capture via snapshot_into) can prove which blocks are already
  /// up to date and skip them.  Equality compares contents only.
  struct Snapshot {
    struct RegionImage {
      std::vector<Word> data;
      std::uint64_t gen = 0;
      std::vector<std::uint64_t> block_gen;  ///< the source's, at capture
    };
    std::uint64_t source_id = 0;  ///< Memory instance captured from (0: none)
    std::vector<RegionImage> regions;

    bool empty() const { return regions.empty(); }
    friend bool operator==(const Snapshot& a, const Snapshot& b) {
      if (a.regions.size() != b.regions.size()) return false;
      for (std::size_t i = 0; i < a.regions.size(); ++i) {
        if (a.regions[i].data != b.regions[i].data) return false;
      }
      return true;
    }
  };

  Memory();
  /// Copies share contents but get a fresh identity: snapshots taken from
  /// the copy must never be mistaken for snapshots of the original once
  /// the two diverge.
  Memory(const Memory& other);
  Memory& operator=(const Memory& other);
  Memory(Memory&&) = default;
  Memory& operator=(Memory&&) = default;

  /// log2 of the page size (in words) of the region lookup table.
  static constexpr unsigned kPageShift = 12;

  /// Maps a region.  Regions must not overlap; they are kept sorted by base.
  /// Returns the region index, which stays stable until the next map().
  /// Rebuilds the page-to-region lookup table.
  std::size_t map(Addr base, Addr size, Perm perm, std::string name);

  /// Reads the word at `a` into `out`.  Returns a Trap (kind None on
  /// success).  No C++ exceptions: this is the simulator hot path.
  /// The last-two-hit-regions fast path lives here so call sites inline
  /// it; two entries cover the common stack/data alternation of handler
  /// code, which a single hint would thrash on.
  Trap read(Addr a, Word& out) const {
    if (hint_ < regions_.size()) {
      const Region& r = regions_[hint_];
      if (r.contains(a)) {
        out = r.data[a - r.base];
        return {};
      }
    }
    if (hint2_ < regions_.size()) {
      const Region& r = regions_[hint2_];
      if (r.contains(a)) {
        out = r.data[a - r.base];
        return {};
      }
    }
    return read_slow(a, out);
  }

  /// Writes `v` at `a`.  Returns a Trap (kind None on success).
  Trap write(Addr a, Word v) {
    if (hint_ < regions_.size()) {
      Region& r = regions_[hint_];
      if (r.contains(a) && r.perm == Perm::ReadWrite) {
        r.store(a - r.base, v);
        return {};
      }
    }
    if (hint2_ < regions_.size()) {
      Region& r = regions_[hint2_];
      if (r.contains(a) && r.perm == Perm::ReadWrite) {
        r.store(a - r.base, v);
        return {};
      }
    }
    return write_slow(a, v);
  }

  /// Unchecked accessors for host-side (non-simulated) setup and
  /// inspection.  Aborts if `a` is unmapped — programming error, not a
  /// simulated fault.
  Word peek(Addr a) const {
    if (hint_ < regions_.size() && regions_[hint_].contains(a)) {
      const Region& r = regions_[hint_];
      return r.data[a - r.base];
    }
    return peek_slow(a);
  }
  void poke(Addr a, Word v) {
    if (hint_ < regions_.size() && regions_[hint_].contains(a)) {
      Region& r = regions_[hint_];
      r.store(a - r.base, v);
      return;
    }
    poke_slow(a, v);
  }

  /// Direct mutable view of `len` words starting at `a`, for host-side
  /// bulk setup (one region lookup and one generation bump instead of one
  /// per word; every block the range overlaps is stamped).  Aborts if the
  /// range is not fully inside one mapped region — programming error, not
  /// a simulated fault.
  Word* poke_span(Addr a, Addr len);

  /// Raw view of one mapped region, for the execution engines' software
  /// TLB: a flat {base, size, data, writable} the hot loop can keep in
  /// registers so a hit is one compare and one load, skipping the region
  /// vector walk.  `gen` lets the engine bump the mutation generation
  /// itself — exactly once per write-install, before any raw store goes
  /// through the view — and every raw store then stamps that install
  /// generation into `block_gen[offset >> kBlockShift]`.  That preserves
  /// the generation contract (a block stamped at or below the region
  /// generation of a capture/sync is unchanged since it) because
  /// snapshot/restore never run while an engine holds a view, so every
  /// install generation postdates them.  Views are invalidated by map();
  /// engines hold them only within one run call.
  struct DirectSpan {
    Addr base = 0;
    Addr size = 0;  ///< 0: no mapped region at the probed address
    Word* data = nullptr;
    std::uint64_t* gen = nullptr;
    std::uint64_t* block_gen = nullptr;
    bool writable = false;
  };
  DirectSpan direct_span(Addr a);

  /// Fills `out` with one WordDiff per word whose contents differ from
  /// `other`, in ascending address order, and returns the diff count.
  /// `other` must have identical region mappings (same map() calls).
  /// Regions whose contents compare equal are skipped via one memcmp, so
  /// the common nearly-converged comparison touches no per-word loop.
  /// `out` is cleared first and reused — the lockstep replay calls this
  /// once per checkpoint and must not reallocate per call.
  std::size_t diff_spans(const Memory& other, std::vector<WordDiff>& out) const;

  /// True when any mapped word differs from `other` (identical mappings
  /// required).  The existence-only form of diff_spans: one memcmp per
  /// region, early exit on the first mismatch — the lockstep divergence
  /// predicate evaluates this every chunk boundary.
  bool differs_from(const Memory& other) const;

  bool is_mapped(Addr a) const { return find(a) != nullptr; }
  const Region* region_at(Addr a) const { return find(a); }
  const std::vector<Region>& regions() const { return regions_; }

  /// Snapshot of all region contents, for golden-run comparison and for
  /// re-running a faulted activation from a clean state.
  Snapshot snapshot() const;

  /// Like snapshot(), but reuses `out`'s buffers and copies only the
  /// blocks whose generation differs from the one `out` holds (a region
  /// whose generation matches is skipped whole).  The campaign loop
  /// re-captures the same Snapshot object every injection; only blocks
  /// the activations since the last capture wrote get re-copied.  Returns
  /// the number of words copied.
  std::size_t snapshot_into(Snapshot& out) const;

  /// Restores contents from `snap`.  Incremental: a block is copied back
  /// only if it was mutated since the last sync with `snap`'s source, or
  /// if the source's copy of it differs from the one synced then — blocks
  /// untouched on both sides are provably identical and skipped (and a
  /// region untouched on both sides is skipped whole).  Returns the number
  /// of words copied.
  std::size_t restore(const Snapshot& snap);

  /// Zero-fills every mapped region.
  void clear();

  /// Change tracking against `snap`, for diffs that only need to look
  /// where something was written.  False proves that region `i` (or its
  /// block `b`) holds `snap`'s contents; true means it may not.  The
  /// answer is precise in two cases: `snap` was captured from this memory
  /// (a block whose generation equals the image's is unchanged since the
  /// capture), or this memory was last restored from `snap` (a block
  /// stamped at or below the generation the restore left is unchanged
  /// since).  In any other case everything may differ.
  bool region_may_differ(const Snapshot& snap, std::size_t i) const {
    if (snap.source_id == id_) return regions_[i].gen != snap.regions[i].gen;
    const SyncState* s = synced_to(snap, i);
    return s == nullptr || regions_[i].gen != s->own_gen;
  }
  bool block_may_differ(const Snapshot& snap, std::size_t i,
                        std::size_t b) const {
    if (snap.source_id == id_) {
      return regions_[i].block_gen[b] != snap.regions[i].block_gen[b];
    }
    const SyncState* s = synced_to(snap, i);
    return s == nullptr || regions_[i].block_gen[b] > s->own_gen;
  }

 private:
  /// Per-region record of the last restore: which source snapshot state
  /// this region was synced to, and our own generation right after.  A
  /// block is still in sync with a snapshot of the same source when the
  /// snapshot's block generation equals `source_block_gen` and our own
  /// block generation is at most `own_gen`.
  struct SyncState {
    std::uint64_t source_id = 0;   ///< 0: never synced
    std::uint64_t source_gen = 0;
    std::uint64_t own_gen = 0;
    std::vector<std::uint64_t> source_block_gen;
  };

  /// Page-table entries that are not a region index.
  static constexpr std::uint8_t kPageUnmapped = 0xff;
  static constexpr std::uint8_t kPageShared = 0xfe;  ///< binary search
  /// Pages covered by the table at most (1 MiB of entries): a region past
  /// it is found by binary search, like an address on a shared page.
  static constexpr Addr kMaxTablePages = Addr{1} << 20;

  /// Region `i`'s sync state when its last restore was from `snap`'s
  /// image of it (same source, same generation), else nullptr.
  const SyncState* synced_to(const Snapshot& snap, std::size_t i) const {
    const SyncState& s = sync_[i];
    return s.source_id != 0 && s.source_id == snap.source_id &&
                   s.source_gen == snap.regions[i].gen
               ? &s
               : nullptr;
  }
  void rebuild_page_table();
  const Region* find(Addr a) const;
  Region* find(Addr a);
  const Region* search(Addr a) const;
  Trap read_slow(Addr a, Word& out) const;
  Trap write_slow(Addr a, Word v);
  Word peek_slow(Addr a) const;
  void poke_slow(Addr a, Word v);

  std::vector<Region> regions_;  // sorted by base
  /// Page number -> index of the one region mapping words on that page,
  /// kPageUnmapped when none does, kPageShared when two do (or the index
  /// does not fit a byte).  Covers pages [0, size()).
  std::vector<std::uint8_t> page_region_;
  std::vector<SyncState> sync_;  // parallel to regions_
  std::uint64_t id_ = 0;         ///< unique per instance (and per copy)
  mutable std::size_t hint_ = 0;  ///< last-hit region index (locality cache)
  mutable std::size_t hint2_ = 0; ///< previous distinct hit (2-way cache)
};

}  // namespace xentry::sim
