#include "sim/memory.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <stdexcept>

namespace xentry::sim {

namespace {

// Campaign shards construct Machines (and thus Memories) concurrently.
std::uint64_t next_memory_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

constexpr Addr kBlockWords = Addr{1} << Memory::kBlockShift;

/// Copies block `b` of a region of `size` words from `src` to `dst` and
/// returns the number of words copied (the last block may be short).
std::size_t copy_block(const std::vector<Word>& src, std::vector<Word>& dst,
                       std::size_t b, Addr size) {
  const Addr lo = static_cast<Addr>(b) << Memory::kBlockShift;
  const Addr hi = std::min(lo + kBlockWords, size);
  std::copy(src.begin() + static_cast<std::ptrdiff_t>(lo),
            src.begin() + static_cast<std::ptrdiff_t>(hi),
            dst.begin() + static_cast<std::ptrdiff_t>(lo));
  return static_cast<std::size_t>(hi - lo);
}

}  // namespace

Memory::Memory() : id_(next_memory_id()) {}

Memory::Memory(const Memory& other)
    : regions_(other.regions_),
      page_region_(other.page_region_),
      sync_(other.sync_),
      id_(next_memory_id()),
      hint_(other.hint_),
      hint2_(other.hint2_) {}

Memory& Memory::operator=(const Memory& other) {
  if (this != &other) {
    regions_ = other.regions_;
    page_region_ = other.page_region_;
    sync_ = other.sync_;
    hint_ = other.hint_;
    hint2_ = other.hint2_;
    // Fresh identity: snapshots captured from the old contents must not
    // be mistaken for captures of the newly assigned contents.
    id_ = next_memory_id();
  }
  return *this;
}

std::size_t Memory::map(Addr base, Addr size, Perm perm, std::string name) {
  if (size == 0) throw std::invalid_argument("Memory::map: empty region");
  for (const Region& r : regions_) {
    const bool disjoint = base + size <= r.base || r.base + r.size <= base;
    if (!disjoint) {
      throw std::invalid_argument("Memory::map: region '" + name +
                                  "' overlaps '" + r.name + "'");
    }
  }
  Region region;
  region.base = base;
  region.size = size;
  region.perm = perm;
  region.name = std::move(name);
  region.data.assign(size, 0);
  region.block_gen.assign((size + kBlockWords - 1) >> kBlockShift, 0);
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), base,
      [](Addr b, const Region& r) { return b < r.base; });
  it = regions_.insert(it, std::move(region));
  const std::size_t idx = static_cast<std::size_t>(it - regions_.begin());
  sync_.insert(sync_.begin() + static_cast<std::ptrdiff_t>(idx), SyncState{});
  hint_ = idx;
  // The insert shifted the index of every region above the new one.
  rebuild_page_table();
  return idx;
}

void Memory::rebuild_page_table() {
  Addr pages = 0;
  for (const Region& r : regions_) {
    const Addr last_page = (r.base + (r.size - 1)) >> kPageShift;
    if (last_page < kMaxTablePages) pages = std::max(pages, last_page + 1);
  }
  page_region_.assign(static_cast<std::size_t>(pages), kPageUnmapped);
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const Region& r = regions_[i];
    const Addr first = r.base >> kPageShift;
    if (first >= pages) continue;  // past the table
    const Addr last = std::min((r.base + (r.size - 1)) >> kPageShift,
                               pages - 1);
    for (Addr p = first; p <= last; ++p) {
      std::uint8_t& e = page_region_[static_cast<std::size_t>(p)];
      e = e == kPageUnmapped && i < kPageShared ? static_cast<std::uint8_t>(i)
                                                : kPageShared;
    }
  }
}

const Memory::Region* Memory::search(Addr a) const {
  // Regions are sorted by base; find the last region with base <= a.
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), a,
      [](Addr x, const Region& r) { return x < r.base; });
  if (it == regions_.begin()) return nullptr;
  --it;
  return it->contains(a) ? &*it : nullptr;
}

const Memory::Region* Memory::find(Addr a) const {
  // An address past the table is searched like one on a shared page.
  const Addr page = a >> kPageShift;
  const std::uint8_t e = page < page_region_.size()
                             ? page_region_[static_cast<std::size_t>(page)]
                             : kPageShared;
  if (e == kPageUnmapped) return nullptr;
  const Region* r = e == kPageShared ? search(a) : &regions_[e];
  if (r == nullptr || !r->contains(a)) return nullptr;
  // Keep the inline read/write fast paths pointed at the recent regions.
  const std::size_t idx = static_cast<std::size_t>(r - regions_.data());
  if (idx != hint_) {
    hint2_ = hint_;
    hint_ = idx;
  }
  return r;
}

Memory::Region* Memory::find(Addr a) {
  return const_cast<Region*>(static_cast<const Memory*>(this)->find(a));
}

Trap Memory::read_slow(Addr a, Word& out) const {
  const Region* r = find(a);
  if (r == nullptr) return Trap{TrapKind::PageFault, a, 0};
  out = r->data[a - r->base];
  return {};
}

Trap Memory::write_slow(Addr a, Word v) {
  Region* r = find(a);
  if (r == nullptr) return Trap{TrapKind::PageFault, a, 0};
  if (r->perm != Perm::ReadWrite) {
    return Trap{TrapKind::GeneralProtection, a, 0};
  }
  r->store(a - r->base, v);
  return {};
}

Word Memory::peek_slow(Addr a) const {
  const Region* r = find(a);
  assert(r != nullptr && "peek of unmapped address");
  if (r == nullptr) std::abort();
  return r->data[a - r->base];
}

void Memory::poke_slow(Addr a, Word v) {
  Region* r = find(a);
  assert(r != nullptr && "poke of unmapped address");
  if (r == nullptr) std::abort();
  r->store(a - r->base, v);
}

Word* Memory::poke_span(Addr a, Addr len) {
  Region* r = find(a);
  assert(r != nullptr && "poke_span of unmapped address");
  if (r == nullptr || len == 0 || a - r->base + len > r->size) std::abort();
  const Addr off = a - r->base;
  const auto first = static_cast<std::ptrdiff_t>(off >> kBlockShift);
  const auto last = static_cast<std::ptrdiff_t>((off + len - 1) >> kBlockShift);
  std::fill(r->block_gen.begin() + first, r->block_gen.begin() + last + 1,
            ++r->gen);
  return &r->data[off];
}

Memory::DirectSpan Memory::direct_span(Addr a) {
  Region* r = find(a);
  DirectSpan s;
  if (r == nullptr) return s;
  s.base = r->base;
  s.size = r->size;
  s.data = r->data.data();
  s.gen = &r->gen;
  s.block_gen = r->block_gen.data();
  s.writable = r->perm == Perm::ReadWrite;
  return s;
}

Memory::Snapshot Memory::snapshot() const {
  Snapshot snap;
  snapshot_into(snap);
  return snap;
}

std::size_t Memory::snapshot_into(Snapshot& out) const {
  if (out.source_id != id_ || out.regions.size() != regions_.size()) {
    // Captured from another Memory (or never): nothing in `out` is reusable.
    out.regions.clear();
    out.regions.resize(regions_.size());
  }
  std::size_t copied = 0;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const Region& r = regions_[i];
    Snapshot::RegionImage& img = out.regions[i];
    if (img.data.size() != r.data.size()) {
      img.data = r.data;  // assign reuses existing capacity
      img.block_gen = r.block_gen;
      copied += r.data.size();
    } else if (img.gen != r.gen) {
      for (std::size_t b = 0; b < r.block_gen.size(); ++b) {
        if (img.block_gen[b] == r.block_gen[b]) continue;
        copied += copy_block(r.data, img.data, b, r.size);
        img.block_gen[b] = r.block_gen[b];
      }
    }
    img.gen = r.gen;
  }
  out.source_id = id_;
  return copied;
}

std::size_t Memory::restore(const Snapshot& snap) {
  assert(snap.regions.size() == regions_.size());
  std::size_t copied = 0;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    Region& r = regions_[i];
    SyncState& s = sync_[i];
    const Snapshot::RegionImage& img = snap.regions[i];
    assert(img.data.size() == r.data.size());
    const bool same_source = s.source_id != 0 && s.source_id == snap.source_id;
    if (same_source && s.source_gen == img.gen && s.own_gen == r.gen) {
      continue;  // untouched on both sides since the last sync
    }
    const std::uint64_t stamp = r.gen + 1;
    const std::size_t copied_before = copied;
    if (!same_source) {
      // Another source, or a foreign image (source_id 0) that carries no
      // block generations: copy the region whole.
      std::copy(img.data.begin(), img.data.end(), r.data.begin());
      std::fill(r.block_gen.begin(), r.block_gen.end(), stamp);
      s.source_block_gen = img.block_gen;
      copied += r.data.size();
    } else {
      assert(img.block_gen.size() == r.block_gen.size());
      for (std::size_t b = 0; b < r.block_gen.size(); ++b) {
        if (s.source_block_gen[b] == img.block_gen[b] &&
            r.block_gen[b] <= s.own_gen) {
          continue;  // untouched on both sides since the last sync
        }
        copied += copy_block(img.data, r.data, b, r.size);
        r.block_gen[b] = stamp;
        s.source_block_gen[b] = img.block_gen[b];
      }
    }
    if (copied != copied_before) r.gen = stamp;
    s.source_id = snap.source_id;
    s.source_gen = img.gen;
    s.own_gen = r.gen;
  }
  return copied;
}

std::size_t Memory::diff_spans(const Memory& other,
                               std::vector<WordDiff>& out) const {
  assert(other.regions_.size() == regions_.size());
  out.clear();
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const Region& a = regions_[i];
    const Region& b = other.regions_[i];
    assert(a.base == b.base && a.size == b.size);
    if (a.data == b.data) continue;  // memcmp gate: no diffs in this region
    for (Addr off = 0; off < a.size; ++off) {
      const Word x = a.data[off] ^ b.data[off];
      if (x != 0) out.push_back(WordDiff{a.base + off, x});
    }
  }
  return out.size();
}

bool Memory::differs_from(const Memory& other) const {
  assert(other.regions_.size() == regions_.size());
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].data != other.regions_[i].data) return true;
  }
  return false;
}

void Memory::clear() {
  for (Region& r : regions_) {
    std::fill(r.data.begin(), r.data.end(), 0);
    std::fill(r.block_gen.begin(), r.block_gen.end(), ++r.gen);
  }
}

}  // namespace xentry::sim
