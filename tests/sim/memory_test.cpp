#include "sim/memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/superblocks.hpp"
#include "sim/assembler.hpp"
#include "sim/cpu.hpp"
#include "sim/jit/compiled_program.hpp"

namespace xentry::sim {
namespace {

TEST(MemoryTest, MappedReadWriteRoundTrips) {
  Memory mem;
  mem.map(0x1000, 64, Perm::ReadWrite, "data");
  ASSERT_FALSE(mem.write(0x1000, 42));
  Word v = 0;
  ASSERT_FALSE(mem.read(0x1000, v));
  EXPECT_EQ(v, 42u);
}

TEST(MemoryTest, UnmappedReadFaults) {
  Memory mem;
  mem.map(0x1000, 64, Perm::ReadWrite, "data");
  Word v = 0;
  Trap t = mem.read(0x0fff, v);
  EXPECT_EQ(t.kind, TrapKind::PageFault);
  EXPECT_EQ(t.fault_addr, 0x0fffu);
  t = mem.read(0x1040, v);
  EXPECT_EQ(t.kind, TrapKind::PageFault);
}

TEST(MemoryTest, UnmappedWriteFaults) {
  Memory mem;
  mem.map(0x1000, 64, Perm::ReadWrite, "data");
  EXPECT_EQ(mem.write(0x2000, 1).kind, TrapKind::PageFault);
}

TEST(MemoryTest, ReadOnlyWriteRaisesGeneralProtection) {
  Memory mem;
  mem.map(0x1000, 16, Perm::Read, "rodata");
  EXPECT_EQ(mem.write(0x1005, 9).kind, TrapKind::GeneralProtection);
  Word v = 1;
  EXPECT_FALSE(mem.read(0x1005, v));
  EXPECT_EQ(v, 0u);
}

TEST(MemoryTest, OverlappingMapThrows) {
  Memory mem;
  mem.map(0x1000, 64, Perm::ReadWrite, "a");
  EXPECT_THROW(mem.map(0x103f, 2, Perm::ReadWrite, "b"),
               std::invalid_argument);
  EXPECT_THROW(mem.map(0x0fff, 2, Perm::ReadWrite, "c"),
               std::invalid_argument);
  // Adjacent is fine.
  EXPECT_NO_THROW(mem.map(0x1040, 4, Perm::ReadWrite, "d"));
  EXPECT_NO_THROW(mem.map(0x0ffe, 2, Perm::ReadWrite, "e"));
}

TEST(MemoryTest, EmptyRegionThrows) {
  Memory mem;
  EXPECT_THROW(mem.map(0x1000, 0, Perm::ReadWrite, "z"),
               std::invalid_argument);
}

TEST(MemoryTest, RegionLookupAcrossSeveralRegions) {
  Memory mem;
  mem.map(0x100, 16, Perm::ReadWrite, "lo");
  mem.map(0x10000, 16, Perm::ReadWrite, "mid");
  mem.map(0x8000000000000000ull, 16, Perm::ReadWrite, "hi");
  EXPECT_TRUE(mem.is_mapped(0x100));
  EXPECT_TRUE(mem.is_mapped(0x1000f));
  EXPECT_TRUE(mem.is_mapped(0x800000000000000full));
  EXPECT_FALSE(mem.is_mapped(0x110));
  EXPECT_FALSE(mem.is_mapped(0xffff));
  EXPECT_EQ(mem.region_at(0x10008)->name, "mid");
}

TEST(MemoryTest, SnapshotRestoreRoundTrips) {
  Memory mem;
  mem.map(0x0, 8, Perm::ReadWrite, "a");
  mem.map(0x100, 8, Perm::ReadWrite, "b");
  mem.poke(0x3, 7);
  mem.poke(0x104, 9);
  auto snap = mem.snapshot();
  mem.poke(0x3, 100);
  mem.poke(0x104, 200);
  mem.restore(snap);
  EXPECT_EQ(mem.peek(0x3), 7u);
  EXPECT_EQ(mem.peek(0x104), 9u);
}

TEST(MemoryTest, IncrementalRestoreEquivalentToFullRestore) {
  // Arbitrary write pattern, restore, re-write, restore again: every
  // restore must reproduce the snapshot exactly even though only dirty
  // regions are copied back.
  Memory mem;
  mem.map(0x0, 16, Perm::ReadWrite, "a");
  mem.map(0x100, 16, Perm::ReadWrite, "b");
  mem.map(0x200, 16, Perm::ReadWrite, "c");
  for (int i = 0; i < 16; ++i) {
    mem.poke(0x0 + i, 10 + i);
    mem.poke(0x100 + i, 20 + i);
  }
  const Memory::Snapshot snap = mem.snapshot();

  // Touch only region "a"; "b"/"c" stay clean and may be skipped.
  ASSERT_FALSE(mem.write(0x3, 999));
  mem.restore(snap);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(mem.peek(0x0 + i), Word(10 + i));
    EXPECT_EQ(mem.peek(0x100 + i), Word(20 + i));
    EXPECT_EQ(mem.peek(0x200 + i), 0u);
  }

  // Re-write after the restore (including a previously clean region),
  // then restore again.
  mem.poke(0x3, 1234);
  mem.poke(0x105, 5678);
  mem.poke(0x20f, 42);
  mem.restore(snap);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(mem.peek(0x0 + i), Word(10 + i));
    EXPECT_EQ(mem.peek(0x100 + i), Word(20 + i));
    EXPECT_EQ(mem.peek(0x200 + i), 0u);
  }
}

TEST(MemoryTest, RestoreTracksSourceAcrossSnapshots) {
  // The campaign sync pattern: a faulty memory is repeatedly re-aligned
  // with successive snapshots of a golden memory while both mutate.
  Memory golden, faulty;
  golden.map(0x0, 8, Perm::ReadWrite, "r0");
  golden.map(0x100, 8, Perm::ReadWrite, "r1");
  faulty.map(0x0, 8, Perm::ReadWrite, "r0");
  faulty.map(0x100, 8, Perm::ReadWrite, "r1");

  Memory::Snapshot snap;
  for (int round = 0; round < 5; ++round) {
    golden.poke(0x1, 100 + round);             // r0 changes every round
    if (round == 2) golden.poke(0x101, 777);   // r1 changes once
    golden.snapshot_into(snap);
    if (round % 2 == 0) faulty.poke(0x102, 55);  // faulty diverges
    faulty.restore(snap);
    for (Addr a : {Addr{0x1}, Addr{0x101}, Addr{0x102}}) {
      EXPECT_EQ(faulty.peek(a), golden.peek(a)) << "round " << round;
    }
  }
}

TEST(MemoryTest, SnapshotIntoReusesBuffersAndSeesNewWrites) {
  Memory mem;
  mem.map(0x0, 8, Perm::ReadWrite, "a");
  mem.poke(0x2, 7);
  Memory::Snapshot snap;
  mem.snapshot_into(snap);
  const Word* buf = snap.regions[0].data.data();
  mem.poke(0x2, 9);
  mem.snapshot_into(snap);
  EXPECT_EQ(snap.regions[0].data[2], 9u);
  EXPECT_EQ(snap.regions[0].data.data(), buf);  // no reallocation
  EXPECT_EQ(snap, mem.snapshot());
}

TEST(MemoryTest, RestoreFromCopiedMemoryIsNotSkipped) {
  // Copies get a fresh identity: snapshots of a copy must not be
  // confused with snapshots of the original after the two diverge.
  Memory a;
  a.map(0x0, 4, Perm::ReadWrite, "r");
  a.poke(0x1, 5);
  Memory b = a;
  b.poke(0x1, 6);
  Memory target;
  target.map(0x0, 4, Perm::ReadWrite, "r");
  target.restore(a.snapshot());
  EXPECT_EQ(target.peek(0x1), 5u);
  target.restore(b.snapshot());
  EXPECT_EQ(target.peek(0x1), 6u);
  target.restore(a.snapshot());
  EXPECT_EQ(target.peek(0x1), 5u);
}

TEST(MemoryTest, ReadOnlyRegionSurvivesSnapshotRoundTrip) {
  Memory mem;
  mem.map(0x0, 4, Perm::ReadWrite, "rw");
  mem.map(0x100, 4, Perm::Read, "ro");
  const Memory::Snapshot snap = mem.snapshot();
  EXPECT_EQ(mem.write(0x101, 9).kind, TrapKind::GeneralProtection);
  mem.poke(0x1, 3);
  mem.restore(snap);
  EXPECT_EQ(mem.peek(0x101), 0u);
  EXPECT_EQ(mem.peek(0x1), 0u);
}

TEST(MemoryTest, ClearZeroesEverything) {
  Memory mem;
  mem.map(0x0, 8, Perm::ReadWrite, "a");
  mem.poke(0x1, 5);
  mem.clear();
  EXPECT_EQ(mem.peek(0x1), 0u);
}

TEST(MemoryTest, ClearCountsAsMutationForIncrementalRestore) {
  Memory mem;
  mem.map(0x0, 8, Perm::ReadWrite, "a");
  mem.poke(0x1, 5);
  const Memory::Snapshot snap = mem.snapshot();
  mem.restore(snap);  // establish sync, then mutate via clear()
  mem.clear();
  mem.restore(snap);
  EXPECT_EQ(mem.peek(0x1), 5u);
}

TEST(MemoryTest, BitFlippedPointerLandsOutsideRegions) {
  // The property the fault model relies on: flipping a high bit of a valid
  // pointer almost always leaves every mapped region.
  Memory mem;
  mem.map(0x10000, 1024, Perm::ReadWrite, "hv_data");
  const Addr ptr = 0x10010;
  int out_of_range = 0;
  for (int bit = 0; bit < 64; ++bit) {
    if (!mem.is_mapped(ptr ^ (Addr{1} << bit))) ++out_of_range;
  }
  EXPECT_GE(out_of_range, 50);
}

// -- per-block generations ---------------------------------------------------

/// Region layout of the block-generation tests: sizes that end in a short
/// block (100, 200), one smaller than a block (5), an exact multiple (128),
/// and a read-only region.
void map_block_layout(Memory& m) {
  m.map(0x0, 100, Perm::ReadWrite, "odd");
  m.map(0x1000, 200, Perm::ReadWrite, "tail");
  m.map(0x2000, 5, Perm::ReadWrite, "tiny");
  m.map(0x3000, 128, Perm::ReadWrite, "exact");
  m.map(0x4000, 70, Perm::Read, "ro");
}

using Image = std::vector<std::vector<Word>>;

Image contents(const Memory& m) {
  Image out;
  for (const Memory::Region& r : m.regions()) out.push_back(r.data);
  return out;
}

Image contents(const Memory::Snapshot& s) {
  Image out;
  for (const Memory::Snapshot::RegionImage& r : s.regions) {
    out.push_back(r.data);
  }
  return out;
}

Addr random_addr(const Memory& m, std::mt19937_64& rng) {
  const Memory::Region& r = m.regions()[rng() % m.regions().size()];
  return r.base + rng() % r.size;
}

TEST(MemoryBlockGenTest, OneWriteCopiesOneBlock) {
  Memory golden, faulty;
  map_block_layout(golden);
  map_block_layout(faulty);
  Memory::Snapshot snap;
  EXPECT_EQ(golden.snapshot_into(snap), 503u);  // first capture: everything
  EXPECT_EQ(faulty.restore(snap), 503u);        // first sync: everything
  EXPECT_EQ(golden.snapshot_into(snap), 0u);
  EXPECT_EQ(faulty.restore(snap), 0u);

  ASSERT_FALSE(golden.write(0x1000 + 70, 1));   // tail block 1: 64 words
  ASSERT_FALSE(faulty.write(0x0 + 99, 2));      // odd block 1: 36 words
  EXPECT_EQ(golden.snapshot_into(snap), 64u);
  EXPECT_EQ(faulty.restore(snap), 64u + 36u);
  EXPECT_EQ(contents(faulty), contents(golden));
}

TEST(MemoryBlockGenTest, RandomMutationsMatchFullCopyReference) {
  // Random mutations of two memories interleaved with captures into three
  // shared snapshots and restores in both directions (and onto the
  // capturing memory itself).  Every snapshot must hold, and every
  // restore must reproduce, exactly what a full copy at capture time
  // would; a repeated capture or restore with nothing changed copies
  // nothing.
  std::mt19937_64 rng(0xb10c6e4);
  Memory mems[2];
  for (Memory& m : mems) map_block_layout(m);
  Memory::Snapshot snaps[3];
  Image ref[3];
  bool captured[3] = {};
  int restores = 0;
  for (int step = 0; step < 20000; ++step) {
    Memory& m = mems[rng() % 2];
    const std::size_t k = rng() % 3;
    const std::uint64_t op = rng() % 100;
    if (op < 40) {
      const Addr a = random_addr(m, rng);
      (void)m.write(a, rng());  // #GP on the read-only region
    } else if (op < 55) {
      const Addr a = random_addr(m, rng);
      m.poke(a, rng());
    } else if (op < 65) {
      const Memory::Region& r = m.regions()[rng() % m.regions().size()];
      const Addr off = rng() % r.size;
      const Addr len = 1 + rng() % (r.size - off);
      Word* span = m.poke_span(r.base + off, len);
      for (Addr i = 0; i < len; ++i) span[i] = rng();
    } else if (op < 67) {
      m.clear();
    } else if (op < 82) {
      m.snapshot_into(snaps[k]);
      ref[k] = contents(m);
      captured[k] = true;
      ASSERT_EQ(contents(snaps[k]), ref[k]) << "step " << step;
      EXPECT_EQ(m.snapshot_into(snaps[k]), 0u) << "step " << step;
    } else if (captured[k]) {
      m.restore(snaps[k]);
      ++restores;
      ASSERT_EQ(contents(m), ref[k]) << "step " << step;
      EXPECT_EQ(m.restore(snaps[k]), 0u) << "step " << step;
    }
  }
  EXPECT_GT(restores, 3000);
}

TEST(MemoryBlockGenTest, JitStoresStampTheirBlocks) {
  // A strided store loop over two regions on the threaded-code engine:
  // its raw stores go through the software TLB, not Memory::write, so
  // only the engine's per-store stamp tells snapshot/restore which
  // blocks changed.
  Assembler as(0x400000);
  const Assembler::Label loop = as.here();
  as.store(Reg::rbx, Reg::rax);
  as.store(Reg::rsi, Reg::rax);
  as.add(Reg::rbx, Reg::rcx);
  as.add(Reg::rsi, Reg::rcx);
  as.inc(Reg::rax);
  as.dec(Reg::rdx);
  as.jne(loop);
  as.hlt();
  const Program prog = as.finish();
  const std::shared_ptr<const jit::CompiledProgram> compiled = jit::compile(
      prog, analysis::form_superblocks(analysis::build_cfg(prog), prog));

  std::mt19937_64 rng(0x5eed);
  Memory mems[2];
  for (Memory& m : mems) map_block_layout(m);
  Memory::Snapshot snaps[2];
  Image ref[2];
  bool captured[2] = {};
  int runs = 0, restores = 0;
  for (int step = 0; step < 4000; ++step) {
    Memory& m = mems[rng() % 2];
    const std::size_t k = rng() % 2;
    const std::uint64_t op = rng() % 4;
    if (op == 0) {
      // Stores at odd[s0 + i*stride] and tail[s1 + i*stride], i < count.
      const Addr stride = 1 + rng() % 9;
      const Addr s0 = rng() % 100, s1 = rng() % 200;
      const Addr count =
          1 + rng() % (std::min((99 - s0) / stride, (199 - s1) / stride) + 1);
      Cpu cpu(&prog, &m);
      cpu.reset(prog.base(), 0x3000 + 64);
      cpu.set_compiled(compiled);
      cpu.set_engine(EngineKind::Jit);
      cpu.set_reg(Reg::rax, rng());
      cpu.set_reg(Reg::rbx, 0x0 + s0);
      cpu.set_reg(Reg::rsi, 0x1000 + s1);
      cpu.set_reg(Reg::rcx, stride);
      cpu.set_reg(Reg::rdx, count);
      ASSERT_EQ(cpu.run(100000).status, StepInfo::Status::Halted);
      ++runs;
    } else if (op == 1) {
      const Addr a = random_addr(m, rng);
      m.poke(a, rng());
    } else if (op == 2) {
      m.snapshot_into(snaps[k]);
      ref[k] = contents(m);
      captured[k] = true;
      ASSERT_EQ(contents(snaps[k]), ref[k]) << "step " << step;
    } else if (captured[k]) {
      m.restore(snaps[k]);
      ++restores;
      ASSERT_EQ(contents(m), ref[k]) << "step " << step;
    }
  }
  EXPECT_GT(runs, 500);
  EXPECT_GT(restores, 500);
}


// -- region lookup (page-to-region table) ------------------------------------

/// The region holding `a`, by a linear scan of regions(): the oracle for
/// Memory's page-table lookup.
const Memory::Region* scan(const Memory& m, Addr a) {
  for (const Memory::Region& r : m.regions()) {
    if (a >= r.base && a - r.base < r.size) return &r;
  }
  return nullptr;
}

/// Every lookup entry point against the scan: region_at/is_mapped, read
/// and write traps and values, peek, poke_span and direct_span.  Probes
/// run in the given order, so shuffled orders exercise the hint caches.
void check_lookups(Memory& m, const std::vector<Addr>& probes) {
  for (const Addr a : probes) {
    SCOPED_TRACE(::testing::Message() << std::hex << "addr 0x" << a);
    const Memory::Region* want = scan(m, a);
    ASSERT_EQ(m.region_at(a), want);
    ASSERT_EQ(m.is_mapped(a), want != nullptr);
    Word v = 0;
    const Trap rt = m.read(a, v);
    const Word w = a * 0x9e3779b97f4a7c15ull + 1;
    const Trap wt = m.write(a, w);
    const Memory::DirectSpan span = m.direct_span(a);
    if (want == nullptr) {
      EXPECT_EQ(rt.kind, TrapKind::PageFault);
      EXPECT_EQ(rt.fault_addr, a);
      EXPECT_EQ(wt.kind, TrapKind::PageFault);
      EXPECT_EQ(wt.fault_addr, a);
      EXPECT_EQ(span.size, 0u);
      continue;
    }
    const Addr off = a - want->base;
    const Word before = v;
    EXPECT_FALSE(rt);
    if (want->perm == Perm::ReadWrite) {
      EXPECT_FALSE(wt);
      EXPECT_EQ(want->data[off], w);
    } else {
      EXPECT_EQ(wt.kind, TrapKind::GeneralProtection);
      EXPECT_EQ(want->data[off], before);
    }
    EXPECT_EQ(m.peek(a), want->data[off]);
    EXPECT_EQ(m.poke_span(a, want->size - off), &want->data[off]);
    m.poke(a, w + 1);
    EXPECT_EQ(want->data[off], w + 1);
    EXPECT_EQ(span.base, want->base);
    EXPECT_EQ(span.size, want->size);
    EXPECT_EQ(span.data, want->data.data());
    EXPECT_EQ(span.writable, want->perm == Perm::ReadWrite);
  }
}

/// Region edges, page edges and random addresses (low, anywhere in 64
/// bits, and at the top of the address space) for the regions of `m`.
std::vector<Addr> lookup_probes(const Memory& m, std::mt19937_64& rng) {
  std::vector<Addr> probes = {0, 1, ~Addr{0}, ~Addr{0} - 0x40,
                              Addr{1} << 32, (Addr{1} << 32) - 1};
  for (const Memory::Region& r : m.regions()) {
    for (const Addr a : {r.base - 1, r.base, r.base + r.size / 2,
                         r.base + r.size - 1, r.base + r.size}) {
      probes.push_back(a);
      const Addr page = a >> Memory::kPageShift;
      probes.push_back(page << Memory::kPageShift);
      probes.push_back((page << Memory::kPageShift) - 1);
    }
  }
  for (int i = 0; i < 400; ++i) probes.push_back(rng() & 0x1ffffff);
  for (int i = 0; i < 100; ++i) probes.push_back(rng());
  std::shuffle(probes.begin(), probes.end(), rng);
  return probes;
}

/// Fixed awkward regions plus random ones, mapped in random order:
/// two regions on one 4,096-word page, a region straddling a page edge,
/// a read-only one, one past the lookup table and one ending at 2^64.
void map_awkward_regions(Memory& m, std::mt19937_64& rng) {
  struct Spec {
    Addr base, size;
    Perm perm;
  };
  std::vector<Spec> specs = {
      {0x1000, 0x10, Perm::ReadWrite},     // page 1, shared ...
      {0x1800, 0x100, Perm::ReadWrite},    // ... with this one
      {0x2ff0, 0x30, Perm::ReadWrite},     // straddles pages 2 and 3
      {0x10000, 0x3000, Perm::ReadWrite},  // pages 16-18, ends mid-page
      {0x20000, 8, Perm::Read},
      {Addr{1} << 48, 0x20, Perm::ReadWrite},  // past the table
      {~Addr{0} - 0x3f, 0x40, Perm::ReadWrite},  // ends at 2^64 - 1
  };
  // Random regions in the low 16M words, skipping any that would overlap.
  for (int i = 0; i < 24; ++i) {
    const Addr base = rng() & 0xffffff;
    const Addr size = 1 + rng() % 6000;
    bool overlaps = false;
    for (const Spec& s : specs) {
      overlaps |= !(base + size <= s.base || s.base + s.size <= base);
    }
    if (!overlaps) specs.push_back({base, size, Perm::ReadWrite});
  }
  std::shuffle(specs.begin(), specs.end(), rng);
  int n = 0;
  for (const Spec& s : specs) {
    m.map(s.base, s.size, s.perm, "r" + std::to_string(n++));
  }
}

TEST(MemoryLookupTest, PageTableLookupMatchesLinearScan) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    std::mt19937_64 rng(seed);
    Memory m;
    map_awkward_regions(m, rng);
    check_lookups(m, lookup_probes(m, rng));
    if (HasFatalFailure()) return;
  }
}

TEST(MemoryLookupTest, LookupsSurviveCopyAssignmentAndLaterMaps) {
  std::mt19937_64 rng(99);
  Memory m;
  map_awkward_regions(m, rng);
  const std::vector<Addr> probes = lookup_probes(m, rng);

  Memory copy(m);
  check_lookups(copy, probes);
  Memory assigned;
  assigned.map(0x500, 4, Perm::ReadWrite, "old");
  assigned = m;
  check_lookups(assigned, probes);
  ASSERT_FALSE(HasFatalFailure());

  // map() after a copy: a region below every other one (every index
  // shifts) and one more on the shared page.  The original is unchanged.
  copy.map(0x10, 4, Perm::ReadWrite, "lowest");
  copy.map(0x1200, 0x20, Perm::ReadWrite, "shared2");
  std::vector<Addr> more = probes;
  for (const Addr a : {0x10, 0x13, 0x14, 0xf, 0x1200, 0x121f, 0x1220}) {
    more.push_back(a);
  }
  check_lookups(copy, more);
  EXPECT_FALSE(m.is_mapped(0x10));
  EXPECT_FALSE(m.is_mapped(0x1200));
  check_lookups(m, probes);
}

}  // namespace
}  // namespace xentry::sim
