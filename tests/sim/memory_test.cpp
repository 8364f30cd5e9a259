#include "sim/memory.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <random>
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

}  // namespace
}  // namespace xentry::sim
