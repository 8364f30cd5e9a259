#include "hv/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

namespace xentry::hv {
namespace {

namespace L = layout;

// The single most important substrate property: every handler, fed legal
// inputs, runs fault-free to VM entry — no traps, no assertion failures —
// across many seeds.  The whole detection story depends on fault-free
// executions being clean.
class FaultFreeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultFreeSweep, EveryHandlerReachesVmEntry) {
  Machine m;
  const std::uint64_t seed = GetParam();
  for (const ExitReason& r : all_exit_reasons()) {
    Activation act = m.make_activation(r, seed);
    RunResult res = m.run(act);
    EXPECT_TRUE(res.reached_vm_entry)
        << handler_symbol(r) << " seed=" << seed << " trapped with "
        << sim::trap_name(res.trap.kind) << " at " << res.trap.fault_addr
        << " (assert id " << res.trap.aux << ")";
    EXPECT_GT(res.counters.inst_retired, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFreeSweep,
                         ::testing::Values(1, 7, 42, 99, 1234, 77777));

TEST(MachineTest, CountersVaryByExitReason) {
  Machine m;
  auto run_counters = [&](const ExitReason& r) {
    return m.run(m.make_activation(r, 5)).counters;
  };
  const auto spurious =
      run_counters(ExitReason::apic(ApicInterrupt::spurious));
  const auto timer = run_counters(ExitReason::apic(ApicInterrupt::timer));
  // The timer path (update_time + softirq + schedule) dwarfs the spurious
  // interrupt handler.
  EXPECT_GT(timer.inst_retired, 4 * spurious.inst_retired);
  EXPECT_GT(timer.branches, spurious.branches);
  EXPECT_GT(timer.stores, spurious.stores);
}

TEST(MachineTest, DeterministicGivenSeedAndState) {
  Machine a, b;
  const Activation act =
      a.make_activation(ExitReason::hypercall(Hypercall::mmu_update), 11);
  RunResult ra = a.run(act);
  RunResult rb = b.run(act);
  EXPECT_EQ(ra.counters, rb.counters);
  EXPECT_EQ(ra.steps, rb.steps);
  const auto diffs = Machine::diff_persistent_state(a, b);
  EXPECT_TRUE(diffs.empty());
}

TEST(MachineTest, SnapshotRestoreReproducesRunExactly) {
  Machine m;
  const Activation act =
      m.make_activation(ExitReason::hypercall(Hypercall::console_io), 3);
  const Machine::Snapshot snap = m.snapshot();
  RunResult r1 = m.run(act);
  const auto state1 = m.memory().snapshot();
  m.restore(snap);
  RunResult r2 = m.run(act);
  EXPECT_EQ(r1.counters, r2.counters);
  EXPECT_EQ(m.memory().snapshot(), state1);
}

TEST(MachineTest, CpuidEmulationWritesVendorString) {
  // The paper's Section II example: cpuid trapped via #GP, emulated by the
  // hypervisor, results placed in the VCPU structure.
  Machine m;
  Activation act;
  act.reason = ExitReason::exception(GuestException::general_protection);
  act.arg1 = 0x0f;  // cpuid opcode
  act.arg2 = 0;     // leaf 0
  act.vcpu = 1;
  act.seed = 9;
  RunResult res = m.run(act);
  ASSERT_TRUE(res.reached_vm_entry);
  const sim::Addr vc = L::vcpu_addr(1);
  EXPECT_EQ(m.memory().peek(vc + L::kVcpuSaveGprs + 1), 0x756e6547u);
  EXPECT_EQ(m.memory().peek(vc + L::kVcpuSaveGprs + 2), 0x6c65746eu);
  EXPECT_EQ(m.memory().peek(vc + L::kVcpuSaveGprs + 3), 0x49656e69u);
}

TEST(MachineTest, PageFaultFixupAndInjection) {
  Machine m;
  // Mapped L1 slot (va >> 4 < 12): hypervisor fixes up.
  Activation mapped;
  mapped.reason = ExitReason::exception(GuestException::page_fault);
  mapped.arg1 = 0x23;  // l1 idx 2: mapped
  mapped.vcpu = 1;
  RunResult r1 = m.run(mapped);
  ASSERT_TRUE(r1.reached_vm_entry);
  const sim::Addr ram = L::guest_ram_addr(m.domain_of_vcpu(1));
  EXPECT_NE(m.memory().peek(ram + L::kGuestAppPtrs + 0x23), 0u);

  // Unmapped slot: injected into the guest (frame written, rip vectored).
  Activation unmapped = mapped;
  unmapped.arg1 = 0xf7;  // l1 idx 15: unmapped
  RunResult r2 = m.run(unmapped);
  ASSERT_TRUE(r2.reached_vm_entry);
  // inject_guest_event overwrites the error-code slot with the vector.
  EXPECT_EQ(m.memory().peek(ram + L::kGuestExcFrame + 3), 14u);
  const sim::Addr vc = L::vcpu_addr(1);
  EXPECT_EQ(m.memory().peek(vc + L::kVcpuSaveRip),
            m.memory().peek(vc + L::kVcpuTrapTable + 14));
}

TEST(MachineTest, EventChannelSendSetsPendingAndWakes) {
  Machine m;
  Activation act;
  act.reason = ExitReason::hypercall(Hypercall::event_channel_op);
  act.arg1 = 1;  // send
  act.arg2 = 3;  // port 3 (bound at boot)
  act.vcpu = 1;
  RunResult res = m.run(act);
  ASSERT_TRUE(res.reached_vm_entry);
  const int dom = m.domain_of_vcpu(1);
  const sim::Word pending =
      m.memory().peek(L::shared_info_addr(dom) + L::kShEvtchnPending);
  EXPECT_TRUE(pending & (1u << 3));
}

TEST(MachineTest, MaskedEventChannelIsNotDelivered) {
  Machine m;
  const int dom = 1;
  const int vcpu = 1;  // vcpu 1 belongs to domain 1 with 1 vcpu/domain
  m.memory().poke(L::shared_info_addr(dom) + L::kShEvtchnMask, 1u << 3);
  Activation act;
  act.reason = ExitReason::hypercall(Hypercall::event_channel_op);
  act.arg1 = 1;
  act.arg2 = 3;
  act.vcpu = vcpu;
  ASSERT_TRUE(m.run(act).reached_vm_entry);
  EXPECT_EQ(m.memory().peek(L::shared_info_addr(dom) + L::kShEvtchnPending),
            0u);
}

TEST(MachineTest, IrqRoutesThroughEventChannel) {
  Machine m;
  Activation act = m.make_activation(ExitReason::irq(4), 2, 0);
  ASSERT_TRUE(m.run(act).reached_vm_entry);
  // Boot routing: irq 4 -> dom (4 % 3 = 1), port (4 % 8 = 4).
  const sim::Word pending =
      m.memory().peek(L::shared_info_addr(1) + L::kShEvtchnPending);
  EXPECT_TRUE(pending & (1u << 4));
}

TEST(MachineTest, SchedYieldSwitchesCurrentVcpu) {
  Machine m;
  Activation act;
  act.reason = ExitReason::hypercall(Hypercall::sched_op);
  act.arg1 = 0;  // yield
  act.vcpu = 0;
  ASSERT_TRUE(m.run(act).reached_vm_entry);
  const sim::Word current = m.memory().peek(L::kHvDataBase +
                                            L::kHvCurrentVcpu);
  EXPECT_NE(current, L::vcpu_addr(0));  // round-robin moved on
}

TEST(MachineTest, BlockThenWakeRoundTrip) {
  Machine m;
  Activation block;
  block.reason = ExitReason::hypercall(Hypercall::sched_op);
  block.arg1 = 1;
  block.vcpu = 1;
  ASSERT_TRUE(m.run(block).reached_vm_entry);
  EXPECT_EQ(m.memory().peek(L::vcpu_addr(1) + L::kVcpuState),
            static_cast<sim::Word>(L::kVcpuStateBlocked));
  // An event for domain 1 port 2 (bound to vcpu 1) wakes it.
  Activation wake;
  wake.reason = ExitReason::hypercall(Hypercall::event_channel_op_compat);
  wake.arg1 = 2;
  wake.vcpu = 1;
  // Note: run() itself marks the exiting vcpu running; use a different
  // vcpu to deliver so the wake path does the work.
  wake.vcpu = 0;
  // Route the event at domain 0... instead drive via do_irq to domain 1:
  Activation irq = m.make_activation(ExitReason::irq(1), 5, 0);  // dom 1
  ASSERT_TRUE(m.run(irq).reached_vm_entry);
  EXPECT_EQ(m.memory().peek(L::vcpu_addr(1) + L::kVcpuState),
            static_cast<sim::Word>(L::kVcpuStateRunning));
}

TEST(MachineTest, InjectionFlipIsAppliedAndTracked) {
  Machine m;
  const Activation act =
      m.make_activation(ExitReason::hypercall(Hypercall::mmu_update), 21, 1);

  Machine::Snapshot snap = m.snapshot();
  RunResult golden = m.run(act);
  ASSERT_TRUE(golden.reached_vm_entry);

  // Inject into a register the handler actually uses: rdi (the count).
  m.restore(snap);
  Injection inj{2, sim::Reg::rdi, 2};
  RunOptions opts;
  opts.injection = &inj;
  RunResult faulted = m.run(act, opts);
  EXPECT_TRUE(faulted.injected);
  EXPECT_TRUE(faulted.activated);
  EXPECT_GE(faulted.activation_step, inj.at_step);
}

TEST(MachineTest, NonActivatedFaultLeavesNoTrace) {
  Machine m;
  const Activation act = m.make_activation(
      ExitReason::apic(ApicInterrupt::spurious), 4, 0);
  Machine::Snapshot snap = m.snapshot();
  RunResult golden = m.run(act);
  const auto golden_state = m.memory().snapshot();
  ASSERT_TRUE(golden.reached_vm_entry);

  // The spurious handler never reads rdx: flip it and expect a masked run.
  m.restore(snap);
  Injection inj{1, sim::Reg::rdx, 40};
  RunOptions opts;
  opts.injection = &inj;
  RunResult faulted = m.run(act, opts);
  EXPECT_TRUE(faulted.injected);
  EXPECT_FALSE(faulted.activated);
  EXPECT_TRUE(faulted.reached_vm_entry);
  EXPECT_EQ(faulted.counters, golden.counters);
  EXPECT_EQ(m.memory().snapshot(), golden_state);
}

TEST(MachineTest, RipFlipUsuallyTrapsBeforeVmEntry) {
  Machine m;
  const Activation act =
      m.make_activation(ExitReason::hypercall(Hypercall::console_io), 8, 2);
  Machine::Snapshot snap = m.snapshot();
  ASSERT_TRUE(m.run(act).reached_vm_entry);

  int traps = 0;
  for (int bit : {20, 30, 40, 50, 60}) {
    m.restore(snap);
    Injection inj{5, sim::Reg::rip, bit};
    RunOptions opts;
    opts.injection = &inj;
    RunResult res = m.run(act, opts);
    if (!res.reached_vm_entry) {
      ++traps;
      EXPECT_EQ(res.trap.kind, sim::TrapKind::PageFault);
    }
  }
  EXPECT_EQ(traps, 5);  // high rip bits leave the code region entirely
}

TEST(MachineTest, TraceCapturesControlFlowDivergence) {
  Machine m;
  const Activation act = m.make_activation(
      ExitReason::hypercall(Hypercall::grant_table_op), 13, 1);
  Machine::Snapshot snap = m.snapshot();

  std::vector<sim::Addr> golden_trace;
  RunOptions gopts;
  gopts.trace = &golden_trace;
  ASSERT_TRUE(m.run(act, gopts).reached_vm_entry);

  m.restore(snap);
  std::vector<sim::Addr> fault_trace;
  Injection inj{3, sim::Reg::rsi, 1};  // corrupt the batch count
  RunOptions fopts;
  fopts.trace = &fault_trace;
  fopts.injection = &inj;
  RunResult res = m.run(act, fopts);
  if (res.reached_vm_entry) {
    EXPECT_NE(golden_trace, fault_trace);  // extra/dropped loop iterations
  }
}

TEST(MachineTest, AssertionCountingCountsRetiredAsserts) {
  Machine m;
  const Activation act =
      m.make_activation(ExitReason::hypercall(Hypercall::mmu_update), 2, 0);
  std::vector<sim::Addr> trace;
  RunOptions opts;
  opts.trace = &trace;
  RunResult res = m.run(act, opts);
  ASSERT_TRUE(res.reached_vm_entry);
  // Brute force: single-step the same activation and count every
  // assertion instruction that begins executing.
  Machine ref;
  ref.begin_activation(act);
  std::uint64_t stepped = 0;
  for (;;) {
    const sim::Addr rip = ref.cpu().reg(sim::Reg::rip);
    stepped += sim::is_assertion(ref.microvisor().program.at(rip).op) ? 1 : 0;
    if (ref.cpu().step().status != sim::StepInfo::Status::Ok) break;
  }
  EXPECT_GE(m.assertions_executed(trace, res), 1u);  // the batch-bound assert
  EXPECT_EQ(m.assertions_executed(trace, res), stepped);

  // A failing assertion traps before it retires, so it is not in the
  // trace; the count still includes it.
  RunResult failed;
  failed.trap.kind = sim::TrapKind::AssertFailed;
  EXPECT_EQ(m.assertions_executed(trace, failed), stepped + 1);
}

TEST(MachineTest, AssertionsDetectCorruptedIdleState) {
  // Corrupt a vcpu state so a wake/schedule path trips an assertion or
  // at least diverges; specifically force the idle-vcpu assert by marking
  // the idle vcpu non-idle and emptying the runqueue.
  Machine m;
  m.memory().poke(L::kHvDataBase + L::kHvRunqCount, 0);
  m.memory().poke(L::vcpu_addr(m.num_vcpus()) + L::kVcpuState,
                  L::kVcpuStateRunning);  // corrupted idle vcpu
  Activation act;
  act.reason = ExitReason::hypercall(Hypercall::sched_op_compat);
  act.arg1 = 1;  // block: forces schedule onto the idle path
  act.vcpu = 0;
  RunResult res = m.run(act);
  ASSERT_FALSE(res.reached_vm_entry);
  EXPECT_EQ(res.trap.kind, sim::TrapKind::AssertFailed);
  EXPECT_EQ(res.trap.aux, static_cast<std::uint32_t>(kAssertIdleVcpu));
}

TEST(MachineTest, PersistentDiffClassifiesTimeValues) {
  Machine a, b;
  const sim::Addr sh = L::shared_info_addr(1);
  b.memory().poke(sh + L::kShSystemTime, 12345);
  const auto diffs = Machine::diff_persistent_state(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].cls, L::OutputClass::TimeValue);
  EXPECT_EQ(diffs[0].domain, 1);
}

TEST(MachineTest, PersistentDiffClassifiesGuestControl) {
  Machine a, b;
  b.memory().poke(L::vcpu_addr(2) + L::kVcpuSaveRip, 0xbad);
  const auto diffs = Machine::diff_persistent_state(a, b);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].cls, L::OutputClass::GuestControl);
  EXPECT_EQ(diffs[0].domain, 2);
}

TEST(MachineTest, StackIsExcludedFromPersistentDiff) {
  Machine a, b;
  b.memory().poke(L::kStackBase + 5, 77);
  EXPECT_TRUE(Machine::diff_persistent_state(a, b).empty());
}

void expect_same_diffs(const std::vector<StateDiff>& got,
                       const std::vector<StateDiff>& want, int round) {
  ASSERT_EQ(got.size(), want.size()) << "round " << round;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].addr, want[i].addr) << "round " << round;
    EXPECT_EQ(got[i].golden, want[i].golden) << "round " << round;
    EXPECT_EQ(got[i].faulty, want[i].faulty) << "round " << round;
    EXPECT_EQ(got[i].cls, want[i].cls) << "round " << round;
    EXPECT_EQ(got[i].domain, want[i].domain) << "round " << round;
  }
}

TEST(MachineTest, DirtyBlockDiffMatchesFullCompare) {
  // The faulted-run setup: `pre` is captured from the golden machine and
  // the faulty machine restored from it, then both run and get random
  // pokes on every region, the stack included (which neither compare
  // reports).  Diffing only the blocks either side wrote since `pre` must
  // give the full compare's diffs in the same order.  Some rounds skip
  // the faulty restore, so its last restore is from an older image and
  // the compare has to fall back to the words.
  std::mt19937_64 rng(0xd1ffb10c);
  Machine golden, faulty;
  for (Machine* m : {&golden, &faulty}) {
    m->set_execution_engine(sim::EngineKind::Jit);
  }
  const auto reasons = all_exit_reasons();
  const auto& regions = golden.memory().regions();
  Machine::Snapshot pre;
  std::size_t diffs_seen = 0, stack_pokes = 0;
  for (int round = 0; round < 300; ++round) {
    const ExitReason& reason = reasons[rng() % reasons.size()];
    golden.run(golden.make_activation(reason, rng()));  // advance the stream
    const Activation act = golden.make_activation(reason, rng());
    golden.snapshot_into(pre);
    if (round % 7 != 3) faulty.restore(pre);
    golden.run(act);
    const Injection inj{rng() % 64, static_cast<sim::Reg>(rng() % 18),
                        static_cast<int>(rng() % 64)};
    RunOptions opts;
    opts.injection = &inj;
    faulty.run(act, opts);
    const int pokes = static_cast<int>(rng() % 12);
    for (int k = 0; k < pokes; ++k) {
      const std::size_t r = rng() % regions.size();
      const sim::Addr a = regions[r].base + rng() % regions[r].size;
      Machine& m = (rng() & 1) != 0 ? golden : faulty;
      // Sometimes rewrite the value already there: a written block whose
      // words still agree.
      const sim::Word v = (rng() & 3) == 0 ? m.memory().peek(a) : rng();
      m.memory().poke(a, v);
      stack_pokes += regions[r].name == "stack" ? 1 : 0;
    }
    const auto want = Machine::diff_persistent_state(golden, faulty);
    expect_same_diffs(Machine::diff_persistent_state(golden, faulty, pre),
                      want, round);
    diffs_seen += want.size();
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(diffs_seen, 100u);
  EXPECT_GT(stack_pokes, 10u);
}

TEST(MachineTest, TraceLimitTruncatesOnlyTheTrace) {
  // A run whose trace stops at RunOptions::trace_limit is the same run:
  // result, registers and memory equal the unbounded run's, the trace is
  // its first trace_limit entries, and trace_truncated says whether any
  // were left out.  Limits fall before, inside and after each engine run
  // of the injection path (prefix, watch window, rest), on both engines.
  std::mt19937_64 rng(0x7ace);
  const auto reasons = all_exit_reasons();
  int truncated = 0;
  for (const sim::EngineKind engine :
       {sim::EngineKind::Reference, sim::EngineKind::Jit}) {
    Machine whole, bounded;
    whole.set_execution_engine(engine);
    bounded.set_execution_engine(engine);
    const Machine::Snapshot boot = whole.snapshot();
    for (int i = 0; i < 60; ++i) {
      const Activation act =
          whole.make_activation(reasons[rng() % reasons.size()], rng());
      whole.restore(boot);
      std::vector<sim::Addr> full;
      RunOptions opts;
      opts.trace = &full;
      const RunResult clean = whole.run(act, opts);
      const Injection inj{rng() % (clean.steps + 1),
                          static_cast<sim::Reg>(rng() % 18),
                          static_cast<int>(rng() % 64)};
      const bool inject = i % 3 != 0;
      opts.injection = inject ? &inj : nullptr;
      whole.restore(boot);
      full.clear();
      const RunResult want = whole.run(act, opts);
      ASSERT_FALSE(want.trace_truncated);
      const std::uint64_t ran = full.size();
      for (const std::uint64_t limit :
           {std::uint64_t{0}, std::uint64_t{1}, inj.at_step, inj.at_step + 1,
            ran / 2, ran - std::min<std::uint64_t>(ran, 1), ran, ran + 1}) {
        bounded.restore(boot);
        std::vector<sim::Addr> trace = {0xfeed};  // appended to, not replaced
        RunOptions b = opts;
        b.trace = &trace;
        b.trace_limit = limit;
        const RunResult got = bounded.run(act, b);
        const std::string what = "engine " +
                                 std::to_string(static_cast<int>(engine)) +
                                 " run " + std::to_string(i) + " limit " +
                                 std::to_string(limit);
        EXPECT_EQ(got.reached_vm_entry, want.reached_vm_entry) << what;
        EXPECT_EQ(got.trap.kind, want.trap.kind) << what;
        EXPECT_EQ(got.trap.fault_addr, want.trap.fault_addr) << what;
        EXPECT_EQ(got.steps, want.steps) << what;
        EXPECT_EQ(got.trap_step, want.trap_step) << what;
        EXPECT_EQ(got.counters, want.counters) << what;
        EXPECT_EQ(got.injected, want.injected) << what;
        EXPECT_EQ(got.activated, want.activated) << what;
        EXPECT_EQ(got.activation_step, want.activation_step) << what;
        EXPECT_EQ(bounded.cpu().regs(), whole.cpu().regs()) << what;
        EXPECT_TRUE(bounded.memory().snapshot() == whole.memory().snapshot())
            << what;
        const std::size_t kept = std::min<std::uint64_t>(ran, limit);
        EXPECT_EQ(got.trace_truncated, ran > limit) << what;
        ASSERT_EQ(trace.size(), 1 + kept) << what;
        EXPECT_TRUE(std::equal(full.begin(), full.begin() + kept,
                               trace.begin() + 1))
            << what;
        truncated += got.trace_truncated ? 1 : 0;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(truncated, 500);
}

TEST(MachineTest, BadVcpuIndexThrows) {
  Machine m;
  Activation act;
  act.reason = ExitReason::softirq();
  act.vcpu = 99;
  EXPECT_THROW(m.run(act), std::invalid_argument);
}

}  // namespace
}  // namespace xentry::hv
