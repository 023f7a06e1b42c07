/**
 * @file
 * Stall-attribution tests (DESIGN.md section 10): every scheduler
 * slot of every cycle is charged to exactly one bucket — issued or
 * one of the eight stall causes — so per SM the buckets must sum to
 * numSchedulers * cycles on every workload and provider. Also covers
 * the Chrome-trace emission (validity, determinism of traced runs)
 * and the deadlock report's last-window breakdown, and pins the expiry
 * points of the SM's cached scoreboard verdicts (DESIGN.md §12,
 * incremental eligibility) to the cycles a per-cycle re-derivation
 * would see, and the stall rows of warps the scan leaves asleep
 * (sleeping warps) to the charges a scan of every warp would make.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "arch/scheduler.hh"
#include "arch/sm.hh"
#include "arch/stall.hh"
#include "common/fault_injector.hh"
#include "common/sim_error.hh"
#include "compiler/compiler.hh"
#include "golden_runs.hh"
#include "mem/memory_system.hh"
#include "regfile/baseline_rf.hh"
#include "regless/regless_provider.hh"
#include "sim/experiment.hh"
#include "sim/gpu_simulator.hh"
#include "sim/multi_sm.hh"
#include "sim/trace_writer.hh"
#include "workloads/kernel_builder.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

using testutil::expectSlotInvariant;
using testutil::totalSlots;

TEST(SlotInvariant, HoldsForEveryWorkloadUnderBaseline)
{
    // The memoized skip-off references; the skip-on counterpart of
    // this sweep lives in the cycle-skip oracle suite.
    const unsigned schedulers =
        testutil::referenceConfig(sim::ProviderKind::Baseline)
            .sm.numSchedulers;
    for (const std::string &name : workloads::rodiniaNames()) {
        expectSlotInvariant(
            testutil::goldenRun(name, sim::ProviderKind::Baseline),
            schedulers, name);
    }
}

TEST(SlotInvariant, HoldsForEveryWorkloadUnderRegless)
{
    const unsigned schedulers =
        testutil::referenceConfig(sim::ProviderKind::Regless)
            .sm.numSchedulers;
    for (const std::string &name : workloads::rodiniaNames()) {
        expectSlotInvariant(
            testutil::goldenRun(name, sim::ProviderKind::Regless),
            schedulers, name);
    }
}

TEST(SlotInvariant, HoldsPerSmInMultiSmRuns)
{
    const sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    for (const char *name : {"nn", "backprop"}) {
        sim::MultiSmSimulator multi(workloads::makeRodinia(name), cfg,
                                    /*num_sms=*/2);
        sim::RunStats total = multi.run();
        std::uint64_t issued = 0, stalled = 0;
        for (const sim::RunStats &per : multi.perSm()) {
            // The invariant holds per SM against that SM's own cycle
            // count, not the aggregate maximum.
            expectSlotInvariant(per, cfg.sm.numSchedulers,
                                std::string(name) + " per-SM");
            issued += per.issuedSlots;
            for (std::uint64_t s : per.stallSlots)
                stalled += s;
        }
        EXPECT_EQ(total.issuedSlots, issued) << name;
        EXPECT_EQ(totalSlots(total), issued + stalled) << name;
    }
}

TEST(StallTrace, TracedRunStatsMatchUntracedExactly)
{
    // Tracing is observational: enabling it must not change a single
    // statistic (operator== covers every field, slots included).
    const ir::Kernel kernel = workloads::makeRodinia("nn");
    sim::GpuConfig plain =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    sim::GpuConfig traced = plain;
    traced.trace.enabled = true;
    traced.trace.path =
        (std::filesystem::path(::testing::TempDir()) /
         "regless-traced-run.json")
            .string();
    sim::RunStats a = sim::runKernel(kernel, plain);
    sim::RunStats b = sim::runKernel(kernel, traced);
    EXPECT_TRUE(a == b);
}

TEST(StallTrace, MultiSmStatsAreThreadCountInvariant)
{
    // Byte-identical RunStats (slot fields included) for any worker
    // thread count with tracing off.
    const ir::Kernel kernel = workloads::makeRodinia("backprop");
    const sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    sim::MultiSmSimulator serial(kernel, cfg, /*num_sms=*/4,
                                 /*threads=*/1);
    sim::MultiSmSimulator threaded(kernel, cfg, /*num_sms=*/4,
                                   /*threads=*/3);
    sim::RunStats a = serial.run();
    sim::RunStats b = threaded.run();
    EXPECT_TRUE(a == b);
    ASSERT_EQ(serial.perSm().size(), threaded.perSm().size());
    for (std::size_t i = 0; i < serial.perSm().size(); ++i)
        EXPECT_TRUE(serial.perSm()[i] == threaded.perSm()[i]) << i;
}

TEST(StallTrace, WrittenFileIsValidChromeTrace)
{
    const std::string stem =
        (std::filesystem::path(::testing::TempDir()) /
         "regless-trace-test.json")
            .string();
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    cfg.trace.enabled = true;
    cfg.trace.path = stem;
    sim::GpuSimulator gpu(workloads::makeRodinia("nn"), cfg);
    gpu.run();

    std::ifstream in(stem + ".sm0", std::ios::binary);
    ASSERT_TRUE(in.good()) << stem << ".sm0 missing";
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    EXPECT_TRUE(sim::validateChromeTrace(text.str(), &error)) << error;
    // Both event kinds made it out: warp-state spans and capacity-
    // manager activation instants.
    EXPECT_NE(text.str().find("\"issue\""), std::string::npos);
    EXPECT_NE(text.str().find("cm_activate"), std::string::npos);
    EXPECT_NE(text.str().find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.str().find("\"ph\":\"i\""), std::string::npos);
}

TEST(StallTrace, ValidatorRejectsMalformedTraces)
{
    std::string error;
    EXPECT_FALSE(sim::validateChromeTrace("not json", &error));
    EXPECT_FALSE(sim::validateChromeTrace("{\"traceEvents\":[", &error));
    // Missing dur on a complete event.
    EXPECT_FALSE(sim::validateChromeTrace(
        "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"pid\":0,"
        "\"tid\":0,\"ts\":1}]}",
        &error));
    // Non-monotonic timestamps.
    EXPECT_FALSE(sim::validateChromeTrace(
        "{\"traceEvents\":["
        "{\"name\":\"a\",\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":5,"
        "\"s\":\"t\"},"
        "{\"name\":\"b\",\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":4,"
        "\"s\":\"t\"}]}",
        &error));
    EXPECT_TRUE(sim::validateChromeTrace("{\"traceEvents\":[]}",
                                         &error))
        << error;
}

TEST(StallTrace, TraceConfigIsPartOfTheConfigFingerprint)
{
    // Traced and untraced runs must never share an experiment-cache
    // entry, so the trace settings are part of the canonical text.
    sim::GpuConfig plain =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    sim::GpuConfig traced = plain;
    traced.trace.enabled = true;
    EXPECT_NE(sim::configCanonicalText(plain),
              sim::configCanonicalText(traced));
    sim::GpuConfig other_path = traced;
    other_path.trace.path = "elsewhere.json";
    EXPECT_NE(sim::configCanonicalText(traced),
              sim::configCanonicalText(other_path));
}

TEST(DeadlockBreakdown, NamesTheDominantCauseOfTheStalledWindow)
{
    // An injected OSU-slot leak starves every activation: the watchdog
    // report's last-window breakdown must be present, account only
    // stall (not issue) slots in the window, and name cm_no_capacity
    // as the dominant cause.
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    cfg.faults.kind = FaultPlan::Kind::LeakOsuSlot;
    cfg.faults.triggerCycle = 0;
    cfg.sm.watchdogWindow = 5000;
    cfg.sm.maxCycles = 2'000'000;
    sim::GpuSimulator gpu(workloads::makeRodinia("nn"), cfg);
    try {
        gpu.run();
        FAIL() << "leaked OSU reservations did not deadlock";
    } catch (const sim::DeadlockError &e) {
        const sim::DeadlockReport &r = e.report();
        ASSERT_FALSE(r.stallBreakdown.empty());
        EXPECT_EQ(r.dominantStall, "cm_no_capacity")
            << r.render();
        bool found = false;
        for (const std::string &line : r.stallBreakdown)
            found = found || line.find("cm_no_capacity") !=
                                 std::string::npos;
        EXPECT_TRUE(found) << r.render();
        // The rendering surfaces the section.
        EXPECT_NE(r.render().find("last-window stall breakdown"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Incremental eligibility: the expiry points of a cached verdict.
// ---------------------------------------------------------------------

/** One issue of warp 0, as the provider saw it. */
struct IssueRecord
{
    ir::Opcode op;
    Cycle issued;
    Cycle writeback;
};

/** Baseline RF that logs warp 0's issues (straight-line kernels). */
class IssueLogRf : public regfile::BaselineRf
{
  public:
    void
    onIssue(const arch::Warp &warp, Pc pc, const ir::Instruction &insn,
            Cycle now, Cycle writeback) override
    {
        if (warp.id() == 0)
            log.push_back({insn.op(), now, writeback});
        BaselineRf::onIssue(warp, pc, insn, now, writeback);
    }

    /** The @a nth (0-based) logged issue of opcode @a op. */
    const IssueRecord &
    find(ir::Opcode op, unsigned nth = 0) const
    {
        for (const IssueRecord &r : log) {
            if (r.op == op && nth-- == 0)
                return r;
        }
        ADD_FAILURE() << "opcode not issued by warp 0";
        static const IssueRecord missing{};
        return missing;
    }

    std::vector<IssueRecord> log;
};

/** One SM over @a kernel with the logging baseline RF. */
struct LoggedSm
{
    LoggedSm(const ir::Kernel &kernel, const arch::SmConfig &cfg)
        : ck(compiler::compile(kernel)), sm(ck, mem, rf, cfg)
    {
    }
    compiler::CompiledKernel ck;
    mem::MemorySystem mem;
    IssueLogRf rf;
    arch::Sm sm;
};

/** A small SM: one warp per scheduler group. */
arch::SmConfig
oneWarpPerGroup()
{
    arch::SmConfig cfg;
    cfg.numWarps = 4;
    cfg.numSchedulers = 4;
    return cfg;
}

/** (label, first cycle, one past last cycle) runs of warp 0. */
using LabelRuns = std::vector<std::tuple<std::string, Cycle, Cycle>>;

TEST(IncrementalEligibility, CauseFlipsOnTheCycleTheLoadClears)
{
    // The consumer waits on a global load and a slower SFU result.
    // While both are pending it is MemPending; on the exact cycle the
    // load's register clears it becomes ScoreboardDep, and it issues
    // on the exact cycle the SFU result clears.
    workloads::KernelBuilder b("flip");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId v = b.ld(addr);
    RegId s = b.rcp(t);
    b.st(b.iadd(v, s), addr);
    arch::SmConfig cfg = oneWarpPerGroup();
    cfg.latencies.sfu = 2000;
    LoggedSm run(b.build(), cfg);
    LabelRuns runs;
    run.sm.setStallTraceHook(
        [&runs](WarpId w, const char *label, Cycle from, Cycle to) {
            if (w == 0)
                runs.emplace_back(label, from, to);
        });
    run.sm.run();
    run.sm.flushStallTrace();

    const IssueRecord &load = run.rf.find(ir::Opcode::LdGlobal);
    const IssueRecord &sfu = run.rf.find(ir::Opcode::Rcp);
    const IssueRecord &use = run.rf.find(ir::Opcode::IAdd);
    ASSERT_LT(sfu.issued + 1, load.writeback);
    ASSERT_LT(load.writeback, sfu.writeback);
    EXPECT_EQ(use.issued, sfu.writeback);

    auto at = std::find_if(runs.begin(), runs.end(), [&](const auto &r) {
        return std::get<1>(r) == sfu.issued + 1;
    });
    ASSERT_NE(at, runs.end());
    ASSERT_LT(at + 2, runs.end());
    EXPECT_EQ(*at, std::make_tuple(std::string("mem_pending"),
                                   sfu.issued + 1, load.writeback));
    EXPECT_EQ(*(at + 1), std::make_tuple(std::string("scoreboard_dep"),
                                         load.writeback, sfu.writeback));
    EXPECT_EQ(std::get<0>(*(at + 2)), "issue");
    EXPECT_EQ(std::get<1>(*(at + 2)), sfu.writeback);
}

/** Forwards to the SM's own scheduler, logging notifyLongStall. */
class NotifyLog : public arch::WarpScheduler
{
  public:
    NotifyLog(std::unique_ptr<arch::WarpScheduler> inner,
              const arch::Sm &sm)
        : WarpScheduler(inner->warps()), _inner(std::move(inner)),
          _sm(sm)
    {
    }

    int
    pick(const std::vector<bool> &eligible) override
    {
        return _inner->pick(eligible);
    }

    void
    notifyLongStall(WarpId warp) override
    {
        // Finished and barrier-parked warps are notified every cycle;
        // only the long-latency feedback is of interest here.
        if (_sm.warps()[warp].status() == arch::WarpStatus::Running)
            runningNotifies.push_back({warp, _sm.now()});
        _inner->notifyLongStall(warp);
    }

    bool
    quiescentWhenStalled() const override
    {
        return _inner->quiescentWhenStalled();
    }

    std::vector<std::pair<WarpId, Cycle>> runningNotifies;

  private:
    std::unique_ptr<arch::WarpScheduler> _inner;
    const arch::Sm &_sm;
};

TEST(IncrementalEligibility, LongStallFeedbackStopsAtThreshold)
{
    // A consumer of a DRAM load is a long stall while its source is
    // more than longStallThreshold cycles away: the two-level
    // scheduler hears about it on every cycle from the one after the
    // load issues up to, and not including, readyAt - threshold.
    workloads::KernelBuilder b("longstall");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId v = b.ld(addr);
    b.st(b.iaddi(v, 1), addr, 16384);
    arch::SmConfig cfg;
    cfg.scheduler = arch::SchedulerPolicy::TwoLevel;
    LoggedSm run(b.build(), cfg);
    // Group 0 serves warps 0, S, 2S, ... (S = scheduler groups).
    std::vector<WarpId> group;
    for (WarpId w = 0; w < cfg.numWarps; w += cfg.numSchedulers)
        group.push_back(w);
    auto log = std::make_unique<NotifyLog>(
        arch::WarpScheduler::create(cfg.scheduler, group), run.sm);
    NotifyLog &notes = *log;
    run.sm.exchangeScheduler(0, std::move(log));
    run.sm.run();

    const IssueRecord &load = run.rf.find(ir::Opcode::LdGlobal);
    const Cycle quiet = load.writeback - cfg.longStallThreshold;
    ASSERT_GT(quiet, load.issued + 1);
    std::vector<Cycle> cycles;
    for (const auto &[warp, cycle] : notes.runningNotifies) {
        if (warp == 0)
            cycles.push_back(cycle);
    }
    ASSERT_EQ(cycles.size(), quiet - (load.issued + 1));
    for (std::size_t i = 0; i < cycles.size(); ++i)
        EXPECT_EQ(cycles[i], load.issued + 1 + i);
}

TEST(IncrementalEligibility, DualIssueSeesTheFirstIssuesWrite)
{
    // Independent neighbours share a slot; a dependent one must wait
    // for the first instruction's result even though the warp's
    // verdict was "ready" a moment earlier in the same cycle.
    workloads::KernelBuilder b("dual");
    RegId t = b.tid();
    RegId x = b.iaddi(t, 3);
    RegId y = b.imuli(t, 5);
    RegId z = b.iaddi(x, 1);
    b.st(b.iadd(y, z), b.imuli(t, 4));
    LoggedSm run(b.build(), oneWarpPerGroup());
    run.sm.run();

    const IssueRecord &first = run.rf.find(ir::Opcode::IAddImm, 0);
    const IssueRecord &pair = run.rf.find(ir::Opcode::IMulImm, 0);
    const IssueRecord &dependent = run.rf.find(ir::Opcode::IAddImm, 1);
    EXPECT_EQ(first.issued, pair.issued);
    EXPECT_GT(dependent.issued, pair.issued);
    EXPECT_EQ(dependent.issued, first.writeback);
}

/** Per-warp stall rows, cycle count and slot account of an SM. */
struct SmTally
{
    Cycle cycles;
    arch::StallSnapshot slots;
    std::vector<std::array<std::uint64_t, arch::kNumStallCauses>> rows;

    explicit SmTally(const arch::Sm &sm)
        : cycles(sm.now()), slots(sm.slotSnapshot())
    {
        for (WarpId w = 0; w < sm.warps().size(); ++w)
            rows.push_back(sm.warpStalls(w));
    }
};

void
expectSameTally(const SmTally &stepped, const SmTally &skipped)
{
    EXPECT_EQ(stepped.cycles, skipped.cycles);
    EXPECT_EQ(stepped.slots.issuedSlots, skipped.slots.issuedSlots);
    EXPECT_EQ(stepped.slots.stallSlots, skipped.slots.stallSlots);
    ASSERT_EQ(stepped.rows.size(), skipped.rows.size());
    for (std::size_t w = 0; w < stepped.rows.size(); ++w)
        EXPECT_EQ(stepped.rows[w], skipped.rows[w]) << "warp " << w;
}

TEST(IncrementalEligibility, BarrierReleaseKeepsStallRowsExact)
{
    // Warps reach the barrier at staggered cycles (each waits on its
    // own first load) and park with a second load still in flight, so
    // the first verdict after release is a MemPending block. Skipping
    // must charge exactly the rows stepping charges.
    workloads::KernelBuilder b("barrier");
    b.setWarpsPerBlock(4);
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId w = b.iaddi(b.ld(addr), 1);
    RegId u = b.ld(addr, 8192);
    b.bar();
    b.st(b.iadd(w, u), addr, 16384);
    const ir::Kernel kernel = b.build();
    Cycle parked = 0;
    auto tally = [&](bool skip) {
        LoggedSm run(kernel, arch::SmConfig{});
        if (!skip) {
            run.sm.setStallTraceHook(
                [&parked](WarpId, const char *label, Cycle from,
                          Cycle to) {
                    if (std::string(label) == "sync_barrier")
                        parked += to - from;
                });
        }
        while (!run.sm.done()) {
            if (skip)
                run.sm.stepSkipping(run.sm.now() + 1'000'000);
            else
                run.sm.step();
        }
        if (skip) {
            EXPECT_GT(run.sm.skippedCycles(), 0u);
        }
        run.sm.flushStallTrace();
        return SmTally(run.sm);
    };
    expectSameTally(tally(false), tally(true));
    EXPECT_GT(parked, 0u);
}

TEST(IncrementalEligibility, TenantResumeKeepsStallRowsExact)
{
    // Tenant 1 is suspended mid-run and resumed; its warps' verdicts
    // from before the suspension carry over. Skipping must charge
    // exactly the rows stepping charges.
    const sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    const std::vector<ir::Kernel> kernels{workloads::makeRodinia("nn"),
                                          workloads::makeRodinia("nn")};
    const Cycle suspend_at = 1000, resume_at = 4000;
    auto tally = [&](bool skip) {
        sim::GpuSimulator gpu(kernels, cfg);
        arch::Sm &sm = gpu.sm();
        while (!sm.done()) {
            if (sm.now() == suspend_at)
                sm.requestSuspend(1, sm.now());
            if (sm.now() == resume_at)
                sm.resumeTenant(1, sm.now());
            const Cycle limit = sm.now() < suspend_at ? suspend_at
                                : sm.now() < resume_at
                                    ? resume_at
                                    : sm.now() + 1'000'000;
            if (skip)
                sm.stepSkipping(limit);
            else
                sm.step();
        }
        EXPECT_EQ(sm.tenantPreemptions(1), 1u);
        EXPECT_GT(sm.tenantSuspendedCycles(1), 0u);
        if (skip) {
            EXPECT_GT(sm.skippedCycles(), 0u);
        }
        return SmTally(sm);
    };
    expectSameTally(tally(false), tally(true));
}

TEST(IncrementalEligibility, HotspotVerdictsPerIssueStayBounded)
{
    // Work counter (not in RunStats): a verdict is recomputed only
    // when the warp issues or a pending register's expiry point
    // passes, not once per warp per cycle.
    const sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    sim::GpuSimulator gpu(workloads::makeRodinia("hotspot"), cfg);
    gpu.run();
    arch::Sm &sm = gpu.sm();
    const double verdicts = static_cast<double>(
        sm.stats().counter("sb_verdicts").value());
    const double issued = static_cast<double>(sm.totalInsns());
    ASSERT_GT(issued, 0.0);
    // Each issue is preceded by at least one recomputation. Measured:
    // 11366 verdicts over 6400 issues (1.78 per issue), against one
    // scoreboard re-derivation per warp per cycle before the cache.
    EXPECT_GE(verdicts, issued);
    EXPECT_LE(verdicts / issued, 2.5);
}

// ---------------------------------------------------------------------
// Sleeping warps: the scan leaves out warps whose outcome is constant.
// ---------------------------------------------------------------------

TEST(SleepingWarps, RunningWarpsGainOneStallCyclePerIdleCycle)
{
    // One warp per scheduler group, so a Running warp that does not
    // issue in a cycle was blocked in it. Read after every step, also
    // while the warp sleeps on a pending load or SFU result, its row
    // must have gained exactly one cycle, and none when it issued.
    workloads::KernelBuilder b("rows");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId v = b.ld(addr);
    RegId r = b.rcp(t);
    RegId u = b.ld(addr, 8192);
    b.st(b.iadd(b.iadd(v, r), u), addr, 16384);
    arch::SmConfig cfg;
    cfg.numWarps = 8;
    cfg.numSchedulers = 8;
    cfg.latencies.sfu = 700;
    LoggedSm run(b.build(), cfg);
    arch::Sm &sm = run.sm;
    std::uint64_t idle = 0;
    std::array<std::uint64_t, arch::kNumStallCauses> gained{};
    while (!sm.done()) {
        std::vector<bool> running;
        std::vector<std::uint64_t> insns;
        std::vector<std::array<std::uint64_t, arch::kNumStallCauses>>
            rows;
        for (const arch::Warp &w : sm.warps()) {
            running.push_back(w.status() == arch::WarpStatus::Running);
            insns.push_back(w.insnsExecuted());
            rows.push_back(sm.warpStalls(w.id()));
        }
        sm.step();
        for (WarpId w = 0; w < sm.warps().size(); ++w) {
            if (!running[w])
                continue;
            const auto after = sm.warpStalls(w);
            std::uint64_t delta = 0;
            for (std::size_t c = 0; c < arch::kNumStallCauses; ++c) {
                delta += after[c] - rows[w][c];
                gained[c] += after[c] - rows[w][c];
            }
            const bool issued = sm.warps()[w].insnsExecuted() != insns[w];
            ASSERT_EQ(delta, issued ? 0u : 1u)
                << "warp " << w << " cycle " << sm.now() - 1;
            idle += issued ? 0 : 1;
        }
    }
    EXPECT_GT(idle, 0u);
    EXPECT_GT(gained[static_cast<std::size_t>(
                  arch::StallCause::MemPending)],
              0u);
    EXPECT_GT(gained[static_cast<std::size_t>(
                  arch::StallCause::ScoreboardDep)],
              0u);
    // The sleepers were left out of the scan (measured: 183 visits
    // over 739 cycles, against 8 per cycle without sleeping).
    EXPECT_LT(sm.stats().counter("scan_visits").value(),
              cfg.numWarps * sm.now() / 4);
}

TEST(SleepingWarps, SuspensionWakesSleepersAndKeepsRowsExact)
{
    // Tenant 1 is suspended while some of its warps sleep on pending
    // loads, then resumed. From the suspension cycle on, each of its
    // Running warps is charged no_warp and nothing else every cycle
    // (the sleeping run closes on that cycle), and step() and
    // stepSkipping() charge identical rows.
    const sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    const std::vector<ir::Kernel> kernels{workloads::makeRodinia("nn"),
                                          workloads::makeRodinia("nn")};
    const Cycle suspend_at = 1000, resume_at = 3000;
    const auto no_warp = static_cast<std::size_t>(arch::StallCause::NoWarp);
    auto tally = [&](bool skip) {
        sim::GpuSimulator gpu(kernels, cfg);
        arch::Sm &sm = gpu.sm();
        const WarpId lo = sm.tenantWarpBase(1);
        const WarpId hi = lo + sm.tenantWarpCount(1);
        unsigned sleepers = 0, mismatches = 0;
        while (!sm.done()) {
            const Cycle now = sm.now();
            if (now == suspend_at)
                sm.requestSuspend(1, now);
            if (now == resume_at)
                sm.resumeTenant(1, now);
            if (skip) {
                sm.stepSkipping(now < suspend_at  ? suspend_at
                                : now < resume_at ? resume_at
                                                  : now + 1'000'000);
                continue;
            }
            std::vector<std::array<std::uint64_t, arch::kNumStallCauses>>
                rows;
            for (WarpId w = lo; w < hi; ++w)
                rows.push_back(sm.warpStalls(w));
            sm.step();
            for (WarpId w = lo; w < hi; ++w) {
                if (sm.warps()[w].status() != arch::WarpStatus::Running)
                    continue;
                auto delta = sm.warpStalls(w);
                for (std::size_t c = 0; c < arch::kNumStallCauses; ++c)
                    delta[c] -= rows[w - lo][c];
                if (now + 1 == suspend_at) {
                    // Blocked on its scoreboard: asleep at suspension.
                    sleepers += delta[static_cast<std::size_t>(
                                    arch::StallCause::MemPending)] +
                                delta[static_cast<std::size_t>(
                                    arch::StallCause::ScoreboardDep)];
                } else if (now >= suspend_at && now < resume_at) {
                    std::array<std::uint64_t, arch::kNumStallCauses>
                        expect{};
                    expect[no_warp] = 1;
                    if (delta != expect && mismatches++ == 0) {
                        ADD_FAILURE() << "warp " << w << " cycle " << now
                                      << " not charged one no_warp";
                    }
                }
            }
        }
        EXPECT_EQ(mismatches, 0u);
        EXPECT_EQ(sm.tenantPreemptions(1), 1u);
        EXPECT_EQ(sm.tenantSuspendedCycles(1), resume_at - suspend_at);
        if (skip) {
            EXPECT_GT(sm.skippedCycles(), 0u);
        } else {
            EXPECT_GT(sleepers, 0u);
        }
        return SmTally(sm);
    };
    expectSameTally(tally(false), tally(true));
}

TEST(SleepingWarps, OneGroupOf128WarpsClosesItsAccount)
{
    // A single scheduler group of 128 warps: its sleep masks span two
    // words. Both step modes give the same RunStats and per-warp rows,
    // and issued + stalls == schedulers * cycles.
    sim::GpuConfig cfg =
        testutil::referenceConfig(sim::ProviderKind::Regless);
    cfg.sm.numWarps = 128;
    cfg.sm.numSchedulers = 1;
    const ir::Kernel kernel = workloads::makeRodinia("hotspot");
    auto run = [&](bool skip) {
        cfg.sm.cycleSkip = skip;
        sim::GpuSimulator gpu(kernel, cfg);
        const sim::RunStats stats = gpu.run();
        expectSlotInvariant(stats, 1, skip ? "skip" : "step");
        return std::make_pair(stats, SmTally(gpu.sm()));
    };
    const auto [stepped, stepped_rows] = run(false);
    const auto [skipped, skipped_rows] = run(true);
    EXPECT_EQ(testutil::withoutSkipMeta(stepped),
              testutil::withoutSkipMeta(skipped));
    EXPECT_GT(skipped.skippedCycles, 0u);
    expectSameTally(stepped_rows, skipped_rows);
}

TEST(SleepingWarps, HotspotScanVisitsPerCycleStayBounded)
{
    // Work counter (not in RunStats): the scan evaluates only awake
    // warps. Without sleeping it visits all 64 warps on every stepped
    // cycle.
    const sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    sim::GpuSimulator gpu(workloads::makeRodinia("hotspot"), cfg);
    gpu.run();
    arch::Sm &sm = gpu.sm();
    const double stepped =
        static_cast<double>(sm.now() - sm.skippedCycles());
    const double visits = static_cast<double>(
        sm.stats().counter("scan_visits").value());
    ASSERT_GT(stepped, 0.0);
    // Measured: 21652 visits over 5303 stepped cycles (4.08 each).
    EXPECT_GT(visits, 0.0);
    EXPECT_LE(visits / stepped, 8.0);
}

// ---------------------------------------------------------------------
// Gated sleepers: warps the RegLess capacity manager refuses sleep until
// the CM lists them on the provider's wake list.
// ---------------------------------------------------------------------

/** RegLess on hotspot, one warp per scheduler group, a small OSU. */
sim::GpuConfig
gatedConfig()
{
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    cfg.sm.numWarps = 8;
    cfg.sm.numSchedulers = 8;
    cfg.sm.scheduler = arch::SchedulerPolicy::Gto;
    cfg.setOsuCapacity(64);
    return cfg;
}

TEST(GatedSleepers, ReglessRowsGainOneCyclePerIdleStep)
{
    // One warp per group under GTO, so a Running warp that does not
    // issue in a cycle was blocked in it, asleep or not. Read after
    // every step, its row must have gained exactly one cycle, and
    // none when it issued; the CM's three causes must each show up.
    sim::GpuSimulator gpu(workloads::makeRodinia("hotspot"),
                          gatedConfig());
    arch::Sm &sm = gpu.sm();
    std::array<std::uint64_t, arch::kNumStallCauses> gained{};
    unsigned mismatches = 0;
    while (!sm.done()) {
        std::vector<bool> running;
        std::vector<std::uint64_t> insns;
        std::vector<std::array<std::uint64_t, arch::kNumStallCauses>>
            rows;
        for (const arch::Warp &w : sm.warps()) {
            running.push_back(w.status() == arch::WarpStatus::Running);
            insns.push_back(w.insnsExecuted());
            rows.push_back(sm.warpStalls(w.id()));
        }
        sm.step();
        for (WarpId w = 0; w < sm.warps().size(); ++w) {
            if (!running[w])
                continue;
            const auto after = sm.warpStalls(w);
            std::uint64_t delta = 0;
            for (std::size_t c = 0; c < arch::kNumStallCauses; ++c) {
                delta += after[c] - rows[w][c];
                gained[c] += after[c] - rows[w][c];
            }
            const bool issued = sm.warps()[w].insnsExecuted() != insns[w];
            if (delta != (issued ? 0u : 1u) && mismatches++ == 0) {
                ADD_FAILURE() << "warp " << w << " cycle " << sm.now() - 1
                              << " gained " << delta;
            }
        }
        ASSERT_LT(sm.now(), 1'000'000u);
    }
    EXPECT_EQ(mismatches, 0u);
    for (arch::StallCause c :
         {arch::StallCause::CmNotStaged, arch::StallCause::CmNoCapacity,
          arch::StallCause::MemPending}) {
        EXPECT_GT(gained[static_cast<std::size_t>(c)], 0u)
            << arch::stallCauseName(c);
    }
}

TEST(GatedSleepers, StepAndSkipChargeTheSameRows)
{
    auto tally = [](bool skip) {
        sim::GpuSimulator gpu(workloads::makeRodinia("hotspot"),
                              gatedConfig());
        arch::Sm &sm = gpu.sm();
        while (!sm.done()) {
            if (skip)
                sm.stepSkipping(sm.now() + 1'000'000);
            else
                sm.step();
        }
        if (skip) {
            EXPECT_GT(sm.skippedCycles(), 0u);
        }
        return SmTally(sm);
    };
    expectSameTally(tally(false), tally(true));
}

TEST(GatedSleepers, ReglessHotspotScanVisitsPerCycleStayBounded)
{
    // Work counter (not in RunStats). Measured: 3.23 visits per
    // stepped cycle, against 25.07 while warps the CM refused were
    // asked again every cycle.
    sim::GpuSimulator gpu(
        workloads::makeRodinia("hotspot"),
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless));
    gpu.run();
    arch::Sm &sm = gpu.sm();
    const double stepped =
        static_cast<double>(sm.now() - sm.skippedCycles());
    const double visits = static_cast<double>(
        sm.stats().counter("scan_visits").value());
    ASSERT_GT(stepped, 0.0);
    EXPECT_GT(visits, 0.0);
    EXPECT_LE(visits / stepped, 8.0);
}

// ---------------------------------------------------------------------
// Slot charge from counts: a group with nothing eligible is charged the
// least stallPrecedence over its awake blocked warps and its sleepers'
// per-cause counts, never by walking the group.
// ---------------------------------------------------------------------

/** Scheduler group of @a w (tenant t owns groups [t*S/T, (t+1)*S/T)). */
unsigned
groupOf(const arch::Sm &sm, WarpId w)
{
    const unsigned t = sm.tenantOfWarp(w);
    const unsigned groups = sm.tenantSchedulerCount(t);
    return t * groups + (w - sm.tenantWarpBase(t)) % groups;
}

/** The cause whose stallCauseName is @a label, or -1 ("issue"/"ready"). */
int
causeOfLabel(const char *label)
{
    for (std::size_t c = 0; c < arch::kNumStallCauses; ++c) {
        if (std::string(label) ==
            arch::stallCauseName(static_cast<arch::StallCause>(c))) {
            return static_cast<int>(c);
        }
    }
    return -1;
}

/**
 * Run @a gpu to completion with step() or stepSkipping(), calling
 * @a control before each step (it returns the skip limit). After
 * every step, rebuild each group's charge by walking the per-warp
 * labels of the stall trace (flushed every step, so each label covers
 * exactly the step's cycles; a sleeper's label is its frozen cause)
 * and check that the SM's and every tenant's slot counters moved by
 * exactly that charge, once per cycle the step covered. @return the
 * group-cycles charged to a cause other than no_warp.
 */
template <typename Control>
std::uint64_t
expectChargesMatchAWalk(sim::GpuSimulator &gpu, bool skip,
                        Control control)
{
    arch::Sm &sm = gpu.sm();
    std::vector<const char *> label(sm.warps().size(), nullptr);
    sm.setStallTraceHook(
        [&](WarpId w, const char *l, Cycle, Cycle) { label[w] = l; });
    const unsigned groups = [&] {
        unsigned n = 0;
        for (unsigned t = 0; t < sm.tenantCount(); ++t)
            n += sm.tenantSchedulerCount(t);
        return n;
    }();
    auto snapshot = [&] {
        std::vector<std::array<std::uint64_t, arch::kNumStallCauses>> s(
            sm.tenantCount() + 1);
        for (std::size_t c = 0; c < arch::kNumStallCauses; ++c) {
            const auto cause = static_cast<arch::StallCause>(c);
            s[0][c] = sm.stallSlots(cause);
            for (unsigned t = 0; t < sm.tenantCount(); ++t)
                s[t + 1][c] = sm.tenantStallSlots(t, cause);
        }
        return s;
    };
    std::uint64_t charged = 0;
    unsigned mismatches = 0;
    while (!sm.done()) {
        const Cycle before = sm.now();
        const Cycle limit = control(sm);
        const auto slots = snapshot();
        std::fill(label.begin(), label.end(), nullptr);
        if (skip)
            sm.stepSkipping(limit);
        else
            sm.step();
        sm.flushStallTrace();
        const Cycle cycles = sm.now() - before;

        // The walk: per group, "issue" takes the slot, else "ready"
        // means the policy declined it (no_warp), else the least
        // precedence over every warp's cause.
        std::vector<std::array<std::uint64_t, arch::kNumStallCauses>>
            expect(sm.tenantCount() + 1);
        std::vector<int> best(groups, -2); // -2: no warp seen
        std::vector<bool> issued(groups, false), ready(groups, false);
        for (WarpId w = 0; w < sm.warps().size(); ++w) {
            if (!label[w]) {
                ADD_FAILURE() << "warp " << w << " has no label";
                return charged;
            }
            const unsigned g = groupOf(sm, w);
            const int c = causeOfLabel(label[w]);
            if (c < 0) {
                (std::string(label[w]) == "issue" ? issued : ready)[g] =
                    true;
            } else if (best[g] < 0 ||
                       arch::stallPrecedence(
                           static_cast<arch::StallCause>(c)) <
                           arch::stallPrecedence(
                               static_cast<arch::StallCause>(best[g]))) {
                best[g] = c;
            }
        }
        for (unsigned g = 0; g < groups; ++g) {
            if (issued[g])
                continue;
            const auto c = static_cast<std::size_t>(
                ready[g] || best[g] < 0
                    ? static_cast<int>(arch::StallCause::NoWarp)
                    : best[g]);
            const unsigned t = g / sm.tenantSchedulerCount(0);
            expect[0][c] += cycles;
            expect[t + 1][c] += cycles;
            if (c != static_cast<std::size_t>(arch::StallCause::NoWarp))
                charged += cycles;
        }
        const auto after = snapshot();
        for (std::size_t k = 0; k < after.size(); ++k) {
            for (std::size_t c = 0; c < arch::kNumStallCauses; ++c) {
                if (after[k][c] - slots[k][c] != expect[k][c] &&
                    mismatches++ == 0) {
                    ADD_FAILURE()
                        << (k == 0 ? std::string("sm")
                                   : "tenant " + std::to_string(k - 1))
                        << " cycle " << before << " "
                        << arch::stallCauseName(
                               static_cast<arch::StallCause>(c))
                        << " moved " << after[k][c] - slots[k][c]
                        << ", the walk says " << expect[k][c];
                }
            }
        }
        if (sm.now() > 2'000'000)
            break;
    }
    EXPECT_TRUE(sm.done());
    EXPECT_EQ(mismatches, 0u);
    return charged;
}

TEST(SlotCharge, CountsMatchAWalkEveryCycle)
{
    const auto nothing = [](arch::Sm &sm) { return sm.now() + 1'000'000; };
    for (const bool skip : {false, true}) {
        SCOPED_TRACE(skip ? "stepSkipping" : "step");
        {
            // GTO; the CM's causes, several of them at once asleep.
            SCOPED_TRACE("regless gto");
            sim::GpuSimulator gpu(workloads::makeRodinia("hotspot"),
                                  gatedConfig());
            EXPECT_GT(expectChargesMatchAWalk(gpu, skip, nothing), 0u);
            if (skip) {
                EXPECT_GT(gpu.sm().skippedCycles(), 0u);
            }
        }
        {
            // Not quiescent when stalled: stepSkipping never skips.
            SCOPED_TRACE("two-level");
            sim::GpuConfig cfg =
                sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
            cfg.sm.scheduler = arch::SchedulerPolicy::TwoLevel;
            sim::GpuSimulator gpu(workloads::makeRodinia("hotspot"), cfg);
            EXPECT_GT(expectChargesMatchAWalk(gpu, skip, nothing), 0u);
        }
        {
            // Tenant 1 is suspended with warps asleep, then resumed.
            SCOPED_TRACE("suspended tenant");
            const std::vector<ir::Kernel> kernels{
                workloads::makeRodinia("nn"), workloads::makeRodinia("nn")};
            sim::GpuSimulator gpu(
                kernels,
                sim::GpuConfig::forProvider(sim::ProviderKind::Baseline));
            const Cycle suspend_at = 1000, resume_at = 3000;
            auto control = [&](arch::Sm &sm) {
                const Cycle now = sm.now();
                if (now == suspend_at)
                    sm.requestSuspend(1, now);
                if (now == resume_at)
                    sm.resumeTenant(1, now);
                // Skips land on the control cycles.
                return now < suspend_at  ? suspend_at
                       : now < resume_at ? resume_at
                                         : now + 1'000'000;
            };
            EXPECT_GT(expectChargesMatchAWalk(gpu, skip, control), 0u);
            EXPECT_EQ(gpu.sm().tenantSuspendedCycles(1),
                      resume_at - suspend_at);
            if (skip) {
                EXPECT_GT(gpu.sm().skippedCycles(), 0u);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Work counters of the long-stall feedback and the CM's activation.
// ---------------------------------------------------------------------

/** Forwards everything, but has no demotableMask(): hears all calls. */
class Unmasked : public arch::WarpScheduler
{
  public:
    explicit Unmasked(std::unique_ptr<arch::WarpScheduler> inner)
        : WarpScheduler(inner->warps()), _inner(std::move(inner))
    {
    }

    int
    pick(const std::vector<bool> &eligible) override
    {
        return _inner->pick(eligible);
    }

    void
    notifyLongStall(WarpId warp) override
    {
        _inner->notifyLongStall(warp);
    }

    bool
    quiescentWhenStalled() const override
    {
        return _inner->quiescentWhenStalled();
    }

  private:
    std::unique_ptr<arch::WarpScheduler> _inner;
};

TEST(WorkCounters, NotifiesGoOnlyToDemotableWarps)
{
    // Two-level hotspot: finished and long-stalled warps are flagged
    // every cycle, but only those the scheduler can demote are
    // notified. A decorator without a mask hears every flagged warp
    // and must see the same run.
    auto run = [](unsigned warps, bool unmasked) {
        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
        cfg.sm.scheduler = arch::SchedulerPolicy::TwoLevel;
        cfg.sm.numWarps = warps;
        sim::GpuSimulator gpu(workloads::makeRodinia("hotspot"), cfg);
        arch::Sm &sm = gpu.sm();
        for (unsigned g = 0; unmasked && g < cfg.sm.numSchedulers; ++g) {
            std::vector<WarpId> group;
            for (WarpId w = g; w < warps; w += cfg.sm.numSchedulers)
                group.push_back(w);
            sm.exchangeScheduler(
                g, std::make_unique<Unmasked>(arch::WarpScheduler::create(
                       cfg.sm.scheduler, group)));
        }
        const sim::RunStats stats = gpu.run();
        const auto stepped =
            static_cast<double>(sm.now() - sm.skippedCycles());
        return std::make_tuple(testutil::withoutSkipMeta(stats),
                               sm.stats().counter("notifies").value(),
                               stepped);
    };
    {
        const auto [masked, sent, stepped] = run(64, false);
        const auto [reference, heard, unused] = run(64, true);
        (void)unused;
        EXPECT_EQ(masked, reference);
        // Measured: 53.5 calls per stepped cycle, 56.4 unmasked. Most
        // are real demotions: each promotes a pending warp, which is
        // demoted in turn when it is flagged too.
        EXPECT_GT(sent, 0u);
        EXPECT_LT(sent, heard);
        EXPECT_LE(static_cast<double>(sent) / stepped, 64.0);
    }
    {
        // Four warps per group fill the active pool: nothing is ever
        // pending, so no call can act and none is sent.
        const auto [masked, sent, stepped] = run(16, false);
        const auto [reference, heard, unused] = run(16, true);
        (void)stepped;
        (void)unused;
        EXPECT_EQ(masked, reference);
        EXPECT_EQ(sent, 0u);
        EXPECT_GT(heard, 0u);
    }
}

TEST(WorkCounters, BlockedActivationsAreRetriedOnlyAfterAChange)
{
    // RegLess hotspot with a small OSU, stepped cycle by cycle:
    // activations block on capacity for many cycles, each charged,
    // but the fit check itself runs again only after the CM's or the
    // OSU's counts change.
    sim::GpuConfig cfg = gatedConfig();
    cfg.sm.cycleSkip = false;
    sim::GpuSimulator gpu(workloads::makeRodinia("hotspot"), cfg);
    gpu.run();
    auto &provider =
        static_cast<staging::ReglessProvider &>(gpu.provider());
    std::uint64_t retries = 0, blocked = 0, activations = 0;
    for (unsigned s = 0; s < provider.numShards(); ++s) {
        StatGroup &stats = provider.cm(s).stats();
        retries += stats.counter("activation_retries").value();
        blocked += stats.counter("activation_blocked_cycles").value();
        activations += provider.cm(s).activations();
    }
    ASSERT_GT(blocked, 0u);
    ASSERT_GT(activations, 0u);
    // Measured: 422 fit checks for 392 activations and 6481 blocked
    // cycles; retrying every blocked cycle made more checks than
    // there are blocked cycles.
    EXPECT_LT(retries, blocked / 4);
    EXPECT_LE(static_cast<double>(retries) /
                  static_cast<double>(activations),
              2.0);
}

TEST(WorkCounters, ScanVisitOutcomesAddUpAndAllOccur)
{
    // The scan's visits split by outcome: per run the parts sum to
    // scan_visits, and across a RegLess run, a residency-limited run
    // and a suspended tenant every outcome occurs.
    std::array<std::uint64_t, arch::kNumScanOutcomes> seen{};
    auto tally = [&](sim::GpuSimulator &gpu, bool suspend) {
        arch::Sm &sm = gpu.sm();
        while (!sm.done()) {
            if (suspend && sm.now() == 1000)
                sm.requestSuspend(1, sm.now());
            if (suspend && sm.now() == 3000)
                sm.resumeTenant(1, sm.now());
            sm.step();
        }
        std::uint64_t sum = 0;
        for (std::size_t o = 0; o < arch::kNumScanOutcomes; ++o) {
            const std::uint64_t n =
                sm.stats()
                    .counter(std::string("scan_visits_") +
                             arch::scanOutcomeName(
                                 static_cast<arch::ScanOutcome>(o)))
                    .value();
            sum += n;
            seen[o] += n;
        }
        EXPECT_EQ(sum, sm.stats().counter("scan_visits").value());
    };
    {
        sim::GpuSimulator gpu(
            workloads::makeRodinia("hotspot"),
            sim::GpuConfig::forProvider(sim::ProviderKind::Regless));
        tally(gpu, false);
    }
    {
        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
        cfg.sm.maxResidentWarps = 32;
        sim::GpuSimulator gpu(workloads::makeRodinia("backprop"), cfg);
        tally(gpu, false);
    }
    {
        const std::vector<ir::Kernel> kernels{workloads::makeRodinia("nn"),
                                              workloads::makeRodinia("nn")};
        sim::GpuSimulator gpu(
            kernels,
            sim::GpuConfig::forProvider(sim::ProviderKind::Baseline));
        tally(gpu, true);
    }
    for (std::size_t o = 0; o < arch::kNumScanOutcomes; ++o) {
        EXPECT_GT(seen[o], 0u)
            << arch::scanOutcomeName(static_cast<arch::ScanOutcome>(o));
    }
}

} // namespace
} // namespace regless
