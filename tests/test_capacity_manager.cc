/**
 * @file
 * Capacity-manager state-machine tests, driven through a real SM so
 * warp state and annotations are authentic: activation gating,
 * per-bank reservations, drain behaviour, occupancy-limited residency,
 * and conservation invariants checked every cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "arch/sm.hh"
#include "compiler/compiler.hh"
#include "mem/memory_system.hh"
#include "regfile/baseline_rf.hh"
#include "regless/regless_provider.hh"
#include "sim/experiment.hh"
#include "sim/gpu_simulator.hh"
#include "workloads/kernel_builder.hh"
#include "workloads/random_kernel.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

using staging::CmState;
using staging::osuBanks;
using staging::ReglessConfig;
using staging::ReglessProvider;
using workloads::KernelBuilder;

struct CmRun
{
    explicit CmRun(ir::Kernel k,
                   ReglessConfig rcfg = ReglessConfig(),
                   arch::SmConfig scfg = arch::SmConfig())
        : ck(compiler::compile(k)),
          mem(),
          provider(ck, mem, rcfg, scfg.numWarps),
          sm(ck, mem, provider, scfg)
    {
        provider.setWarpSource(
            [this](WarpId w) -> const arch::Warp & {
                return sm.warp(w);
            });
    }
    compiler::CompiledKernel ck;
    mem::MemorySystem mem;
    ReglessProvider provider;
    arch::Sm sm;
};

ir::Kernel
twoRegionKernel()
{
    KernelBuilder b("two_region");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId v = b.ld(addr);
    RegId w = b.iaddi(v, 1);
    b.st(w, addr, 65536);
    return b.build();
}

TEST(CmStateTest, WarpsStartInactiveThenActivate)
{
    CmRun run(twoRegionKernel());
    // Before any tick nothing is active.
    unsigned active0 = 0;
    for (WarpId w = 0; w < 64; ++w)
        active0 += run.provider.cm(w % 4).state(w) == CmState::Active;
    EXPECT_EQ(active0, 0u);

    // After a few cycles the capacity managers activate warps.
    for (int i = 0; i < 20; ++i)
        run.sm.step();
    unsigned active = 0;
    for (WarpId w = 0; w < 64; ++w)
        active += run.provider.cm(w % 4).state(w) == CmState::Active;
    EXPECT_GT(active, 0u);
}

TEST(CmStateTest, AllWarpsReachDoneState)
{
    CmRun run(twoRegionKernel());
    run.sm.run();
    for (WarpId w = 0; w < 64; ++w)
        EXPECT_EQ(run.provider.cm(w % 4).state(w), CmState::Done);
    // And the OSUs are completely empty.
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(run.provider.osu(s).occupiedLines(), 0u);
}

TEST(CmInvariantTest, ReservationsNeverExceedAvailability)
{
    // Step a capacity-stressed run and verify, every cycle, that each
    // bank's reserved-but-unallocated lines fit in what is reclaimable.
    ReglessConfig rcfg;
    rcfg.osuEntriesPerSm = 128;
    arch::SmConfig scfg;
    sim::GpuConfig gc = sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    gc.setOsuCapacity(128);

    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("dwt2d"), gc.compiler);
    mem::MemorySystem mem;
    rcfg.osuEntriesPerSm = 128;
    ReglessProvider provider(ck, mem, rcfg, scfg.numWarps);
    arch::Sm sm(ck, mem, provider, scfg);
    provider.setWarpSource(
        [&sm](WarpId w) -> const arch::Warp & { return sm.warp(w); });

    for (int cycle = 0; cycle < 150000 && !sm.done(); ++cycle) {
        sm.step();
        for (unsigned s = 0; s < 4; ++s) {
            for (unsigned b = 0; b < osuBanks; ++b) {
                auto c = provider.osu(s).bankCounts(b);
                int avail = static_cast<int>(c.free + c.clean + c.dirty);
                ASSERT_GE(avail, provider.cm(s).reservedFuture(b))
                    << "cycle " << cycle << " shard " << s << " bank "
                    << b;
            }
        }
    }
    EXPECT_TRUE(sm.done());
}

TEST(CmInvariantTest, MaintainedCountsMatchARecountEveryCycle)
{
    // The CM keeps its Preloading and Draining counts and earliest
    // drain end instead of walking its warps every tick. Two tenants
    // run random kernels on a small OSU to completion; tenant 1 is
    // suspended and resumed at seeded cycles. After every step each
    // CM's maintained values must equal a recount.
    constexpr Cycle kNever = ~Cycle{0};
    for (const std::uint64_t seed : {3u, 11u, 29u}) {
        std::mt19937_64 rng(seed);
        sim::GpuConfig gc =
            sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
        gc.setOsuCapacity(128);
        const arch::SmConfig scfg;
        const compiler::CompiledKernel ck0 =
            compiler::compile(workloads::randomKernel(seed), gc.compiler);
        const compiler::CompiledKernel ck1 = compiler::compile(
            workloads::randomKernel(seed + 1), gc.compiler);
        mem::MemorySystem mem;
        const unsigned half = scfg.numWarps / 2;
        ReglessProvider p0(ck0, mem, gc.regless, scfg.numWarps, 0, half);
        ReglessProvider p1(ck1, mem, gc.regless, scfg.numWarps, half,
                           half);
        arch::Sm sm({{&ck0, &p0, scfg.dataBase, scfg.sharedBase},
                     {&ck1, &p1, scfg.dataBase + gc.tenants.dataStride,
                      scfg.sharedBase + gc.tenants.sharedStride}},
                    mem, scfg);
        for (ReglessProvider *p : {&p0, &p1}) {
            p->setWarpSource([&sm](WarpId w) -> const arch::Warp & {
                return sm.warp(w);
            });
        }
        const Cycle suspend_at = 100 + rng() % 400;
        Cycle resume_at = kNever;
        unsigned most_preloading = 0, most_draining = 0;
        while (!sm.done()) {
            if (sm.now() == suspend_at)
                sm.requestSuspend(1, sm.now());
            if (resume_at == kNever && sm.tenantSuspended(1))
                resume_at = sm.now() + 1 + rng() % 1000;
            if (sm.now() == resume_at)
                sm.resumeTenant(1, sm.now());
            sm.step();
            for (ReglessProvider *p : {&p0, &p1}) {
                for (unsigned s = 0; s < p->numShards(); ++s) {
                    const staging::CapacityManager &cm = p->cm(s);
                    unsigned preloading = 0, draining = 0;
                    Cycle drain_end = regfile::kNoProviderEvent;
                    for (WarpId w : cm.shardWarps()) {
                        preloading += cm.state(w) == CmState::Preloading;
                        if (cm.state(w) == CmState::Draining) {
                            ++draining;
                            drain_end =
                                std::min(drain_end, cm.drainUntil(w));
                        }
                    }
                    ASSERT_EQ(cm.preloadingWarps(), preloading)
                        << "seed " << seed << " cycle " << sm.now() - 1;
                    ASSERT_EQ(cm.drainingWarps(), draining)
                        << "seed " << seed << " cycle " << sm.now() - 1;
                    ASSERT_EQ(cm.earliestDrainEnd(), drain_end)
                        << "seed " << seed << " cycle " << sm.now() - 1;
                    most_preloading = std::max(most_preloading, preloading);
                    most_draining = std::max(most_draining, draining);
                }
            }
            ASSERT_LT(sm.now(), 2'000'000u) << "seed " << seed;
        }
        EXPECT_EQ(sm.tenantPreemptions(1), 1u) << "seed " << seed;
        EXPECT_GT(sm.tenantSuspendedCycles(1), 0u) << "seed " << seed;
        EXPECT_GT(most_preloading, 0u) << "seed " << seed;
        EXPECT_GT(most_draining, 0u) << "seed " << seed;
    }
}

TEST(CmInvariantTest, BankOccupancyNeverExceedsLines)
{
    CmRun run(workloads::makeRodinia("heartwall"));
    unsigned lines = run.provider.osu(0).linesPerBank();
    for (int cycle = 0; cycle < 20000 && !run.sm.done(); ++cycle) {
        run.sm.step();
        for (unsigned s = 0; s < 4; ++s) {
            for (unsigned b = 0; b < osuBanks; ++b) {
                auto c = run.provider.osu(s).bankCounts(b);
                ASSERT_EQ(c.owned + c.clean + c.dirty + c.free, lines);
            }
        }
    }
    EXPECT_TRUE(run.sm.done());
}

TEST(CmStateTest, ActiveWarpsBoundedByCapacity)
{
    // With 128 entries (4 lines/bank/shard) only a few warps can hold
    // regions simultaneously.
    ReglessConfig rcfg;
    rcfg.osuEntriesPerSm = 128;
    sim::GpuConfig gc =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    gc.setOsuCapacity(128);
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("lud"), gc.compiler);
    mem::MemorySystem mem;
    ReglessProvider provider(ck, mem, rcfg, 64);
    arch::SmConfig scfg;
    arch::Sm sm(ck, mem, provider, scfg);
    provider.setWarpSource(
        [&sm](WarpId w) -> const arch::Warp & { return sm.warp(w); });

    unsigned peak_active = 0;
    for (int cycle = 0; cycle < 30000 && !sm.done(); ++cycle) {
        sm.step();
        unsigned active = 0;
        for (WarpId w = 0; w < 64; ++w) {
            CmState s = provider.cm(w % 4).state(w);
            active += (s == CmState::Active || s == CmState::Preloading ||
                       s == CmState::Draining);
        }
        peak_active = std::max(peak_active, active);
    }
    EXPECT_TRUE(sm.done());
    EXPECT_LT(peak_active, 48u); // far below all 64
    EXPECT_GT(peak_active, 2u);
}

TEST(CmStateTest, MetadataCountedPerActivation)
{
    CmRun run(twoRegionKernel());
    run.sm.run();
    std::uint64_t meta = 0, activations = 0;
    for (unsigned s = 0; s < 4; ++s) {
        meta += run.provider.cm(s).stats().counter("metadata_insns")
                    .value();
        activations +=
            run.provider.cm(s).stats().counter("activations").value();
    }
    EXPECT_GT(meta, 0u);
    EXPECT_GE(meta, activations); // >= 1 metadata insn per region
}

TEST(CmStateTest, BlockedActivationRetriesWhenOsuLinesFree)
{
    // Fill every line of shard 0's OSU from outside its CM: the CM's
    // activations block on capacity, cycle after cycle. Freeing the
    // lines changes only the OSU's counts, none of the CM's own state,
    // and the next tick must activate all the same.
    CmRun run(twoRegionKernel());
    staging::OperandStagingUnit &osu = run.provider.osu(0);
    staging::CapacityManager &cm = run.provider.cm(0);
    const WarpId outsider = 1000;
    const auto lines = static_cast<RegId>(osu.linesPerBank() * osuBanks);
    for (RegId reg = 0; reg < lines; ++reg)
        osu.allocate(outsider, reg, /*dirty=*/false);
    Counter &blocked = cm.stats().counter("activation_blocked_cycles");
    for (int i = 0; i < 20; ++i)
        run.sm.step();
    EXPECT_EQ(cm.activations(), 0u);
    EXPECT_EQ(blocked.value(), 20u);
    EXPECT_EQ(cm.state(0), CmState::Inactive);

    for (RegId reg = 0; reg < lines; ++reg)
        osu.erase(outsider, reg);
    run.sm.step();
    EXPECT_EQ(blocked.value(), 20u);
    EXPECT_NE(cm.state(0), CmState::Inactive);
}

TEST(OccupancyTest, ResidencyLimitsBaselineButNotRegless)
{
    // ~40 names per warp -> a 256-entry RF fits few warps.
    KernelBuilder b("occupancy");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId acc = b.movi(0);
    for (int k = 0; k < 36; ++k)
        acc = b.iadd(acc, b.iaddi(t, k));
    b.st(acc, addr);
    ir::Kernel kernel = b.build();

    sim::GpuConfig limited =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    limited.baselineRfEntries = 256;
    limited.limitOccupancyByRf = true;
    sim::GpuConfig unlimited =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);

    sim::RunStats slow = sim::runKernel(kernel, limited);
    sim::RunStats fast = sim::runKernel(kernel, unlimited);
    EXPECT_GT(slow.cycles, fast.cycles);
    // Same amount of work either way.
    EXPECT_EQ(slow.insns, fast.insns);

    // RegLess is never residency-limited.
    sim::GpuConfig rl =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    rl.baselineRfEntries = 256;
    rl.limitOccupancyByRf = true;
    sim::RunStats rl_stats = sim::runKernel(kernel, rl);
    EXPECT_LT(rl_stats.cycles, slow.cycles);
}

TEST(OccupancyTest, BarrierKernelsSafeUnderResidencyLimit)
{
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    cfg.limitOccupancyByRf = true;
    cfg.baselineRfEntries = 128; // extreme: one block at a time
    sim::RunStats stats =
        sim::runKernel(workloads::makeRodinia("pathfinder"), cfg);
    EXPECT_GT(stats.cycles, 0u); // completed: no barrier deadlock
}

} // namespace
} // namespace regless
