/**
 * @file
 * Per-run results: timing, traffic, provider activity, and energy.
 * Everything the benches need to regenerate the paper's tables and
 * figures comes out of this structure.
 */

#ifndef REGLESS_SIM_RUN_STATS_HH
#define REGLESS_SIM_RUN_STATS_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "arch/stall.hh"
#include "common/types.hh"
#include "energy/energy_model.hh"
#include "sim/gpu_config.hh"

namespace regless::sim
{

/**
 * Per-tenant accounting for one multi-tenant run (DESIGN.md §16).
 * One lane per co-resident kernel; the lane's issue-slot account is
 * closed on its own — insns issued + stalls == the tenant's scheduler
 * slots × cycles — and the lanes sum to the whole-SM invariant.
 */
struct TenantLane
{
    std::string kernel;
    std::uint64_t insns = 0;
    std::uint64_t issuedSlots = 0;
    std::array<std::uint64_t, arch::kNumStallCauses> stallSlots{};
    /** Cycle the tenant's last warp retired (its solo runtime under
     *  co-residency; the LS tenant's tail latency). */
    Cycle finishCycle = 0;
    /** Cycles spent suspended by the QoS controller. */
    std::uint64_t suspendedCycles = 0;
    /** Region-boundary preemptions taken. */
    std::uint64_t preemptions = 0;

    bool operator==(const TenantLane &) const = default;
};

/** Everything measured in one kernel execution. */
struct RunStats
{
    std::string kernel;
    ProviderKind provider = ProviderKind::Baseline;

    /** @name Timing. */
    /// @{
    Cycle cycles = 0;
    std::uint64_t insns = 0;
    std::uint64_t metadataInsns = 0; ///< dynamic metadata fetches
    /// @}

    /** @name Memory hierarchy. */
    /// @{
    std::uint64_t l1Accesses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t dramAccesses = 0;
    /// @}

    /** @name Register-structure activity (per provider). */
    /// @{
    std::uint64_t rfReads = 0;
    std::uint64_t rfWrites = 0;
    std::uint64_t renameLookups = 0;
    std::uint64_t lrfAccesses = 0;
    std::uint64_t orfAccesses = 0;
    std::uint64_t mrfAccesses = 0;
    std::uint64_t osuAccesses = 0;
    std::uint64_t osuTagLookups = 0;
    std::uint64_t osuBankConflicts = 0;
    std::uint64_t compressorAccesses = 0;
    std::uint64_t compressorMatches = 0;
    std::uint64_t compressorIncompressible = 0;
    /** @name Static compression (DESIGN.md §14). */
    /** Evictions compressed via a compile-time proven encoding. */
    std::uint64_t compressorStaticHits = 0;
    /** Evictions whose value escaped its proven encoding. */
    std::uint64_t compressorStaticUnsound = 0;
    /** Sum over cycles of OSU banks power-gated as provably empty. */
    std::uint64_t osuGatedBankCycles = 0;
    /** Compiler-assisted RF cache (DESIGN.md §13.2). */
    std::uint64_t rfCacheHits = 0;
    std::uint64_t rfCacheMisses = 0;
    /** RegDem demotion traffic (DESIGN.md §13.3). */
    std::uint64_t spillStores = 0;
    std::uint64_t fillLoads = 0;
    /// @}

    /** @name RegLess preload/traffic detail (Figures 17, 18). */
    /// @{
    std::uint64_t preloadSrcOsu = 0;
    std::uint64_t preloadSrcCompressor = 0;
    std::uint64_t preloadSrcL1 = 0;
    std::uint64_t preloadSrcL2Dram = 0;
    std::uint64_t l1PreloadReqs = 0;
    std::uint64_t l1StoreReqs = 0;
    std::uint64_t l1InvalidateReqs = 0;
    /// @}

    /** @name Issue-slot attribution (DESIGN.md section 10). */
    /// @{
    /** Scheduler slots that issued (one per scheduler per cycle). */
    std::uint64_t issuedSlots = 0;
    /** Slots lost, charged to exactly one cause each; indexed by
     *  arch::StallCause. issuedSlots + sum == schedulers * cycles
     *  per SM (summed over SMs in multi-SM runs). */
    std::array<std::uint64_t, arch::kNumStallCauses> stallSlots{};
    /** @name Cycle-skip meta-counters (DESIGN.md §12). Zero in
     *  skip-off reference runs; excluded from differential oracles. */
    /** Cycles collapsed by the skip-ahead engine. */
    std::uint64_t skippedCycles = 0;
    /** Skip jumps taken. */
    std::uint64_t skipEvents = 0;
    /// @}

    /** Mean register working set per 100 cycles, bytes (Figure 2). */
    double meanWorkingSetBytes = 0.0;

    /** Backing-store accesses per 100 cycles over time (Figure 3). */
    std::vector<double> backingSeries;

    /** @name Dynamic region behaviour (Figure 19, Table 2). */
    /// @{
    double regionPreloadsMean = 0.0;
    double regionLiveMean = 0.0;
    double regionLiveStddev = 0.0;
    double regionCyclesMean = 0.0;
    double regionInsnsMean = 0.0;
    double staticInsnsPerRegion = 0.0;
    unsigned numRegions = 0;
    /// @}

    /** Per-tenant lanes; empty for single-tenant runs, so classic
     *  results keep their exact serialized form. */
    std::vector<TenantLane> tenants;

    /** Energy under the model (filled by computeEnergy). */
    energy::EnergyBreakdown energy;

    /** Total preloads (all sources). */
    std::uint64_t
    totalPreloads() const
    {
        return preloadSrcOsu + preloadSrcCompressor + preloadSrcL1 +
               preloadSrcL2Dram;
    }

    /** Exact equality over every member (doubles compared with ==,
     *  skip counters included): the determinism tests' oracle. */
    bool operator==(const RunStats &) const = default;
};

/**
 * @name Field tables (DESIGN.md §7)
 * One row per member of RunStats, TenantLane and EnergyBreakdown: its
 * JSON key, the member and its merge rule, in JSON emission order.
 * accumulate() and the stats_io writer and reader walk these rows. A
 * row whose member is a struct with a table, a vector of those or a
 * per-stall-cause array is nested: its key prefixes the inner keys
 * ("energy_" "reg_dynamic", "tenant" "0_" "insns", "stall_" "mem_data").
 */
/// @{

/** How accumulate() merges a row; nested rows merge element-wise. */
enum class Merge
{
    Sum,   ///< counters and energies
    Max,   ///< wall-clock cycles: the slowest part's
    First, ///< identity, means and series: keep the destination's
};

template <typename Owner, typename T>
struct Field
{
    using Type = T;
    std::string_view key;
    /** A data member, or a const member function for a derived value
     *  that is written but never read back (energy_total). */
    T Owner::*member;
    Merge merge;
};

inline constexpr std::tuple kEnergyFields{
    Field{"reg_dynamic", &energy::EnergyBreakdown::regDynamic, Merge::Sum},
    Field{"reg_static", &energy::EnergyBreakdown::regStatic, Merge::Sum},
    Field{"compressor", &energy::EnergyBreakdown::compressor, Merge::Sum},
    Field{"memory", &energy::EnergyBreakdown::memory, Merge::Sum},
    Field{"rest", &energy::EnergyBreakdown::rest, Merge::Sum},
    Field{"total", &energy::EnergyBreakdown::total, Merge::Sum},
};

inline constexpr std::tuple kTenantLaneFields{
    Field{"kernel", &TenantLane::kernel, Merge::First},
    Field{"insns", &TenantLane::insns, Merge::Sum},
    Field{"issued_slots", &TenantLane::issuedSlots, Merge::Sum},
    Field{"stall_", &TenantLane::stallSlots, Merge::Sum},
    Field{"finish_cycle", &TenantLane::finishCycle, Merge::Max},
    Field{"suspended_cycles", &TenantLane::suspendedCycles, Merge::Sum},
    Field{"preemptions", &TenantLane::preemptions, Merge::Sum},
};

inline constexpr std::tuple kRunStatsFields{
    Field{"kernel", &RunStats::kernel, Merge::First},
    Field{"provider", &RunStats::provider, Merge::First},
    Field{"cycles", &RunStats::cycles, Merge::Max},
    Field{"insns", &RunStats::insns, Merge::Sum},
    Field{"metadata_insns", &RunStats::metadataInsns, Merge::Sum},
    Field{"l1_accesses", &RunStats::l1Accesses, Merge::Sum},
    Field{"l2_accesses", &RunStats::l2Accesses, Merge::Sum},
    Field{"dram_accesses", &RunStats::dramAccesses, Merge::Sum},
    Field{"rf_reads", &RunStats::rfReads, Merge::Sum},
    Field{"rf_writes", &RunStats::rfWrites, Merge::Sum},
    Field{"rename_lookups", &RunStats::renameLookups, Merge::Sum},
    Field{"lrf_accesses", &RunStats::lrfAccesses, Merge::Sum},
    Field{"orf_accesses", &RunStats::orfAccesses, Merge::Sum},
    Field{"mrf_accesses", &RunStats::mrfAccesses, Merge::Sum},
    Field{"osu_accesses", &RunStats::osuAccesses, Merge::Sum},
    Field{"osu_tag_lookups", &RunStats::osuTagLookups, Merge::Sum},
    Field{"osu_bank_conflicts", &RunStats::osuBankConflicts, Merge::Sum},
    Field{"compressor_accesses", &RunStats::compressorAccesses,
          Merge::Sum},
    Field{"compressor_matches", &RunStats::compressorMatches, Merge::Sum},
    Field{"compressor_incompressible",
          &RunStats::compressorIncompressible, Merge::Sum},
    Field{"compressor_static_hits", &RunStats::compressorStaticHits,
          Merge::Sum},
    Field{"compressor_static_unsound", &RunStats::compressorStaticUnsound,
          Merge::Sum},
    Field{"osu_gated_bank_cycles", &RunStats::osuGatedBankCycles,
          Merge::Sum},
    Field{"rf_cache_hits", &RunStats::rfCacheHits, Merge::Sum},
    Field{"rf_cache_misses", &RunStats::rfCacheMisses, Merge::Sum},
    Field{"spill_stores", &RunStats::spillStores, Merge::Sum},
    Field{"fill_loads", &RunStats::fillLoads, Merge::Sum},
    Field{"preload_src_osu", &RunStats::preloadSrcOsu, Merge::Sum},
    Field{"preload_src_compressor", &RunStats::preloadSrcCompressor,
          Merge::Sum},
    Field{"preload_src_l1", &RunStats::preloadSrcL1, Merge::Sum},
    Field{"preload_src_l2dram", &RunStats::preloadSrcL2Dram, Merge::Sum},
    Field{"l1_preload_reqs", &RunStats::l1PreloadReqs, Merge::Sum},
    Field{"l1_store_reqs", &RunStats::l1StoreReqs, Merge::Sum},
    Field{"l1_invalidate_reqs", &RunStats::l1InvalidateReqs, Merge::Sum},
    Field{"issued_slots", &RunStats::issuedSlots, Merge::Sum},
    Field{"stall_", &RunStats::stallSlots, Merge::Sum},
    Field{"skipped_cycles", &RunStats::skippedCycles, Merge::Sum},
    Field{"skip_events", &RunStats::skipEvents, Merge::Sum},
    Field{"working_set_bytes", &RunStats::meanWorkingSetBytes,
          Merge::First},
    Field{"region_preloads_mean", &RunStats::regionPreloadsMean,
          Merge::First},
    Field{"region_live_mean", &RunStats::regionLiveMean, Merge::First},
    Field{"region_live_stddev", &RunStats::regionLiveStddev,
          Merge::First},
    Field{"region_cycles_mean", &RunStats::regionCyclesMean,
          Merge::First},
    Field{"region_insns_mean", &RunStats::regionInsnsMean, Merge::First},
    Field{"static_insns_per_region", &RunStats::staticInsnsPerRegion,
          Merge::First},
    Field{"num_regions", &RunStats::numRegions, Merge::First},
    Field{"energy_", &RunStats::energy, Merge::Sum},
    Field{"backing_series", &RunStats::backingSeries, Merge::First},
    // "tenant_count", then "tenant<t>_<lane key>" for each lane.
    Field{"tenant", &RunStats::tenants, Merge::Sum},
};

template <typename S>
concept HasFields = std::is_same_v<S, RunStats> ||
                    std::is_same_v<S, TenantLane> ||
                    std::is_same_v<S, energy::EnergyBreakdown>;

template <typename T>
inline constexpr bool kIsTableVector = false;
template <HasFields T>
inline constexpr bool kIsTableVector<std::vector<T>> = true;

/** Per-stall-cause counters, keyed "<prefix><stallCauseName>". */
using StallCounts = std::array<std::uint64_t, arch::kNumStallCauses>;

/** The member type of a row (a function type for a derived row). */
template <typename Row>
using FieldType = typename std::remove_cvref_t<Row>::Type;

/** Call @a fn on every row of @a S's table, in order. */
template <HasFields S, typename Fn>
constexpr void
forEachField(Fn &&fn)
{
    const auto &table = []() -> const auto & {
        if constexpr (std::is_same_v<S, RunStats>)
            return kRunStatsFields;
        else if constexpr (std::is_same_v<S, TenantLane>)
            return kTenantLaneFields;
        else
            return kEnergyFields;
    }();
    std::apply([&](const auto &...row) { (fn(row), ...); }, table);
}

/// @}

/**
 * Merge @a from into @a into row by row under each row's rule. The
 * multi-tenant harvest (per-tenant provider counters) and the multi-SM
 * totals (per-SM records, in SM-id order) both use it.
 */
void accumulate(RunStats &into, const RunStats &from);

/** Fill @a stats.energy from its counters under @a config's model. */
void computeEnergy(RunStats &stats, const GpuConfig &config);

/** The "No RF" bound: @a baseline's run with free register accesses. */
energy::EnergyBreakdown noRfBound(const RunStats &baseline);

} // namespace regless::sim

#endif // REGLESS_SIM_RUN_STATS_HH
