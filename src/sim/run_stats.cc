#include "sim/run_stats.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "sim/provider_registry.hh"

namespace regless::sim
{

namespace
{

/*
 * Field-count tripwires (the gpu_config.cc idiom): each binding names
 * every member, so adding or removing a member breaks the build until
 * the binding names it, and the static_asserts below then break the
 * build until the member has its row in the table. BIND_EVERY_MEMBER
 * binds the names and returns how many it bound.
 */
#define BIND_EVERY_MEMBER(s, ...)                                      \
    const auto &[__VA_ARGS__] = s;                                     \
    return std::tuple_size<decltype(std::tie(__VA_ARGS__))>{}

auto
boundMembers(const RunStats &s)
{
    BIND_EVERY_MEMBER(
        s, kernel, provider, cycles, insns, metadata_insns, l1_accesses,
        l2_accesses, dram_accesses, rf_reads, rf_writes, rename_lookups,
        lrf_accesses, orf_accesses, mrf_accesses, osu_accesses,
        osu_tag_lookups, osu_bank_conflicts, compressor_accesses,
        compressor_matches, compressor_incompressible,
        compressor_static_hits, compressor_static_unsound,
        osu_gated_bank_cycles, rf_cache_hits, rf_cache_misses,
        spill_stores, fill_loads, preload_src_osu, preload_src_compressor,
        preload_src_l1, preload_src_l2dram, l1_preload_reqs,
        l1_store_reqs, l1_invalidate_reqs, issued_slots, stall_slots,
        skipped_cycles, skip_events, mean_working_set_bytes,
        backing_series, region_preloads_mean, region_live_mean,
        region_live_stddev, region_cycles_mean, region_insns_mean,
        static_insns_per_region, num_regions, tenants, energy);
}

auto
boundMembers(const TenantLane &lane)
{
    BIND_EVERY_MEMBER(lane, kernel, insns, issued_slots, stall_slots,
                      finish_cycle, suspended_cycles, preemptions);
}

auto
boundMembers(const energy::EnergyBreakdown &e)
{
    BIND_EVERY_MEMBER(e, reg_dynamic, reg_static, compressor, memory,
                      rest);
}

#undef BIND_EVERY_MEMBER

/** Rows that store a member; derived rows do not. Fails constant
 *  evaluation on a rule accumulate() would ignore: only numbers add
 *  or compare, and nested rows always merge element-wise. */
template <typename S>
constexpr std::size_t
memberRows()
{
    std::size_t rows = 0;
    forEachField<S>([&](const auto &row) {
        using T = FieldType<decltype(row)>;
        if constexpr (!std::is_function_v<T>) {
            constexpr bool nested = HasFields<T> || kIsTableVector<T>;
            constexpr bool numeric = std::is_arithmetic_v<T> ||
                                     std::is_same_v<T, StallCounts>;
            if (nested ? row.merge != Merge::Sum
                       : !numeric && row.merge != Merge::First)
                throw "merge rule does not fit the member's type";
            ++rows;
        }
    });
    return rows;
}

template <typename S>
constexpr bool kEveryMemberHasARow =
    decltype(boundMembers(std::declval<const S &>()))::value ==
    memberRows<S>();

static_assert(kEveryMemberHasARow<RunStats>);
static_assert(kEveryMemberHasARow<TenantLane>);
static_assert(kEveryMemberHasARow<energy::EnergyBreakdown>);

template <typename T>
void
mergeValue(Merge rule, T &into, const T &from)
{
    if (rule == Merge::Sum)
        into += from;
    else if (rule == Merge::Max)
        into = std::max(into, from);
}

template <typename S>
void
accumulateFields(S &into, const S &from)
{
    forEachField<S>([&](const auto &row) {
        using T = FieldType<decltype(row)>;
        if constexpr (!std::is_function_v<T>) {
            T &to = into.*row.member;
            const T &add = from.*row.member;
            if constexpr (HasFields<T>) {
                accumulateFields(to, add);
            } else if constexpr (kIsTableVector<T>) {
                for (std::size_t i = 0; i < add.size(); ++i) {
                    if (i < to.size())
                        accumulateFields(to[i], add[i]);
                    else
                        to.push_back(add[i]);
                }
            } else if constexpr (std::is_same_v<T, StallCounts>) {
                for (std::size_t c = 0; c < to.size(); ++c)
                    mergeValue(row.merge, to[c], add[c]);
            } else if constexpr (std::is_arithmetic_v<T>) {
                mergeValue(row.merge, to, add);
            }
        }
    });
}

} // namespace

void
accumulate(RunStats &into, const RunStats &from)
{
    accumulateFields(into, from);
}

void
computeEnergy(RunStats &stats, const GpuConfig &config)
{
    const energy::EnergyConfig &e = config.energy;
    energy::EnergyBreakdown out;

    const double cycles = static_cast<double>(stats.cycles);
    // Register-structure terms are per-design: the provider's registry
    // descriptor fills regDynamic/regStatic/compressor.
    providerDescriptor(stats.provider)
        .registerEnergy(stats, config, out);

    out.memory = static_cast<double>(stats.l1Accesses) * e.l1Access +
                 static_cast<double>(stats.l2Accesses) * e.l2Access +
                 static_cast<double>(stats.dramAccesses) * e.dramAccess;
    out.rest = static_cast<double>(stats.insns) * e.restPerInsn +
               static_cast<double>(stats.metadataInsns) *
                   e.metadataInsnEnergy +
               e.restStaticPerCycle * cycles;

    stats.energy = out;
}

energy::EnergyBreakdown
noRfBound(const RunStats &baseline)
{
    if (baseline.provider != ProviderKind::Baseline)
        fatal("the No-RF bound is defined relative to a baseline run");
    energy::EnergyBreakdown bound = baseline.energy;
    bound.regDynamic = 0.0;
    bound.regStatic = 0.0;
    bound.compressor = 0.0;
    return bound;
}

} // namespace regless::sim
