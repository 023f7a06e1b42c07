#include "sim/gpu_config.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <string_view>

#include "common/logging.hh"

namespace regless::sim
{

/*
 * providerName / tryProviderFromName / providerFromName / forProvider
 * live in sim/provider_registry.cc: they are single-table lookups over
 * the provider registry, so a provider missing from the registry
 * cannot have a name or a canonical config.
 */

void
GpuConfig::setOsuCapacity(unsigned entries)
{
    regless.osuEntriesPerSm = entries;
    const unsigned shards = regless.numShards;
    if (entries % (shards * 8) != 0)
        fatal("OSU capacity ", entries, " must divide into ", shards,
              " shards of 8 banks");
    const unsigned lines_per_bank = entries / shards / 8;
    // Regions must leave headroom so several warps stay concurrent.
    compiler.maxRegsPerBank =
        std::max(1u, std::min(12u, lines_per_bank * 3 / 4));
    compiler.maxRegsPerRegion =
        std::max(4u, std::min(32u, entries / shards / 2));
}

namespace
{

/** Renders each field as a "key=value\n" line of canonical text. */
class TextSink : public ConfigFieldSink
{
  public:
    explicit TextSink(std::string &out) : _out(out) {}

  protected:
    void addBool(const std::string &key, bool value) override
    {
        line(key, value ? "1" : "0");
    }
    void addSigned(const std::string &key, long long value) override
    {
        integer(key, value);
    }
    void addUnsigned(const std::string &key,
                     unsigned long long value) override
    {
        integer(key, value);
    }
    void addDouble(const std::string &key, double value) override
    {
        // What a stream at max_digits10 precision prints.
        char buf[32];
        const int len =
            std::snprintf(buf, sizeof(buf), "%.*g",
                          std::numeric_limits<double>::max_digits10, value);
        line(key, std::string_view(buf, static_cast<std::size_t>(len)));
    }
    void addText(const std::string &key, const std::string &value) override
    {
        line(key, value);
    }

  private:
    void
    line(const std::string &key, std::string_view value)
    {
        _out += key;
        _out += '=';
        _out += value;
        _out += '\n';
    }

    template <typename T>
    void
    integer(const std::string &key, T value)
    {
        char buf[24];
        const auto res = std::to_chars(buf, buf + sizeof(buf), value);
        line(key, std::string_view(buf, res.ptr - buf));
    }

    std::string &_out;
};

/*
 * Field-count tripwires: each dump function destructures its struct
 * with a structured binding naming every field. Adding (or removing)
 * a field in any of these structs makes the binding ill-formed, so
 * the build breaks until the dump — and therefore the fingerprint —
 * covers the new field.
 */

void
dump(ConfigFieldSink &kv, const std::string &p,
     const arch::ExecLatencies &c)
{
    const auto &[alu, sfu, shared_mem, control] = c;
    kv.add(p + "alu", alu);
    kv.add(p + "sfu", sfu);
    kv.add(p + "shared_mem", shared_mem);
    kv.add(p + "control", control);
}

void
dump(ConfigFieldSink &kv, const std::string &p, const arch::SmConfig &c)
{
    const auto &[num_warps, num_schedulers, issue_width, scheduler,
                 latencies, max_cycles, watchdog_window, data_base,
                 shared_base, long_stall_threshold, max_resident_warps,
                 cycle_skip] = c;
    kv.add(p + "num_warps", num_warps);
    kv.add(p + "num_schedulers", num_schedulers);
    kv.add(p + "issue_width", issue_width);
    kv.add(p + "scheduler", scheduler);
    dump(kv, p + "latencies.", latencies);
    kv.add(p + "max_cycles", max_cycles);
    kv.add(p + "watchdog_window", watchdog_window);
    kv.add(p + "data_base", data_base);
    kv.add(p + "shared_base", shared_base);
    kv.add(p + "long_stall_threshold", long_stall_threshold);
    kv.add(p + "max_resident_warps", max_resident_warps);
    kv.add(p + "cycle_skip", cycle_skip);
}

void
dump(ConfigFieldSink &kv, const std::string &p, const mem::CacheConfig &c)
{
    const auto &[size_bytes, ways, mshrs, write_back, write_allocate] =
        c;
    kv.add(p + "size_bytes", size_bytes);
    kv.add(p + "ways", ways);
    kv.add(p + "mshrs", mshrs);
    kv.add(p + "write_back", write_back);
    kv.add(p + "write_allocate", write_allocate);
}

void
dump(ConfigFieldSink &kv, const std::string &p, const mem::DramConfig &c)
{
    const auto &[channels, cycles_per_line, access_latency,
                 bandwidth_share] = c;
    kv.add(p + "channels", channels);
    kv.add(p + "cycles_per_line", cycles_per_line);
    kv.add(p + "access_latency", access_latency);
    kv.add(p + "bandwidth_share", bandwidth_share);
}

void
dump(ConfigFieldSink &kv, const std::string &p, const mem::MemConfig &c)
{
    const auto &[l1, l2, dram, l1_latency, l2_latency,
                 l2_cycles_per_line, bypass_l1_data] = c;
    dump(kv, p + "l1.", l1);
    dump(kv, p + "l2.", l2);
    dump(kv, p + "dram.", dram);
    kv.add(p + "l1_latency", l1_latency);
    kv.add(p + "l2_latency", l2_latency);
    kv.add(p + "l2_cycles_per_line", l2_cycles_per_line);
    kv.add(p + "bypass_l1_data", bypass_l1_data);
}

void
dump(ConfigFieldSink &kv, const std::string &p,
     const compiler::CompilerConfig &c)
{
    const auto &[max_regs_per_region, max_regs_per_bank,
                 min_region_insns, split_load_use, reassign_banks] = c;
    kv.add(p + "max_regs_per_region", max_regs_per_region);
    kv.add(p + "max_regs_per_bank", max_regs_per_bank);
    kv.add(p + "min_region_insns", min_region_insns);
    kv.add(p + "split_load_use", split_load_use);
    kv.add(p + "reassign_banks", reassign_banks);
}

void
dump(ConfigFieldSink &kv, const std::string &p,
     const staging::CompressorConfig &c)
{
    const auto &[cache_lines, regs_per_line, hit_latency,
                 check_latency, pattern_mask] = c;
    kv.add(p + "cache_lines", cache_lines);
    kv.add(p + "regs_per_line", regs_per_line);
    kv.add(p + "hit_latency", hit_latency);
    kv.add(p + "check_latency", check_latency);
    kv.add(p + "pattern_mask", pattern_mask);
}

void
dump(ConfigFieldSink &kv, const std::string &p,
     const staging::ReglessConfig &c)
{
    const auto &[osu_entries, num_shards, preload_slots,
                 compressor_enabled, compressor, compression_mode,
                 bank_gating, fifo_activation, victim_order, reg_base,
                 compressed_base, runtime_check] = c;
    kv.add(p + "osu_entries_per_sm", osu_entries);
    kv.add(p + "num_shards", num_shards);
    kv.add(p + "preload_slots_per_shard", preload_slots);
    kv.add(p + "compressor_enabled", compressor_enabled);
    dump(kv, p + "compressor.", compressor);
    kv.add(p + "compression_mode", compression_mode);
    kv.add(p + "bank_gating", bank_gating);
    kv.add(p + "fifo_activation", fifo_activation);
    kv.add(p + "victim_order", victim_order);
    kv.add(p + "reg_base", reg_base);
    kv.add(p + "compressed_base", compressed_base);
    kv.add(p + "runtime_check", runtime_check);
}

void
dump(ConfigFieldSink &kv, const std::string &p,
     const energy::EnergyConfig &c)
{
    const auto &[rf_access_2048, capacity_exponent, tag_access,
                 rename_access, lrf_access, orf_access,
                 compressor_access, osu_overhead_factor, l1_access,
                 l2_access, dram_access, rf_static_2048,
                 compressor_static, rest_per_insn,
                 metadata_insn_energy, rest_static] = c;
    kv.add(p + "rf_access_2048", rf_access_2048);
    kv.add(p + "capacity_exponent", capacity_exponent);
    kv.add(p + "tag_access", tag_access);
    kv.add(p + "rename_access", rename_access);
    kv.add(p + "lrf_access", lrf_access);
    kv.add(p + "orf_access", orf_access);
    kv.add(p + "compressor_access", compressor_access);
    kv.add(p + "osu_overhead_factor", osu_overhead_factor);
    kv.add(p + "l1_access", l1_access);
    kv.add(p + "l2_access", l2_access);
    kv.add(p + "dram_access", dram_access);
    kv.add(p + "rf_static_2048_per_cycle", rf_static_2048);
    kv.add(p + "compressor_static_per_cycle", compressor_static);
    kv.add(p + "rest_per_insn", rest_per_insn);
    kv.add(p + "metadata_insn_energy", metadata_insn_energy);
    kv.add(p + "rest_static_per_cycle", rest_static);
}

void
dump(ConfigFieldSink &kv, const std::string &p,
     const energy::AreaConfig &c)
{
    const auto &[storage_fraction, logic_fraction, logic_exponent,
                 compressor_area, regless_storage_overhead] = c;
    kv.add(p + "storage_fraction", storage_fraction);
    kv.add(p + "logic_fraction", logic_fraction);
    kv.add(p + "logic_exponent", logic_exponent);
    kv.add(p + "compressor_area", compressor_area);
    kv.add(p + "regless_storage_overhead", regless_storage_overhead);
}

void
dump(ConfigFieldSink &kv, const std::string &p, const FaultPlan &c)
{
    const auto &[kind, trigger_cycle, transient] = c;
    kv.add(p + "kind", std::string(faultKindName(kind)));
    kv.add(p + "trigger_cycle", trigger_cycle);
    kv.add(p + "transient", transient);
}

void
dump(ConfigFieldSink &kv, const std::string &p, const TraceConfig &c)
{
    const auto &[enabled, path] = c;
    kv.add(p + "enabled", enabled);
    kv.add(p + "path", path);
}

void
dump(ConfigFieldSink &kv, const std::string &p, const TenantConfig &c)
{
    const auto &[workloads, policy, quota_lines, reserve_frac,
                 qos_preemption, qos_interval, qos_share, data_stride,
                 shared_stride] = c;
    kv.add(p + "count", workloads.size());
    for (std::size_t t = 0; t < workloads.size(); ++t) {
        const auto &[kernel, priority] = workloads[t];
        const std::string tp = p + std::to_string(t) + ".";
        kv.add(tp + "kernel", kernel);
        kv.add(tp + "priority", priority);
    }
    kv.add(p + "policy",
           std::string(regfile::capacityPolicyName(policy)));
    kv.add(p + "quota_lines", quota_lines);
    kv.add(p + "reserve_frac", reserve_frac);
    kv.add(p + "qos_preemption", qos_preemption);
    kv.add(p + "qos_interval", qos_interval);
    kv.add(p + "qos_share", qos_share);
    kv.add(p + "data_stride", data_stride);
    kv.add(p + "shared_stride", shared_stride);
}

void
dump(ConfigFieldSink &kv, const std::string &p,
     const regfile::RfHierarchy::Params &c)
{
    const auto &[lrf_max_distance, orf_max_distance,
                 orf_entries_per_warp] = c;
    kv.add(p + "lrf_max_distance", lrf_max_distance);
    kv.add(p + "orf_max_distance", orf_max_distance);
    kv.add(p + "orf_entries_per_warp", orf_entries_per_warp);
}

void
dump(ConfigFieldSink &kv, const std::string &p,
     const regfile::CompilerRfCache::Params &c)
{
    const auto &[cache_entries_per_warp, miss_penalty,
                 max_def_use_distance] = c;
    kv.add(p + "cache_entries_per_warp", cache_entries_per_warp);
    kv.add(p + "miss_penalty", miss_penalty);
    kv.add(p + "max_def_use_distance", max_def_use_distance);
}

void
dump(ConfigFieldSink &kv, const std::string &p,
     const regfile::RegDemProvider::Params &c)
{
    const auto &[hot_regs_per_warp, spill_base] = c;
    kv.add(p + "hot_regs_per_warp", hot_regs_per_warp);
    kv.add(p + "spill_base", spill_base);
}

} // namespace

void
visitConfigFields(const GpuConfig &config, ConfigFieldSink &kv)
{
    const auto &[provider, sm, mem, compiler_cfg, regless, energy,
                 area, baseline_rf_entries, limit_occupancy_by_rf,
                 rfv_phys_entries, rfh, rf_cache, regdem, faults,
                 trace, tenants] = config;

    kv.add("provider", std::string(providerName(provider)));
    dump(kv, "sm.", sm);
    dump(kv, "mem.", mem);
    dump(kv, "compiler.", compiler_cfg);
    dump(kv, "regless.", regless);
    dump(kv, "energy.", energy);
    dump(kv, "area.", area);
    kv.add("baseline_rf_entries", baseline_rf_entries);
    kv.add("limit_occupancy_by_rf", limit_occupancy_by_rf);
    kv.add("rfv_phys_entries", rfv_phys_entries);
    dump(kv, "rfh.", rfh);
    dump(kv, "rf_cache.", rf_cache);
    dump(kv, "regdem.", regdem);
    dump(kv, "faults.", faults);
    dump(kv, "trace.", trace);
    dump(kv, "tenants.", tenants);
}

std::string
configCanonicalText(const GpuConfig &config)
{
    std::string text;
    TextSink sink(text);
    visitConfigFields(config, sink);
    return text;
}

std::string
compilerConfigText(const compiler::CompilerConfig &config)
{
    std::string text;
    TextSink sink(text);
    dump(sink, "compiler.", config);
    return text;
}

std::uint64_t
configFingerprint(const GpuConfig &config)
{
    const std::string text = configCanonicalText(config);
    std::uint64_t hash = 1469598103934665603ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

} // namespace regless::sim
