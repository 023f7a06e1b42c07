/**
 * @file
 * Top-level simulation configuration: which operand-storage design to
 * run and all sub-component parameters (Table 1 defaults).
 */

#ifndef REGLESS_SIM_GPU_CONFIG_HH
#define REGLESS_SIM_GPU_CONFIG_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <array>

#include "arch/sm.hh"
#include "common/fault_injector.hh"
#include "compiler/config.hh"
#include "energy/area_model.hh"
#include "energy/energy_model.hh"
#include "mem/memory_system.hh"
#include "regfile/compiler_rf_cache.hh"
#include "regfile/regdem.hh"
#include "regfile/rf_hierarchy.hh"
#include "regfile/tenant_arbiter.hh"
#include "regless/regless_config.hh"

namespace regless::sim
{

/** Operand-storage designs compared in the evaluation. */
enum class ProviderKind
{
    Baseline,            ///< full register file (Figure 1a)
    Rfh,                 ///< register file hierarchy [11] (Figure 1b)
    Rfv,                 ///< register file virtualization [19] (1c)
    Regless,             ///< operand staging (Figure 1e)
    ReglessNoCompressor, ///< Figure 16 ablation
    CompilerRfCache,     ///< compiler-assisted RF cache (2310.17501)
    RegDem,              ///< register demotion / spilling (1907.02894)
};

/**
 * Number of registered providers. Keep in sync with ProviderKind; the
 * registry has a static_assert against its descriptor table.
 */
inline constexpr std::size_t kNumProviderKinds = 7;

/** Every registered provider, in canonical (enum) order. */
const std::array<ProviderKind, kNumProviderKinds> &allProviderKinds();

/** Human-readable provider name (from the provider registry). */
const char *providerName(ProviderKind kind);

/** Inverse of providerName(); fatal() on an unknown name. */
ProviderKind providerFromName(const std::string &name);

/** providerFromName() that reports failure instead of dying. */
bool tryProviderFromName(const std::string &name, ProviderKind &out);

/**
 * Optional Chrome-trace emission (DESIGN.md section 10). Part of the
 * fingerprint, so traced and untraced runs never share cache entries.
 */
struct TraceConfig
{
    /** Emit per-warp stall/issue timeline + CM activation events. */
    bool enabled = false;
    /** Output path; multi-SM runs append ".smN" per instance. */
    std::string path = "regless_trace.json";
};

/** One co-resident kernel of a multi-tenant SM run. */
struct TenantWorkload
{
    /** Rodinia workload name. */
    std::string kernel;
    /**
     * QoS class: 0 = best-effort (throughput), > 0 = latency-
     * sensitive. PriorityReserve admits priority tenants into the
     * reserved OSU lines; the QoS controller preempts best-effort
     * tenants on behalf of priority ones.
     */
    unsigned priority = 0;
};

/**
 * Multi-tenant SM configuration (DESIGN.md §16). With fewer than two
 * workloads (the default) the simulator runs the classic single-
 * kernel path, bit-identical to pre-tenant builds.
 */
struct TenantConfig
{
    /** Co-resident kernels, one per tenant, in tenant-id order. */
    std::vector<TenantWorkload> workloads;

    /** How tenants share the OSU capacity. */
    regfile::CapacityPolicy policy =
        regfile::CapacityPolicy::FreeForAll;

    /** StaticQuota lines per tenant (0 = total / tenants). */
    unsigned quotaLines = 0;

    /** PriorityReserve: fraction held for priority tenants. */
    double reserveFrac = 0.25;

    /**
     * Region-boundary QoS preemption: while any latency-sensitive
     * tenant is unfinished, best-effort tenants run only qosShare of
     * every qosInterval and are suspended (staged state drained and
     * handed off) for the rest.
     */
    bool qosPreemption = false;
    Cycle qosInterval = 20000;
    double qosShare = 0.5;

    /**
     * Per-tenant address-space strides. Tenant t's data segment
     * starts at sm.dataBase + t * dataStride and its shared segment
     * at sm.sharedBase + t * sharedStride, and the synthetic value
     * generator is translated per segment — so each tenant reads the
     * same values at the same kernel-relative addresses as a solo
     * run (the memory-image parity the preemption tests check).
     */
    Addr dataStride = 0x0400'0000;
    Addr sharedStride = 0x1000'0000;
};

/** Full simulator configuration. */
struct GpuConfig
{
    ProviderKind provider = ProviderKind::Baseline;
    arch::SmConfig sm;
    mem::MemConfig mem;
    compiler::CompilerConfig compiler;
    staging::ReglessConfig regless;
    energy::EnergyConfig energy;
    energy::AreaConfig area;

    /** Baseline register-file entries per SM (2048 = 256 KB). */
    unsigned baselineRfEntries = 2048;

    /**
     * Model register-file occupancy limits: providers with a fixed
     * architectural file (baseline, RFH) can only keep
     * rfEntries / kernelRegs warps resident. RegLess and RFV
     * oversubscribe (the paper's §7 observation that RegLess needs no
     * design change to do so). Off by default: Table 1 kernels fit.
     */
    bool limitOccupancyByRf = false;

    /** RFV physical file entries (half the baseline). */
    unsigned rfvPhysEntries = 1024;

    regfile::RfHierarchy::Params rfh;

    /** Compiler-assisted RF-cache parameters (DESIGN.md §13.2). */
    regfile::CompilerRfCache::Params rfCache;

    /** RegDem demotion parameters (DESIGN.md §13.3). */
    regfile::RegDemProvider::Params regdem;

    /**
     * Deterministic fault-injection plan (common/fault_injector.hh).
     * Part of the fingerprint: an injected failure is an ordinary,
     * cacheable simulation point. Kind::None (the default) injects
     * nothing and adds no per-cycle work.
     */
    FaultPlan faults;

    /** Stall/activation timeline emission (off by default). */
    TraceConfig trace;

    /** Multi-tenant SM operation (inactive below two workloads). */
    TenantConfig tenants;

    /**
     * Canonical configuration for @a kind. Scheduler policy and any
     * per-provider tuning come from the provider registry descriptor.
     */
    static GpuConfig forProvider(ProviderKind kind);

    /**
     * Set the RegLess OSU capacity and derive matching compiler
     * constraints (regions must fit in the smaller banks).
     */
    void setOsuCapacity(unsigned entries);
};

/**
 * Receives every field of a config as a typed "prefix.field" value.
 * add() sorts a value into one of the typed hooks, so a renderer only
 * decides how each kind of value reads.
 */
class ConfigFieldSink
{
  public:
    virtual ~ConfigFieldSink() = default;

    template <typename T>
    void
    add(const std::string &key, const T &value)
    {
        if constexpr (std::is_same_v<T, bool>) {
            addBool(key, value);
        } else if constexpr (std::is_enum_v<T>) {
            addSigned(key, static_cast<long long>(value));
        } else if constexpr (std::is_floating_point_v<T>) {
            // A float would print at its own max_digits10.
            static_assert(std::is_same_v<T, double>, "non-double field");
            addDouble(key, value);
        } else if constexpr (std::is_integral_v<T>) {
            // A stream prints a char-sized integer as a character.
            static_assert(sizeof(T) > 1, "char-sized config field");
            if constexpr (std::is_signed_v<T>)
                addSigned(key, value);
            else
                addUnsigned(key, value);
        } else {
            addText(key, value);
        }
    }

  protected:
    virtual void addBool(const std::string &key, bool value) = 0;
    virtual void addSigned(const std::string &key, long long value) = 0;
    virtual void addUnsigned(const std::string &key,
                             unsigned long long value) = 0;
    virtual void addDouble(const std::string &key, double value) = 0;
    virtual void addText(const std::string &key,
                         const std::string &value) = 0;
};

/**
 * Feed every field of @a config and its sub-configs to @a sink, in a
 * fixed order. The implementation destructures each struct with
 * structured bindings, so adding a field anywhere breaks the build
 * until the visit covers it — new fields cannot silently escape.
 */
void visitConfigFields(const GpuConfig &config, ConfigFieldSink &sink);

/**
 * The visit as one "key=value\n" text block (cache-key material):
 * bools as 0/1, enums as their integer value, and doubles as "%.17g"
 * (max_digits10, what a stream at that precision prints), so any
 * representable change to a field changes the text. Two configs
 * produce the same text iff every field compares equal, so the text
 * (and the fingerprint derived from it) is a valid cache key.
 */
std::string configCanonicalText(const GpuConfig &config);

/**
 * Canonical text of the compiler sub-config alone. Compiled regions —
 * and hence lint verdicts — depend on nothing else, so this is the
 * memo key for lint-once-per-kernel gating.
 */
std::string compilerConfigText(const compiler::CompilerConfig &config);

/** FNV-1a 64-bit hash of configCanonicalText(). */
std::uint64_t configFingerprint(const GpuConfig &config);

} // namespace regless::sim

#endif // REGLESS_SIM_GPU_CONFIG_HH
