/**
 * @file
 * Prints the per-warp stall rows (Sm::warpStalls) of a fixed set of
 * runs, one line per warp, for the stall_row_pin ctest to compare with
 * tests/golden/stall_rows.txt. The rows feed the deadlock report's
 * per-warp cause and the Chrome trace, and no RunStats field or report
 * figure carries them, so only this pin sees a warp charged to the
 * wrong cause.
 *
 * Cases: hotspot under the baseline and RegLess; hotspot under RegLess
 * with a 128-line OSU (activations blocked on capacity charge
 * cm_no_capacity); hotspot and backprop under RegLess with a 64-line
 * OSU, where activations block so often that most retries of a
 * blocked activation find nothing changed; and backprop co-run with
 * hotspot under
 * PriorityReserve plus QoS preemption, which suspends hotspot's tenant
 * several times.
 *
 *   regless_stall_rows > rows.txt
 */

#include <iostream>
#include <string>
#include <vector>

#include "arch/sm.hh"
#include "arch/stall.hh"
#include "sim/gpu_config.hh"
#include "sim/gpu_simulator.hh"
#include "workloads/rodinia.hh"

namespace
{

using namespace regless;

void
printRows(const std::string &label,
          const std::vector<std::string> &kernels,
          const sim::GpuConfig &cfg)
{
    std::vector<ir::Kernel> built;
    for (const std::string &k : kernels)
        built.push_back(workloads::makeRodinia(k));
    sim::GpuSimulator gpu(built, cfg);
    gpu.run();
    arch::Sm &sm = gpu.sm();
    std::cout << "# " << label << " cycles=" << sm.now() << "\n# warp";
    for (std::size_t c = 0; c < arch::kNumStallCauses; ++c) {
        std::cout << ' '
                  << arch::stallCauseName(static_cast<arch::StallCause>(c));
    }
    std::cout << '\n';
    for (const arch::Warp &w : sm.warps()) {
        std::cout << w.id();
        for (std::uint64_t cycles : sm.warpStalls(w.id()))
            std::cout << ' ' << cycles;
        std::cout << '\n';
    }
}

} // namespace

int
main()
{
    using sim::GpuConfig;
    using sim::ProviderKind;
    printRows("hotspot baseline", {"hotspot"},
              GpuConfig::forProvider(ProviderKind::Baseline));
    printRows("hotspot regless", {"hotspot"},
              GpuConfig::forProvider(ProviderKind::Regless));

    GpuConfig small = GpuConfig::forProvider(ProviderKind::Regless);
    small.setOsuCapacity(128);
    printRows("hotspot regless osu=128", {"hotspot"}, small);

    GpuConfig tiny = GpuConfig::forProvider(ProviderKind::Regless);
    tiny.setOsuCapacity(64);
    printRows("hotspot regless osu=64", {"hotspot"}, tiny);
    printRows("backprop regless osu=64", {"backprop"}, tiny);

    GpuConfig qos = GpuConfig::forProvider(ProviderKind::Regless);
    qos.tenants.workloads = {{"backprop", 1}, {"hotspot", 0}};
    qos.tenants.policy = regfile::CapacityPolicy::PriorityReserve;
    qos.tenants.qosPreemption = true;
    qos.tenants.qosInterval = 2000;
    qos.tenants.qosShare = 0.25;
    printRows("backprop+hotspot prio_reserve+qos", {"backprop", "hotspot"},
              qos);
    return 0;
}
