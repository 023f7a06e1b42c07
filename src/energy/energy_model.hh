/**
 * @file
 * Analytical energy model standing in for the paper's synthesized
 * Verilog + GPUWattch flow.
 *
 * All figures that use energy (12-15) compare configurations
 * *relative* to the baseline, so the model only needs consistent
 * per-access energies with capacity scaling, plus static power and a
 * rest-of-GPU component. Constants are calibrated so the baseline
 * register file is ~1/6 of total GPU energy — the paper's "No RF"
 * upper bound of 16.7%.
 */

#ifndef REGLESS_ENERGY_ENERGY_MODEL_HH
#define REGLESS_ENERGY_ENERGY_MODEL_HH

#include <cstdint>

#include "common/types.hh"

namespace regless::energy
{

/** Model constants. Units: pJ for energy, pJ/cycle for static power. */
struct EnergyConfig
{
    /** Per-access energy of a 2048-entry (256 KB) register file. */
    double rfAccess2048 = 80.0;

    /**
     * Capacity scaling: E(n) = rfAccess2048 * (n / 2048)^k. Wire-
     * dominated arrays scale slightly superlinearly with capacity.
     */
    double capacityExponent = 1.15;

    /** Small CAM/SRAM side structures. */
    double tagAccess = 2.0;
    double renameAccess = 12.0;
    double lrfAccess = 1.5;
    double orfAccess = 4.0;
    double compressorAccess = 3.0;

    /** OSU tag/decode overhead vs a bare SRAM of equal capacity. */
    double osuOverheadFactor = 1.15;

    /** Memory-hierarchy access energies (per 128 B line). */
    double l1Access = 60.0;
    double l2Access = 240.0;
    double dramAccess = 2400.0;

    /** Static (leakage + clock) power of the 2048-entry RF. */
    double rfStatic2048PerCycle = 20.0;
    double compressorStaticPerCycle = 0.3;

    /** Rest of the GPU: execution units, fetch/decode, networks. */
    double restPerInsn = 480.0;
    /** Fetch/decode-only cost of a RegLess metadata instruction. */
    double metadataInsnEnergy = 120.0;
    double restStaticPerCycle = 400.0;

    /** Scaled per-access energy for an n-entry register structure. */
    double accessEnergy(unsigned entries) const;

    /** Scaled static power for an n-entry register structure. */
    double staticPower(unsigned entries) const;
};

/** Energy totals for one simulated kernel run. */
struct EnergyBreakdown
{
    /** Dynamic energy of the register structures. */
    double regDynamic = 0.0;
    /** Static energy of the register structures. */
    double regStatic = 0.0;
    /** Compressor dynamic + static (RegLess only). */
    double compressor = 0.0;
    /** Memory hierarchy (L1 + L2 + DRAM). */
    double memory = 0.0;
    /** Rest of the GPU (EUs, fetch/decode incl. metadata, idle). */
    double rest = 0.0;

    /** Paper's "register file energy" (Figure 14). */
    double
    registerStructures() const
    {
        return regDynamic + regStatic + compressor;
    }

    /** Paper's "total GPU energy" (Figure 15). */
    double
    total() const
    {
        return registerStructures() + memory + rest;
    }

    bool operator==(const EnergyBreakdown &) const = default;
};

} // namespace regless::energy

#endif // REGLESS_ENERGY_ENERGY_MODEL_HH
