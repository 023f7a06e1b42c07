/**
 * @file
 * Register-dependency scoreboard.
 *
 * Because the timing model resolves every operation's completion cycle
 * at issue, the scoreboard simply records per-(warp, register) ready
 * cycles: an instruction may issue when all sources and its
 * destination are ready (RAW and WAW; WAR is safe with in-order issue
 * per warp).
 */

#ifndef REGLESS_ARCH_SCOREBOARD_HH
#define REGLESS_ARCH_SCOREBOARD_HH

#include <vector>

#include "common/types.hh"
#include "ir/instruction.hh"

namespace regless::arch
{

/**
 * Scoreboard over one contiguous warp range's registers.
 *
 * The range is explicit (base + extent) rather than implicitly
 * 0..num_warps: a multi-tenant SM gives each tenant its own scoreboard
 * over its warp partition, still addressed with *global* warp ids.
 * Every access asserts the id lies inside the supervised range, so an
 * off-by-base index is a panic, not a silent read of a neighbouring
 * tenant's state.
 */
class Scoreboard
{
  public:
    /**
     * @param num_warps Warps supervised (the extent of the range).
     * @param num_regs Architectural registers per warp.
     * @param warp_base First supervised global warp id (default 0:
     *        the classic whole-SM scoreboard).
     */
    Scoreboard(unsigned num_warps, unsigned num_regs,
               WarpId warp_base = 0);

    /** @return true when @a insn's operands are ready for @a warp. */
    bool ready(WarpId warp, const ir::Instruction &insn, Cycle now) const;

    /**
     * @return true when at least one register blocking @a insn for
     * @a warp at @a now has a global load as its pending producer
     * (distinguishes MemPending from ScoreboardDep attribution).
     */
    bool blockedOnMem(WarpId warp, const ir::Instruction &insn,
                      Cycle now) const;

    /** Record that @a insn's destination becomes ready at @a when. */
    void recordWrite(WarpId warp, const ir::Instruction &insn,
                     Cycle when);

    /** Ready cycle of a specific register (for drain tracking). */
    Cycle readyAt(WarpId warp, RegId reg) const
    {
        return _readyCycle[index(warp, reg)];
    }

    /**
     * Earliest cycle after @a now at which the set of registers
     * blocking @a insn for @a warp can shrink: the minimum pending
     * ready cycle across the instruction's sources and destination.
     * Returns 0 when nothing is pending (the caller should only ask
     * for insns that failed ready()). This is the scoreboard's
     * next-event bound for cycle skipping — attribution between
     * MemPending and ScoreboardDep can flip as individual registers
     * clear, so the bound is the *minimum*, not the last, pending
     * write.
     */
    Cycle nextReadyChange(WarpId warp, const ir::Instruction &insn,
                          Cycle now) const;

    /** Latest pending-write cycle across @a regs for @a warp. */
    Cycle lastPendingWrite(WarpId warp,
                           const std::vector<RegId> &regs) const;

    /** First supervised global warp id. */
    WarpId warpBase() const { return _warpBase; }
    /** Supervised warp count. */
    unsigned numWarps() const { return _numWarps; }

  private:
    /** Flat index of (warp, reg); panics outside the range. */
    std::size_t index(WarpId warp, RegId reg) const
    {
        // One unsigned compare covers both ends of the warp range.
        if (warp - _warpBase >= _numWarps || reg >= _numRegs)
            outOfRange(warp, reg);
        return static_cast<std::size_t>(warp - _warpBase) * _numRegs + reg;
    }

    /** The panic behind index(), kept off the inlined fast path. */
    [[noreturn, gnu::cold]] void outOfRange(WarpId warp, RegId reg) const;

    unsigned _numRegs;
    unsigned _numWarps;
    WarpId _warpBase;
    std::vector<Cycle> _readyCycle; ///< [(warp - base) * numRegs + reg]
    std::vector<bool> _fromMem;     ///< pending producer is a global load
};

} // namespace regless::arch

#endif // REGLESS_ARCH_SCOREBOARD_HH
