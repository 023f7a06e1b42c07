/**
 * @file
 * SIMT reconvergence stack.
 *
 * Implements the classic immediate-postdominator reconvergence scheme:
 * a divergent branch pushes the two sides with a shared reconvergence
 * PC; when the executing side reaches that PC it pops and the other
 * side (or the merged mask) resumes. Divergence is what creates soft
 * definitions, so the stack is load-bearing for the whole evaluation.
 */

#ifndef REGLESS_ARCH_SIMT_STACK_HH
#define REGLESS_ARCH_SIMT_STACK_HH

#include <vector>

#include "common/types.hh"

namespace regless::arch
{

/** One reconvergence-stack entry. */
struct SimtEntry
{
    Pc pc = 0;
    LaneMask mask = fullMask;
    Pc reconvergePc = invalidPc;
};

/** Per-warp divergence state. */
class SimtStack
{
  public:
    /** Start executing at PC 0 with all lanes active. */
    SimtStack();

    /** Current fetch PC. */
    Pc pc() const
    {
        if (_entries.empty())
            pcOnExited();
        return _entries.back().pc;
    }

    /** Current active mask. */
    LaneMask activeMask() const;

    /** @return true when every lane has exited. */
    bool allExited() const { return _entries.empty(); }

    /** Advance past a non-control instruction. */
    void advance();

    /**
     * Resolve a conditional branch.
     *
     * @param taken_mask Lanes (subset of active) taking the branch.
     * @param target Branch target PC.
     * @param reconverge_pc First PC of the immediate postdominator
     *        block, or invalidPc when control never reconverges.
     * @return true when the branch diverged (both sides non-empty).
     */
    bool branch(LaneMask taken_mask, Pc target, Pc reconverge_pc);

    /** Unconditional jump. */
    void jump(Pc target);

    /** Active lanes exit; pops emptied entries. */
    void exitLanes();

    /** Stack depth (for stats / divergence detection). */
    std::size_t depth() const { return _entries.size(); }

  private:
    /** The panic behind pc(), kept off the inlined fast path. */
    [[noreturn, gnu::cold]] static void pcOnExited();

    /** Pop entries whose pc reached their reconvergence point. */
    void reconverge();

    std::vector<SimtEntry> _entries;
};

} // namespace regless::arch

#endif // REGLESS_ARCH_SIMT_STACK_HH
