/**
 * @file
 * Warp schedulers: GTO (greedy-then-oldest, the baseline), two-level
 * (used by the RFH comparison and Figure 2), and loose round-robin.
 *
 * A scheduler only *orders* warps; eligibility (scoreboard, barriers,
 * register-provider gating) is decided by the SM and passed in.
 */

#ifndef REGLESS_ARCH_SCHEDULER_HH
#define REGLESS_ARCH_SCHEDULER_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace regless::arch
{

/** Scheduler policy selector. */
enum class SchedulerPolicy
{
    Gto,      ///< greedy-then-oldest (baseline, Table 1)
    TwoLevel, ///< active pool + pending pool [9]
    Rr,       ///< loose round-robin
};

/** Parse "gto" / "two_level" / "rr". */
SchedulerPolicy schedulerPolicyFromString(const std::string &name);

/** Abstract warp picker for one scheduling group. */
class WarpScheduler
{
  public:
    explicit WarpScheduler(std::vector<WarpId> warps)
        : _warps(std::move(warps))
    {
    }

    virtual ~WarpScheduler() = default;

    /**
     * Pick the warp to issue from this cycle.
     *
     * @param eligible eligible[i] says whether supervised warp i (by
     *        position in warps()) can issue right now.
     * @return index into warps(), or -1 when nothing is eligible.
     */
    virtual int pick(const std::vector<bool> &eligible) = 0;

    /**
     * Feedback: the warp picked last cycle stalled on a long-latency
     * operation (used by the two-level scheduler for demotion).
     */
    virtual void notifyLongStall(WarpId) {}

    /**
     * Does notifyLongStall change this scheduler's picks? The SM sends
     * the feedback only to schedulers that say so. The default is yes,
     * so a scheduler (or a decorator around one) hears every call
     * unless it declares that it ignores them.
     */
    virtual bool usesLongStallFeedback() const { return true; }

    /**
     * Bitmask, by position in warps() (bit i of word i / 64), of the
     * warps notifyLongStall can act on right now; a call for any
     * other warp must change nothing. The SM then notifies only the
     * masked warps, re-reading the mask after each call. Null (the
     * default, kept by decorators) means every call is sent.
     */
    virtual const std::uint64_t *demotableMask() const { return nullptr; }

    /**
     * Does this scheduler's internal state stay constant across a
     * cycle in which nothing is eligible? Required for event-driven
     * cycle skipping: a window of all-stalled cycles may be collapsed
     * only when replaying them one by one would not have changed the
     * scheduler (pick() is never called while nothing is eligible, so
     * only per-cycle side effects outside pick() matter). The
     * two-level scheduler ages promotion timers and shuffles pools
     * every cycle, so it opts out.
     */
    virtual bool quiescentWhenStalled() const { return true; }

    const std::vector<WarpId> &warps() const { return _warps; }

    /** Factory for @a policy over @a warps. */
    static std::unique_ptr<WarpScheduler>
    create(SchedulerPolicy policy, std::vector<WarpId> warps);

  protected:
    std::vector<WarpId> _warps;
};

/**
 * Greedy-then-oldest: keep issuing from the same warp until it cannot
 * issue, then fall back to the oldest (lowest slot) eligible warp.
 */
class GtoScheduler : public WarpScheduler
{
  public:
    explicit GtoScheduler(std::vector<WarpId> warps)
        : WarpScheduler(std::move(warps))
    {
    }

    int pick(const std::vector<bool> &eligible) override;
    bool usesLongStallFeedback() const override { return false; }

  private:
    int _current = -1;
};

/**
 * Two-level scheduler [9]: a small active pool is scheduled
 * round-robin; warps that stall on long-latency operations are demoted
 * to the pending pool and replaced by the oldest pending warp.
 */
class TwoLevelScheduler : public WarpScheduler
{
  public:
    /**
     * @param active_size Warps in the active pool.
     * @param promotion_delay pick() calls (cycles) a freshly promoted
     *        warp needs before it can issue (ibuffer refill) — the
     *        main reason GTO outperforms two-level scheduling [56].
     */
    TwoLevelScheduler(std::vector<WarpId> warps, unsigned active_size,
                      unsigned promotion_delay = 30);

    int pick(const std::vector<bool> &eligible) override;
    void notifyLongStall(WarpId warp) override;
    bool quiescentWhenStalled() const override { return false; }
    const std::uint64_t *demotableMask() const override
    {
        return _demotable.data();
    }

    /** Warps in the active pool, in round-robin order from the next
     *  one pick() tries (exposed for Figure 2). */
    std::vector<unsigned> activePool() const;

  private:
    unsigned _promotionDelay;
    std::uint64_t _cycle = 0;
    /**
     * Both pools are fixed-size rings of indices into warps(): a
     * demotion swaps one warp for another, so neither ever grows. The
     * active pool's front is _active[_activeHead]; the pending pool's
     * is _pending[_pendingHead].
     */
    std::vector<unsigned> _active;
    std::size_t _activeHead = 0;
    std::vector<unsigned> _pending;
    std::size_t _pendingHead = 0;
    /** Per warp index: in the active pool? */
    std::vector<bool> _inActive;
    /** demotableMask(): the active pool's bits, or none when nothing
     *  is pending (a demotion needs a warp to promote). */
    std::vector<std::uint64_t> _demotable;
    std::vector<std::uint64_t> _readyAt; ///< per warp index
    /** warps() index of warp id _lowestId + k, or -1 (dense lookup). */
    std::vector<int> _indexOf;
    WarpId _lowestId = 0;
};

/** Loose round-robin over all supervised warps. */
class RrScheduler : public WarpScheduler
{
  public:
    explicit RrScheduler(std::vector<WarpId> warps)
        : WarpScheduler(std::move(warps))
    {
    }

    int pick(const std::vector<bool> &eligible) override;
    bool usesLongStallFeedback() const override { return false; }

  private:
    unsigned _next = 0;
};

} // namespace regless::arch

#endif // REGLESS_ARCH_SCHEDULER_HH
