/**
 * @file
 * Baseline register file: the full-size, always-available RF of
 * Figure 1(a). Registers are always resident, so the model's only job
 * is counting accesses (and the working set, for Figure 2).
 */

#ifndef REGLESS_REGFILE_BASELINE_RF_HH
#define REGLESS_REGFILE_BASELINE_RF_HH

#include <vector>

#include "regfile/register_provider.hh"

namespace regless::regfile
{

/** Full-size baseline register file. */
class BaselineRf : public RegisterProvider
{
  public:
    /**
     * @param window Cycles per working-set measurement window
     *        (Figure 2 uses 100).
     * @param num_banks Register-file banks (operand fetch conflicts
     *        when one instruction's sources share a bank).
     * @param collector_penalty Extra issue cycles per bank conflict.
     *        Real GPUs hide most of this behind operand collectors,
     *        so the default charges nothing and only counts.
     */
    explicit BaselineRf(Cycle window = 100, unsigned num_banks = 32,
                        Cycle collector_penalty = 0);

    bool canIssue(const arch::Warp &warp, Cycle now) override;

    void onIssue(const arch::Warp &warp, Pc pc,
                 const ir::Instruction &insn, Cycle now,
                 Cycle writeback) override;

    Cycle operandDelay(const arch::Warp &warp,
                       const ir::Instruction &insn, Cycle now) override;

    /** Mean per-window register working set in bytes (Figure 2). */
    double meanWorkingSetBytes();

    /** Per-window backing-store (RF) accesses (Figure 3 series). */
    const WindowedSeries &accessSeries() const { return _accessSeries; }

    /** Finalise open windows before reading series data. */
    void flushSeries();

  private:
    Cycle _window;
    unsigned _numBanks;
    Cycle _collectorPenalty;
    Cycle _windowStart = 0;
    /** Mark (warp, reg) as touched in the current window. */
    void touch(WarpId warp, RegId reg);
    /** Forget the current window's registers. */
    void clearWindow();

    /**
     * The current window's working set: a (warp, reg) bitmap, grown
     * to the largest ids seen (a few KB), and its count of set bits.
     */
    std::vector<bool> _windowBits;
    std::size_t _windowWarps = 0;
    std::size_t _windowStride = 0;
    std::size_t _windowRegs = 0;
    Distribution _workingSet;
    WindowedSeries _accessSeries;
    Counter &_reads;
    Counter &_writes;
    Counter &_bankConflicts;
};

} // namespace regless::regfile

#endif // REGLESS_REGFILE_BASELINE_RF_HH
