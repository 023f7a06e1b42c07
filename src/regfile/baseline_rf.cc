#include "regfile/baseline_rf.hh"

#include <algorithm>

namespace regless::regfile
{

BaselineRf::BaselineRf(Cycle window, unsigned num_banks,
                       Cycle collector_penalty)
    : RegisterProvider("rf"),
      _window(window),
      _numBanks(num_banks),
      _collectorPenalty(collector_penalty),
      _accessSeries(window),
      _reads(_stats.counter("reads")),
      _writes(_stats.counter("writes")),
      _bankConflicts(_stats.counter("bank_conflicts"))
{
}

Cycle
BaselineRf::operandDelay(const arch::Warp &warp,
                         const ir::Instruction &insn, Cycle now)
{
    (void)now;
    // An instruction's sources that map to the same bank serialise on
    // the bank's read port; operand collectors buffer the fetches, so
    // the penalty is configurable (and zero by default).
    if (insn.srcs().size() < 2)
        return 0;
    // The largest number of sources sharing one bank (an instruction
    // has a handful of sources, so pairwise counting is cheapest).
    const std::vector<RegId> &srcs = insn.srcs();
    unsigned worst = 0;
    for (std::size_t i = 0; i < srcs.size(); ++i) {
        const unsigned bank = (warp.id() + srcs[i]) % _numBanks;
        unsigned uses = 1;
        for (std::size_t j = i + 1; j < srcs.size(); ++j)
            uses += (warp.id() + srcs[j]) % _numBanks == bank;
        worst = std::max(worst, uses);
    }
    if (worst > 1) {
        ++_bankConflicts;
        return (worst - 1) * _collectorPenalty;
    }
    return 0;
}

bool
BaselineRf::canIssue(const arch::Warp &, Cycle)
{
    return true;
}

void
BaselineRf::onIssue(const arch::Warp &warp, Pc, const ir::Instruction &insn,
                    Cycle now, Cycle)
{
    // Close working-set windows that have elapsed.
    while (now >= _windowStart + _window) {
        _workingSet.sample(static_cast<double>(_windowRegs) *
                           regBytes);
        clearWindow();
        _windowStart += _window;
    }

    for (RegId src : insn.srcs()) {
        ++_reads;
        _accessSeries.record(now, 1.0);
        touch(warp.id(), src);
    }
    if (insn.writesReg()) {
        ++_writes;
        _accessSeries.record(now, 1.0);
        touch(warp.id(), insn.dst());
    }
}

void
BaselineRf::touch(WarpId warp, RegId reg)
{
    if (warp >= _windowWarps || reg >= _windowStride) {
        // Grow (doubling, so ids seen in order re-lay out rarely) to
        // cover the new ids, keeping this window's marks.
        const std::size_t warps =
            warp < _windowWarps ? _windowWarps
                                : std::max<std::size_t>(warp + 1,
                                                        2 * _windowWarps);
        const std::size_t stride =
            reg < _windowStride ? _windowStride
                                : std::max<std::size_t>(reg + 1,
                                                        2 * _windowStride);
        std::vector<bool> bits(warps * stride, false);
        for (std::size_t w = 0; w < _windowWarps; ++w) {
            for (std::size_t r = 0; r < _windowStride; ++r)
                bits[w * stride + r] = _windowBits[w * _windowStride + r];
        }
        _windowBits.swap(bits);
        _windowWarps = warps;
        _windowStride = stride;
    }
    std::vector<bool>::reference bit =
        _windowBits[warp * _windowStride + reg];
    if (!bit) {
        bit = true;
        ++_windowRegs;
    }
}

void
BaselineRf::clearWindow()
{
    // Idle windows (a long stall closes many in a row) touch nothing.
    if (_windowRegs == 0)
        return;
    std::fill(_windowBits.begin(), _windowBits.end(), false);
    _windowRegs = 0;
}

double
BaselineRf::meanWorkingSetBytes()
{
    if (_windowRegs != 0) {
        _workingSet.sample(static_cast<double>(_windowRegs) *
                           regBytes);
        clearWindow();
    }
    return _workingSet.mean();
}

void
BaselineRf::flushSeries()
{
    _accessSeries.flush();
}

} // namespace regless::regfile
