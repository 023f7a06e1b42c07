#include "arch/scoreboard.hh"

#include <algorithm>

#include "common/logging.hh"

namespace regless::arch
{

Scoreboard::Scoreboard(unsigned num_warps, unsigned num_regs,
                       WarpId warp_base)
    : _numRegs(num_regs), _numWarps(num_warps), _warpBase(warp_base),
      _readyCycle(static_cast<std::size_t>(num_warps) * num_regs, 0),
      _fromMem(static_cast<std::size_t>(num_warps) * num_regs, false)
{
}

void
Scoreboard::outOfRange(WarpId warp, RegId reg) const
{
    if (warp - _warpBase >= _numWarps) {
        panic("scoreboard: warp ", warp, " outside supervised range [",
              _warpBase, ", ", _warpBase + _numWarps, ")");
    }
    panic("scoreboard: register ", reg, " >= ", _numRegs);
}

bool
Scoreboard::ready(WarpId warp, const ir::Instruction &insn,
                  Cycle now) const
{
    for (RegId src : insn.srcs()) {
        if (readyAt(warp, src) > now)
            return false;
    }
    if (insn.writesReg() && readyAt(warp, insn.dst()) > now)
        return false;
    return true;
}

void
Scoreboard::recordWrite(WarpId warp, const ir::Instruction &insn,
                        Cycle when)
{
    if (!insn.writesReg())
        return;
    const std::size_t i = index(warp, insn.dst());
    _readyCycle[i] = when;
    _fromMem[i] = insn.isGlobalLoad();
}

bool
Scoreboard::blockedOnMem(WarpId warp, const ir::Instruction &insn,
                         Cycle now) const
{
    auto pending_mem = [&](RegId reg) {
        return readyAt(warp, reg) > now && _fromMem[index(warp, reg)];
    };
    for (RegId src : insn.srcs()) {
        if (pending_mem(src))
            return true;
    }
    return insn.writesReg() && pending_mem(insn.dst());
}

Cycle
Scoreboard::nextReadyChange(WarpId warp, const ir::Instruction &insn,
                            Cycle now) const
{
    Cycle next = 0;
    auto consider = [&](RegId reg) {
        const Cycle at = readyAt(warp, reg);
        if (at > now && (next == 0 || at < next))
            next = at;
    };
    for (RegId src : insn.srcs())
        consider(src);
    if (insn.writesReg())
        consider(insn.dst());
    return next;
}

Cycle
Scoreboard::lastPendingWrite(WarpId warp,
                             const std::vector<RegId> &regs) const
{
    Cycle latest = 0;
    for (RegId reg : regs)
        latest = std::max(latest, readyAt(warp, reg));
    return latest;
}

} // namespace regless::arch
