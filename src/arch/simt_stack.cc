#include "arch/simt_stack.hh"

#include "common/logging.hh"

namespace regless::arch
{

SimtStack::SimtStack()
{
    _entries.push_back(SimtEntry{0, fullMask, invalidPc});
}

void
SimtStack::pcOnExited()
{
    panic("SimtStack::pc on exited warp");
}

LaneMask
SimtStack::activeMask() const
{
    if (_entries.empty())
        return 0;
    return _entries.back().mask;
}

void
SimtStack::reconverge()
{
    while (!_entries.empty() &&
           _entries.back().pc == _entries.back().reconvergePc) {
        _entries.pop_back();
    }
}

void
SimtStack::advance()
{
    if (_entries.empty())
        panic("advance on exited warp");
    ++_entries.back().pc;
    reconverge();
}

bool
SimtStack::branch(LaneMask taken_mask, Pc target, Pc reconverge_pc)
{
    if (_entries.empty())
        panic("branch on exited warp");
    SimtEntry &top = _entries.back();
    taken_mask &= top.mask;
    LaneMask fall_mask = top.mask & ~taken_mask;

    if (taken_mask == 0) {
        ++top.pc;
        reconverge();
        return false;
    }
    if (fall_mask == 0) {
        top.pc = target;
        reconverge();
        return false;
    }

    // Divergence: the current entry becomes the reconvergence frame;
    // push the fall-through side, then the taken side (executed first).
    Pc fall_pc = top.pc + 1;
    top.pc = reconverge_pc;
    // top.mask stays the merged mask.
    _entries.push_back(SimtEntry{fall_pc, fall_mask, reconverge_pc});
    _entries.push_back(SimtEntry{target, taken_mask, reconverge_pc});
    reconverge();
    return true;
}

void
SimtStack::jump(Pc target)
{
    if (_entries.empty())
        panic("jump on exited warp");
    _entries.back().pc = target;
    reconverge();
}

void
SimtStack::exitLanes()
{
    if (_entries.empty())
        panic("exit on exited warp");
    LaneMask exited = _entries.back().mask;
    _entries.pop_back();
    // Remove the exited lanes from every remaining frame; frames left
    // empty are dropped (can happen with exits inside divergence).
    for (auto it = _entries.begin(); it != _entries.end();) {
        it->mask &= ~exited;
        if (it->mask == 0)
            it = _entries.erase(it);
        else
            ++it;
    }
    reconverge();
}

} // namespace regless::arch
