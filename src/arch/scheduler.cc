#include "arch/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace regless::arch
{

SchedulerPolicy
schedulerPolicyFromString(const std::string &name)
{
    if (name == "gto")
        return SchedulerPolicy::Gto;
    if (name == "two_level")
        return SchedulerPolicy::TwoLevel;
    if (name == "rr")
        return SchedulerPolicy::Rr;
    fatal("unknown scheduler policy '", name, "'");
}

std::unique_ptr<WarpScheduler>
WarpScheduler::create(SchedulerPolicy policy, std::vector<WarpId> warps)
{
    switch (policy) {
      case SchedulerPolicy::Gto:
        return std::make_unique<GtoScheduler>(std::move(warps));
      case SchedulerPolicy::TwoLevel:
        return std::make_unique<TwoLevelScheduler>(std::move(warps), 4);
      case SchedulerPolicy::Rr:
        return std::make_unique<RrScheduler>(std::move(warps));
    }
    panic("bad scheduler policy");
}

int
GtoScheduler::pick(const std::vector<bool> &eligible)
{
    // Bounds guard: the greedy index may outlive a warp-count change
    // in the eligibility vector; never read past its end.
    if (_current >= 0
        && static_cast<std::size_t>(_current) < eligible.size()
        && eligible[_current])
        return _current;
    for (unsigned i = 0; i < eligible.size(); ++i) {
        if (eligible[i]) {
            _current = static_cast<int>(i);
            return _current;
        }
    }
    _current = -1;
    return -1;
}

TwoLevelScheduler::TwoLevelScheduler(std::vector<WarpId> warps,
                                     unsigned active_size,
                                     unsigned promotion_delay)
    : WarpScheduler(std::move(warps)),
      _promotionDelay(promotion_delay),
      _inActive(_warps.size(), false),
      _demotable((_warps.size() + 63) / 64, 0),
      _readyAt(_warps.size(), 0)
{
    for (unsigned i = 0; i < _warps.size(); ++i) {
        if (i < active_size) {
            _active.push_back(i);
            _inActive[i] = true;
        } else {
            _pending.push_back(i);
        }
    }
    for (unsigned i = 0; !_pending.empty() && i < _warps.size(); ++i) {
        if (_inActive[i])
            _demotable[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    if (_warps.empty())
        return;
    const auto [lo, hi] = std::minmax_element(_warps.begin(), _warps.end());
    _lowestId = *lo;
    _indexOf.assign(*hi - *lo + 1, -1);
    for (unsigned i = 0; i < _warps.size(); ++i)
        _indexOf[_warps[i] - _lowestId] = static_cast<int>(i);
}

std::vector<unsigned>
TwoLevelScheduler::activePool() const
{
    std::vector<unsigned> pool;
    for (std::size_t k = 0; k < _active.size(); ++k)
        pool.push_back(_active[(_activeHead + k) % _active.size()]);
    return pool;
}

int
TwoLevelScheduler::pick(const std::vector<bool> &eligible)
{
    ++_cycle;
    // Round-robin within the active pool; freshly promoted warps wait
    // out their instruction-buffer refill. Each try moves the front
    // warp to the back.
    const std::size_t n = _active.size();
    for (std::size_t tries = 0; tries < n; ++tries) {
        const unsigned idx = _active[_activeHead];
        _activeHead = _activeHead + 1 == n ? 0 : _activeHead + 1;
        if (eligible[idx] && _cycle >= _readyAt[idx])
            return static_cast<int>(idx);
    }
    return -1;
}

void
TwoLevelScheduler::notifyLongStall(WarpId warp)
{
    // Demote the stalled warp; promote the oldest pending warp.  With
    // nothing pending the demotion must be a no-op: demoting anyway
    // would permanently shrink the active pool (down to empty with a
    // single warp, deadlocking the scheduler).
    if (_pending.empty() || warp < _lowestId ||
        warp - _lowestId >= _indexOf.size()) {
        return;
    }
    const int found = _indexOf[warp - _lowestId];
    if (found < 0 || !_inActive[found])
        return;
    const auto idx = static_cast<unsigned>(found);
    // Erase idx from the active pool, keeping the others' order, and
    // append the promoted warp at the back (the slot before the head).
    const std::size_t n = _active.size();
    auto next = [n](std::size_t pos) { return pos + 1 == n ? 0 : pos + 1; };
    const std::size_t back = _activeHead == 0 ? n - 1 : _activeHead - 1;
    std::size_t pos = _activeHead;
    while (_active[pos] != idx)
        pos = next(pos);
    for (; pos != back; pos = next(pos))
        _active[pos] = _active[next(pos)];
    const unsigned promoted = _pending[_pendingHead];
    _active[back] = promoted;
    _inActive[promoted] = true;
    _inActive[idx] = false;
    _demotable[promoted / 64] |= std::uint64_t{1} << (promoted % 64);
    _demotable[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
    _readyAt[promoted] = _cycle + _promotionDelay;
    // Pop the pending front and push the demoted warp at the back.
    _pending[_pendingHead] = idx;
    _pendingHead = _pendingHead + 1 == _pending.size() ? 0
                                                       : _pendingHead + 1;
}

int
RrScheduler::pick(const std::vector<bool> &eligible)
{
    const unsigned n = static_cast<unsigned>(eligible.size());
    for (unsigned i = 0; i < n; ++i) {
        unsigned idx = (_next + i) % n;
        if (eligible[idx]) {
            _next = (idx + 1) % n;
            return static_cast<int>(idx);
        }
    }
    return -1;
}

} // namespace regless::arch
