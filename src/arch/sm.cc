#include "arch/sm.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "common/logging.hh"

namespace regless::arch
{

namespace
{

/** SbVerdict::validUntil of a ready verdict: valid until issue. */
constexpr Cycle kNoSbExpiry = std::numeric_limits<Cycle>::max();

/** Sm::_sleepRun of a warp with no open stall run. */
constexpr Cycle kNoStallRun = std::numeric_limits<Cycle>::max();

/** Bits per ScanGroup mask word. */
constexpr std::size_t kMaskBits = 64;

} // namespace

Sm::Tenant::Tenant(const SmTenantSpec &spec, WarpId warp_base,
                   unsigned warp_count, unsigned sched_base,
                   unsigned sched_count)
    : ck(spec.ck),
      kernel(&spec.ck->kernel()),
      provider(spec.provider),
      wakeList(spec.provider->wakeList()),
      cfgAnalysis(spec.ck->kernel()),
      scoreboard(warp_count, spec.ck->kernel().numRegs(), warp_base),
      warpBase(warp_base),
      warpCount(warp_count),
      schedBase(sched_base),
      schedCount(sched_count),
      dataBase(spec.dataBase),
      sharedBase(spec.sharedBase)
{
}

Sm::Sm(const compiler::CompiledKernel &ck, mem::MemorySystem &mem,
       regfile::RegisterProvider &provider, const SmConfig &config)
    : Sm(std::vector<SmTenantSpec>{SmTenantSpec{
             &ck, &provider, config.dataBase, config.sharedBase}},
         mem, config)
{
}

Sm::Sm(std::vector<SmTenantSpec> tenants, mem::MemorySystem &mem,
       const SmConfig &config)
    : _mem(mem),
      _cfg(config),
      _stats("sm"),
      _issued(_stats.counter("insns_issued")),
      _sbVerdicts(_stats.counter("sb_verdicts")),
      _scanVisits(_stats.counter("scan_visits")),
      _notifies(_stats.counter("notifies")),
      _slotIssued(_stats.counter("issued_slots")),
      _divergentBranches(_stats.counter("divergent_branches")),
      _memTransactions(_stats.counter("global_mem_transactions")),
      _skippedCycles(_stats.counter("skipped_cycles")),
      _skipEvents(_stats.counter("skip_events")),
      _warpStalls(config.numWarps)
{
    for (std::size_t o = 0; o < kNumScanOutcomes; ++o) {
        _scanOutcomes[o] = &_stats.counter(
            std::string("scan_visits_") +
            scanOutcomeName(static_cast<ScanOutcome>(o)));
    }
    for (std::size_t c = 0; c < kNumStallCauses; ++c) {
        _stallSlots[c] = &_stats.counter(
            std::string("stall_") +
            stallCauseName(static_cast<StallCause>(c)));
    }
    if (_cfg.numWarps % _cfg.numSchedulers != 0)
        fatal("warps must divide evenly among schedulers");
    if (tenants.empty())
        fatal("SM needs at least one tenant");
    const auto num_tenants = static_cast<unsigned>(tenants.size());
    if (_cfg.numSchedulers % num_tenants != 0 ||
        _cfg.numWarps % num_tenants != 0) {
        fatal(num_tenants, " tenants must divide ",
              _cfg.numSchedulers, " schedulers and ", _cfg.numWarps,
              " warps evenly");
    }
    const unsigned warp_count = _cfg.numWarps / num_tenants;
    const unsigned sched_count = _cfg.numSchedulers / num_tenants;
    if (warp_count % sched_count != 0)
        fatal("tenant warps must divide evenly among tenant schedulers");

    // Tenant t owns the contiguous warp range [t*W/T, (t+1)*W/T) and
    // scheduler groups [t*S/T, (t+1)*S/T). Warps carry global slot
    // ids; block ids and thread indices are tenant-local, so each
    // tenant sees the same launch geometry as a solo run.
    _warps.reserve(_cfg.numWarps);
    _verdicts.resize(_cfg.numWarps);
    _tenantOf.resize(_cfg.numWarps);
    for (unsigned t = 0; t < num_tenants; ++t) {
        const SmTenantSpec &spec = tenants[t];
        if (!spec.ck || !spec.provider)
            fatal("tenant ", t, " missing kernel or provider");
        const WarpId base = t * warp_count;
        _tenants.push_back(std::make_unique<Tenant>(
            spec, base, warp_count, t * sched_count, sched_count));
        Tenant &tn = *_tenants.back();
        const unsigned wpb = tn.kernel->warpsPerBlock();
        for (unsigned l = 0; l < warp_count; ++l) {
            const WarpId w = base + l;
            _warps.emplace_back(w, l / wpb, tn.kernel->numRegs(), l);
            _tenantOf[w] = t;
        }
    }

    // Residency: admit thread blocks up to the occupancy limit.
    _resident.assign(_cfg.numWarps, _cfg.maxResidentWarps == 0);
    if (_cfg.maxResidentWarps != 0) {
        for (auto &tn : _tenants)
            admitBlocks(*tn);
    }

    // Interleaved assignment within each tenant: group sg of tenant t
    // serves warps {base + sg + k*schedCount}, which for one tenant is
    // exactly warp w in group w % numSchedulers (matches how
    // consecutive warps spread across GTX 980 schedulers).
    _groupTenant.resize(_cfg.numSchedulers);
    for (unsigned g = 0; g < _cfg.numSchedulers; ++g) {
        const unsigned t = g / sched_count;
        _groupTenant[g] = t;
        Tenant &tn = *_tenants[t];
        const unsigned sg = g % sched_count;
        std::vector<WarpId> group;
        for (WarpId w = tn.warpBase + sg;
             w < tn.warpBase + tn.warpCount; w += sched_count) {
            group.push_back(w);
        }
        _schedulers.push_back(
            WarpScheduler::create(_cfg.scheduler, std::move(group)));
    }
    for (const auto &sched : _schedulers)
        _schedulersQuiescent &= sched->quiescentWhenStalled();
    const std::size_t group_size = _cfg.numWarps / _cfg.numSchedulers;
    const std::size_t words = (group_size + kMaskBits - 1) / kMaskBits;
    for (const auto &sched : _schedulers) {
        const std::vector<std::uint64_t> none(words, 0);
        ScanGroup sg{std::vector<bool>(group_size, false),
                     std::vector<StallCause>(group_size,
                                             StallCause::NoWarp),
                     none, none, none, none, none, {},
                     kNoSbExpiry, regfile::kNoProviderEvent,
                     sched->usesLongStallFeedback(),
                     sched->demotableMask()};
        // Slots past the group's end sleep for good.
        if (const std::size_t tail = group_size % kMaskBits)
            sg.asleep.back() = ~std::uint64_t{0} << tail;
        _scan.push_back(std::move(sg));
    }
    _sleepRun.assign(_cfg.numWarps, kNoStallRun);
    _groupCharge.resize(_cfg.numSchedulers, StallCause::NoWarp);
    _chargedWarps.reserve(_cfg.numWarps);
}

std::unique_ptr<WarpScheduler>
Sm::exchangeScheduler(unsigned g,
                      std::unique_ptr<WarpScheduler> replacement)
{
    std::unique_ptr<WarpScheduler> &slot = _schedulers.at(g);
    if (!replacement || replacement->warps() != slot->warps())
        panic("replacement scheduler for group ", g,
              " must supervise the same warps");
    std::swap(slot, replacement);
    _scan[g].feedback = slot->usesLongStallFeedback();
    _scan[g].demotable = slot->demotableMask();
    _schedulersQuiescent = true;
    for (const auto &sched : _schedulers)
        _schedulersQuiescent &= sched->quiescentWhenStalled();
    return replacement;
}

bool
Sm::tenantDone(unsigned t) const
{
    return tenant(t).finished();
}

std::uint64_t
Sm::tenantSuspendedCycles(unsigned t) const
{
    const Tenant &tn = tenant(t);
    std::uint64_t cycles = tn.suspendedCycles;
    if (tn.suspended)
        cycles += _now - tn.suspendStart;
    return cycles;
}

void
Sm::requestSuspend(unsigned t, Cycle now)
{
    Tenant &tn = tenant(t);
    if (tn.suspended || tn.suspendRequested || tn.finished())
        return;
    tn.suspendRequested = true;
    ++tn.preemptions;
    tn.provider->requestSuspend(now);
    _anySuspendPending = true;
}

void
Sm::resumeTenant(unsigned t, Cycle now)
{
    Tenant &tn = tenant(t);
    if (tn.suspended) {
        tn.suspendedCycles += now - tn.suspendStart;
        tn.suspended = false;
    }
    tn.suspendRequested = false;
    tn.provider->resume(now);
    bool pending = false;
    for (const auto &other : _tenants)
        pending |= other->suspendRequested;
    _anySuspendPending = pending;
}

void
Sm::pollSuspends(Cycle now)
{
    bool pending = false;
    for (auto &tn : _tenants) {
        if (!tn->suspendRequested)
            continue;
        if (tn->provider->suspendComplete()) {
            // Boundary reached: hand off the staged state. From the
            // next eligibility scan on, the tenant's warps park.
            tn->provider->finalizeSuspend(now);
            tn->suspendRequested = false;
            tn->suspended = true;
            tn->suspendStart = now;
            // Its sleepers' verdicts and provider answers no longer
            // decide their outcome.
            for (unsigned g = tn->schedBase;
                 g < tn->schedBase + tn->schedCount; ++g) {
                ScanGroup &sg = _scan[g];
                const auto &group = _schedulers[g]->warps();
                wakeSleepers(sg, group, kNoSbExpiry);
                for (std::size_t k = 0; k < sg.gated.size(); ++k) {
                    for (std::uint64_t bits = sg.gated[k]; bits != 0;
                         bits &= bits - 1) {
                        const std::size_t i =
                            k * kMaskBits + std::countr_zero(bits);
                        wake(sg, i, group[i]);
                    }
                }
            }
        } else {
            pending = true;
        }
    }
    _anySuspendPending = pending;
}

Pc
Sm::reconvergePcFor(const Tenant &tn, ir::BlockId block) const
{
    ir::BlockId ipdom = tn.cfgAnalysis.immediatePostdominator(block);
    if (ipdom == ir::invalidBlock)
        return invalidPc;
    return tn.kernel->block(ipdom).firstPc();
}

void
Sm::admitBlocks(Tenant &tn)
{
    const unsigned wpb = tn.kernel->warpsPerBlock();
    const unsigned num_blocks = tn.warpCount / wpb;
    // Always keep at least one block admitted so progress is possible.
    while (tn.nextBlockToAdmit < num_blocks &&
           (tn.residentWarps == 0 ||
            tn.residentWarps + wpb <= _cfg.maxResidentWarps)) {
        for (WarpId w = tn.warpBase + tn.nextBlockToAdmit * wpb;
             w < tn.warpBase + (tn.nextBlockToAdmit + 1) * wpb; ++w) {
            _resident[w] = true;
        }
        tn.residentWarps += wpb;
        ++tn.nextBlockToAdmit;
    }
}

const Sm::SbVerdict &
Sm::recomputeVerdict(Tenant &tn, const Warp &warp, Cycle now)
{
    SbVerdict &v = _verdicts[warp.id()];
    ++_sbVerdicts;
    const Scoreboard &sb = tn.scoreboard;
    const ir::Instruction &insn = tn.kernel->insn(warp.pc());
    v.insn = &insn;
    v.ready = sb.ready(warp.id(), insn, now);
    v.longStall = false;
    if (v.ready) {
        v.validUntil = kNoSbExpiry;
        return v;
    }
    v.nextChange = sb.nextReadyChange(warp.id(), insn, now);
    v.validUntil = v.nextChange;
    // Long-latency source? (feeds the two-level demotion) The flag
    // holds while now + threshold < readyAt, so the verdict expires
    // when the first such source comes within the threshold.
    for (RegId src : insn.srcs()) {
        const Cycle at = sb.readyAt(warp.id(), src);
        if (at > now + _cfg.longStallThreshold) {
            v.longStall = true;
            v.validUntil =
                std::min(v.validUntil, at - _cfg.longStallThreshold);
        }
    }
    v.cause = sb.blockedOnMem(warp.id(), insn, now)
                  ? StallCause::MemPending
                  : StallCause::ScoreboardDep;
    return v;
}

bool
Sm::eligible(Tenant &tn, const Warp &warp, Cycle now, bool *long_stall,
             StallCause *cause, Cycle *next_event)
{
    *long_stall = false;
    auto blocked = [&](StallCause why) {
        if (cause)
            *cause = why;
        return false;
    };
    auto bound = [&](Cycle at) {
        if (next_event)
            *next_event = std::min(*next_event, at);
    };
    // Suspended tenants park with no bound: resumption is an external
    // control decision (the QoS controller clamps the skip limit to
    // its own decision points). Non-resident, finished, and
    // barrier-parked warps likewise have no bound: their release
    // requires another warp to issue, which cannot happen inside an
    // all-stalled window.
    if (tn.suspended)
        return blocked(StallCause::NoWarp);
    if (!_resident[warp.id()])
        return blocked(StallCause::NoWarp);
    if (warp.status() == WarpStatus::AtBarrier)
        return blocked(StallCause::SyncBarrier);
    if (warp.status() != WarpStatus::Running)
        return blocked(StallCause::NoWarp);
    const SbVerdict &v = verdict(tn, warp, now);
    if (!v.ready) {
        *long_stall = v.longStall;
        bound(v.nextChange);
        return blocked(v.cause);
    }
    const ir::Instruction &insn = *v.insn;
    if (insn.isGlobalLoad() || insn.isGlobalStore()) {
        if (!_mem.l1PortFree(now)) {
            bound(_mem.nextEventCycle(now));
            return blocked(StallCause::ExecPortBusy);
        }
    }
    // The provider check comes last so its internal gating (e.g. the
    // RegLess capacity manager) sees only otherwise-issuable warps.
    // No per-warp bound: the provider's own nextEventCycle covers it.
    if (!tn.provider->canIssue(warp, now))
        return blocked(tn.provider->blockCause(warp, now));
    return true;
}

Sm::LaneAddrs
Sm::laneAddrs(const Warp &warp, const ir::Instruction &insn,
              Addr base) const
{
    // Loads: address register is src 0; stores: src 1 (data is src 0).
    const RegId addr_reg =
        insn.isGlobalStore() || insn.op() == ir::Opcode::StShared
            ? insn.srcs().at(1)
            : insn.srcs().at(0);
    const ir::LaneValues &av = warp.regValue(addr_reg);
    LaneAddrs addrs;
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        addrs[lane] = base + static_cast<Addr>(av[lane]) +
                      static_cast<Addr>(insn.imm());
    }
    return addrs;
}

Sm::LineSet
Sm::coalesce(const LaneAddrs &addrs, LaneMask mask) const
{
    LineSet lines;
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        if (!(mask & (1u << lane)))
            continue;
        Addr line = mem::lineAddr(addrs[lane]);
        if (std::find(lines.begin(), lines.end(), line) == lines.end())
            lines.line[lines.count++] = line;
    }
    return lines;
}

void
Sm::execAlu(Tenant &tn, Warp &warp, const ir::Instruction &insn,
            Cycle now)
{
    ir::LaneValues result{};
    if (insn.op() == ir::Opcode::Tid) {
        for (unsigned lane = 0; lane < warpSize; ++lane)
            result[lane] = warp.threadBase() + lane;
    } else if (insn.op() == ir::Opcode::CtaId) {
        result.fill(warp.blockId());
    } else {
        // An ALU instruction reads at most three sources; evaluate()
        // checks the count against its opcode.
        std::array<const ir::LaneValues *, 3> srcs{};
        const std::size_t count =
            std::min(insn.srcs().size(), srcs.size());
        for (std::size_t k = 0; k < count; ++k)
            srcs[k] = &warp.regValue(insn.srcs()[k]);
        result = insn.evaluate(srcs.data(), count);
    }
    warp.writeReg(insn.dst(), result, warp.activeMask());
    tn.scoreboard.recordWrite(warp.id(), insn,
                              now + _cfg.latencies.latency(insn));
    warp.stack().advance();
}

void
Sm::execGlobalLoad(Tenant &tn, Warp &warp, const ir::Instruction &insn,
                   Cycle now)
{
    LaneMask mask = warp.activeMask();
    const LaneAddrs addrs = laneAddrs(warp, insn, tn.dataBase);

    ir::LaneValues result{};
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        if (mask & (1u << lane))
            result[lane] = _mem.readWord(addrs[lane]);
    }
    warp.writeReg(insn.dst(), result, mask);

    Cycle ready = now;
    for (Addr line : coalesce(addrs, mask)) {
        ++_memTransactions;
        Cycle t = std::max(now, _mem.l1PortNextFree());
        mem::MemAccessResult res =
            _mem.access(line, /*is_write=*/false, mem::MemSpace::Data, t);
        ready = std::max(ready, res.readyCycle);
    }
    tn.scoreboard.recordWrite(warp.id(), insn, ready);
    warp.stack().advance();
}

void
Sm::execGlobalStore(Tenant &tn, Warp &warp, const ir::Instruction &insn,
                    Cycle now)
{
    LaneMask mask = warp.activeMask();
    const LaneAddrs addrs = laneAddrs(warp, insn, tn.dataBase);
    const ir::LaneValues &data = warp.regValue(insn.srcs().at(0));
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        if (mask & (1u << lane))
            _mem.writeWord(addrs[lane], data[lane]);
    }
    for (Addr line : coalesce(addrs, mask)) {
        ++_memTransactions;
        Cycle t = std::max(now, _mem.l1PortNextFree());
        _mem.access(line, /*is_write=*/true, mem::MemSpace::Data, t);
    }
    warp.stack().advance();
}

void
Sm::execShared(Tenant &tn, Warp &warp, const ir::Instruction &insn,
               Cycle now)
{
    LaneMask mask = warp.activeMask();
    const Addr seg =
        tn.sharedBase + (static_cast<Addr>(warp.blockId()) << 20);
    const LaneAddrs addrs = laneAddrs(warp, insn, seg);
    if (insn.op() == ir::Opcode::LdShared) {
        ir::LaneValues result{};
        for (unsigned lane = 0; lane < warpSize; ++lane) {
            if (mask & (1u << lane))
                result[lane] = _mem.readWord(addrs[lane]);
        }
        warp.writeReg(insn.dst(), result, mask);
        tn.scoreboard.recordWrite(warp.id(), insn,
                                  now + _cfg.latencies.sharedMem);
    } else {
        const ir::LaneValues &data = warp.regValue(insn.srcs().at(0));
        for (unsigned lane = 0; lane < warpSize; ++lane) {
            if (mask & (1u << lane))
                _mem.writeWord(addrs[lane], data[lane]);
        }
    }
    warp.stack().advance();
}

void
Sm::execBranch(Tenant &tn, Warp &warp, const ir::Instruction &insn,
               Cycle now)
{
    (void)now;
    LaneMask mask = warp.activeMask();
    const ir::LaneValues &pred = warp.regValue(insn.srcs().at(0));
    LaneMask taken = 0;
    for (unsigned lane = 0; lane < warpSize; ++lane) {
        if ((mask & (1u << lane)) && pred[lane] != 0)
            taken |= 1u << lane;
    }
    Pc rpc = reconvergePcFor(tn, tn.kernel->blockOf(warp.pc()));
    if (warp.stack().branch(taken, insn.target(), rpc))
        ++_divergentBranches;
}

void
Sm::checkBarrier(Tenant &tn, unsigned block_id)
{
    // Block ids are tenant-local: only this tenant's warps take part
    // in the barrier, never a co-resident kernel's.
    bool all_arrived = true;
    for (WarpId w = tn.warpBase; w < tn.warpBase + tn.warpCount; ++w) {
        const Warp &wp = _warps[w];
        if (wp.blockId() != block_id)
            continue;
        if (wp.status() == WarpStatus::Running) {
            all_arrived = false;
            break;
        }
    }
    if (!all_arrived)
        return;
    for (WarpId w = tn.warpBase; w < tn.warpBase + tn.warpCount; ++w) {
        Warp &wp = _warps[w];
        if (wp.blockId() == block_id &&
            wp.status() == WarpStatus::AtBarrier) {
            wp.setStatus(WarpStatus::Running);
        }
    }
}

void
Sm::execBarrier(Tenant &tn, Warp &warp, Cycle now)
{
    (void)now;
    warp.stack().advance();
    warp.setStatus(WarpStatus::AtBarrier);
    checkBarrier(tn, warp.blockId());
}

void
Sm::execExit(Tenant &tn, Warp &warp, Cycle now)
{
    warp.stack().exitLanes();
    if (warp.stack().allExited()) {
        warp.setStatus(WarpStatus::Finished);
        ++_finishedWarps;
        tn.provider->onWarpFinished(warp, now);
        checkBarrier(tn, warp.blockId());
        if (++tn.finishedWarps == tn.warpCount)
            tn.finishCycle = now;
        // If the whole block finished, its residency slots free up.
        if (_cfg.maxResidentWarps != 0) {
            const unsigned wpb = tn.kernel->warpsPerBlock();
            bool block_done = true;
            for (WarpId w = tn.warpBase + warp.blockId() * wpb;
                 w < tn.warpBase + (warp.blockId() + 1) * wpb; ++w) {
                block_done &= _warps[w].finished();
            }
            if (block_done) {
                tn.residentWarps -= wpb;
                admitBlocks(tn);
            }
        }
    }
}

void
Sm::issue(Tenant &tn, Warp &warp, Cycle now)
{
    const Pc pc = warp.pc();
    const ir::Instruction &insn = tn.kernel->insn(pc);
    // This issue writes the warp's scoreboard row and moves its PC.
    _verdicts[warp.id()].validUntil = 0;
    if (_issueHook)
        _issueHook(warp, pc, insn, now);
    Cycle delay = tn.provider->operandDelay(warp, insn, now);
    Cycle t = now + delay;

    switch (insn.fuClass()) {
      case ir::FuClass::Alu:
      case ir::FuClass::Sfu:
        execAlu(tn, warp, insn, t);
        break;
      case ir::FuClass::Mem:
        if (insn.isGlobalLoad())
            execGlobalLoad(tn, warp, insn, t);
        else if (insn.isGlobalStore())
            execGlobalStore(tn, warp, insn, t);
        else
            execShared(tn, warp, insn, t);
        break;
      case ir::FuClass::Control:
        if (insn.isBranch())
            execBranch(tn, warp, insn, t);
        else if (insn.isJump())
            warp.stack().jump(insn.target());
        else if (insn.isBarrier())
            execBarrier(tn, warp, t);
        else
            execExit(tn, warp, t);
        break;
    }

    warp.countInsn();
    ++_issued;
    ++tn.insns;
    Cycle writeback = insn.writesReg()
                          ? tn.scoreboard.readyAt(warp.id(), insn.dst())
                          : t;
    tn.provider->onIssue(warp, pc, insn, now, writeback);
}

void
Sm::sleep(ScanGroup &sg, std::size_t i)
{
    sg.asleep[i / kMaskBits] |= std::uint64_t{1} << (i % kMaskBits);
    ++sg.sleepers[static_cast<std::size_t>(sg.cause[i])];
}

void
Sm::wake(ScanGroup &sg, std::size_t i, WarpId w)
{
    const auto c = static_cast<std::size_t>(sg.cause[i]);
    _warpStalls[w][c] += _now - _sleepRun[w];
    _sleepRun[w] = kNoStallRun;
    --sg.sleepers[c];
    const std::size_t k = i / kMaskBits;
    const std::uint64_t keep = ~(std::uint64_t{1} << (i % kMaskBits));
    sg.asleep[k] &= keep;
    sg.timed[k] &= keep;
    sg.gated[k] &= keep;
    sg.notify[k] &= keep;
}

void
Sm::wakeSleepers(ScanGroup &sg, const std::vector<WarpId> &group,
                 Cycle due)
{
    sg.wakeAt = kNoSbExpiry;
    sg.nextEvent = regfile::kNoProviderEvent;
    for (std::size_t k = 0; k < sg.timed.size(); ++k) {
        for (std::uint64_t bits = sg.timed[k]; bits != 0;
             bits &= bits - 1) {
            const std::size_t i = k * kMaskBits + std::countr_zero(bits);
            const WarpId w = group[i];
            const SbVerdict &v = _verdicts[w];
            if (v.validUntil > due) {
                sg.wakeAt = std::min(sg.wakeAt, v.validUntil);
                sg.nextEvent = std::min(sg.nextEvent, v.nextChange);
                continue;
            }
            wake(sg, i, w);
        }
    }
}

void
Sm::notifyLongStalls(ScanGroup &sg, WarpScheduler &sched)
{
    const auto &group = sched.warps();
    for (std::size_t k = 0; k < sg.notify.size(); ++k) {
        std::uint64_t bits = sg.notify[k] | sg.flagged[k];
        sg.flagged[k] = 0;
        while (bits != 0) {
            // Only warps the scheduler can demote hear the call. A
            // demotion promotes another warp, which may be a later
            // one here: re-read the mask after every call.
            const std::uint64_t due =
                sg.demotable ? bits & sg.demotable[k] : bits;
            if (due == 0)
                break;
            const unsigned b = std::countr_zero(due);
            // Drop this bit and every lower one: ascending order.
            bits &= ~std::uint64_t{0} << b << 1;
            ++_notifies;
            sched.notifyLongStall(group[k * kMaskBits + b]);
        }
    }
}

std::pair<unsigned, std::size_t>
Sm::scanSlot(WarpId warp) const
{
    const Tenant &tn = *_tenants[_tenantOf[warp]];
    const unsigned local = warp - tn.warpBase;
    return {tn.schedBase + local % tn.schedCount, local / tn.schedCount};
}

std::array<std::uint64_t, kNumStallCauses>
Sm::warpStalls(WarpId warp) const
{
    std::array<std::uint64_t, kNumStallCauses> row = _warpStalls.at(warp);
    const Cycle run = _sleepRun[warp];
    if (run < _now) {
        const auto [g, i] = scanSlot(warp);
        row[static_cast<std::size_t>(_scan[g].cause[i])] += _now - run;
    }
    return row;
}

void
Sm::step()
{
    stepImpl(nullptr);
}

void
Sm::stepImpl(SkipProbe *probe)
{
    for (auto &tn : _tenants)
        tn->provider->tick(_now);
    if (_anySuspendPending)
        pollSuspends(_now);
    // The providers' answers for these warps may have changed in the
    // ticks above: wake the ones asleep on a refusal.
    for (auto &tn : _tenants) {
        if (!tn->wakeList)
            continue;
        for (const WarpId w : *tn->wakeList) {
            const auto [g, i] = scanSlot(w);
            ScanGroup &sg = _scan[g];
            if (sg.gated[i / kMaskBits] >> (i % kMaskBits) & 1)
                wake(sg, i, w);
        }
        tn->wakeList->clear();
    }
    if (probe)
        _chargedWarps.clear();

    for (std::size_t g = 0; g < _schedulers.size(); ++g) {
        Tenant &tn = *_tenants[_groupTenant[g]];
        auto &sched = _schedulers[g];
        const auto &group = sched->warps();
        ScanGroup &sg = _scan[g];
        std::vector<bool> &can = sg.can;
        std::vector<StallCause> &cause = sg.cause;
        if (_now >= sg.wakeAt)
            wakeSleepers(sg, group, _now);
        bool any = false;
        // Least stallPrecedence over the awake warps found blocked.
        StallCause awake_charge = StallCause::NoWarp;
        for (std::size_t k = 0; k < sg.asleep.size(); ++k) {
            for (std::uint64_t awake = ~sg.asleep[k]; awake != 0;
                 awake &= awake - 1) {
                const unsigned b = std::countr_zero(awake);
                const std::size_t i = k * kMaskBits + b;
                const WarpId w = group[i];
                const Warp &warp = _warps[w];
                ++_scanVisits;
                bool long_stall = false;
                can[i] = eligible(tn, warp, _now, &long_stall, &cause[i],
                                  probe ? &probe->nextEvent : nullptr);
                if (can[i]) {
                    countVisit(ScanOutcome::Eligible);
                    any = true;
                    continue;
                }
                if (stallPrecedence(cause[i]) <
                    stallPrecedence(awake_charge)) {
                    awake_charge = cause[i];
                }
                const std::uint64_t bit = std::uint64_t{1} << b;
                if (warp.status() == WarpStatus::Finished) {
                    // Finished for good. Notified every cycle all the
                    // same: a two-level scheduler must demote it.
                    countVisit(ScanOutcome::Finished);
                    sleep(sg, i);
                    sg.notify[k] |= bit;
                    continue;
                }
                if (warp.status() != WarpStatus::Running) {
                    // Barrier-parked: must vacate a two-level
                    // scheduler's active pool, or pending warps never
                    // get promoted and the SM deadlocks.
                    countVisit(tn.suspended       ? ScanOutcome::Suspended
                               : !_resident[w] ? ScanOutcome::NonResident
                                               : ScanOutcome::Barrier);
                    if (sg.feedback)
                        sg.flagged[k] |= bit;
                    continue;
                }
                // Per-warp stall detail (feeds the trace and the
                // deadlock report); the per-slot charge below is
                // separate so every scheduler-cycle is charged
                // exactly once.
                ++_warpStalls[w][static_cast<std::size_t>(cause[i])];
                const SbVerdict &v = _verdicts[w];
                // A ready verdict was refused by the L1 port or the
                // provider. Only a provider refusal of a non-global
                // instruction can sleep: the port check comes first,
                // and other warps' issues move it.
                const bool gated = v.ready && tn.wakeList &&
                                   !v.insn->isGlobalLoad() &&
                                   !v.insn->isGlobalStore();
                if (tn.suspended || !_resident[w] ||
                    (v.ready && !gated)) {
                    countVisit(tn.suspended       ? ScanOutcome::Suspended
                               : !_resident[w] ? ScanOutcome::NonResident
                               : !v.ready      ? ScanOutcome::Scoreboard
                               : cause[i] == StallCause::ExecPortBusy
                                   ? ScanOutcome::PortWait
                                   : ScanOutcome::ProviderRefused);
                    if (probe)
                        _chargedWarps.emplace_back(w, cause[i]);
                    continue;
                }
                // Its stall run from the next cycle on is charged when
                // it wakes, to the cause it sleeps with.
                countVisit(gated ? ScanOutcome::ProviderRefused
                                 : ScanOutcome::Scoreboard);
                sleep(sg, i);
                _sleepRun[w] = _now + 1;
                if (gated) {
                    // Refused by the provider: only a provider state
                    // change (listed on its wake list) or a tenant
                    // suspension can change that.
                    sg.gated[k] |= bit;
                    continue;
                }
                // Blocked on its scoreboard verdict: only its own
                // issue could change that before the verdict expires,
                // so it sleeps until then.
                sg.timed[k] |= bit;
                if (long_stall)
                    sg.notify[k] |= bit;
                sg.wakeAt = std::min(sg.wakeAt, v.validUntil);
                sg.nextEvent = std::min(sg.nextEvent, v.nextChange);
            }
        }
        // Long-stall feedback, in ascending group index. Batching the
        // calls after the scan is exact: eligible() never reads
        // scheduler state.
        if (sg.feedback)
            notifyLongStalls(sg, *sched);
        if (probe)
            probe->nextEvent = std::min(probe->nextEvent, sg.nextEvent);
        const int picked = any ? sched->pick(can) : -1;
        if (picked >= 0) {
            ++_slotIssued;
            ++tn.slotIssued;
        } else if (any) {
            // An eligible warp existed but the policy declined the
            // slot (e.g. two-level promotion delay): no warp was
            // available *to the selector*.
            ++*_stallSlots[static_cast<std::size_t>(
                StallCause::NoWarp)];
            ++tn.stallSlots[static_cast<std::size_t>(
                StallCause::NoWarp)];
        } else {
            // Charge the slot to the blocked warp closest to issuing:
            // the awake ones were all blocked and seen above, and the
            // sleepers are counted by frozen cause. stallPrecedence is
            // one-to-one, so the minimum names a single cause.
            StallCause charge = awake_charge;
            for (std::size_t c = 0; c < kNumStallCauses; ++c) {
                const auto sleeper = static_cast<StallCause>(c);
                if (sg.sleepers[c] != 0 &&
                    stallPrecedence(sleeper) < stallPrecedence(charge)) {
                    charge = sleeper;
                }
            }
            ++*_stallSlots[static_cast<std::size_t>(charge)];
            ++tn.stallSlots[static_cast<std::size_t>(charge)];
            if (probe)
                _groupCharge[g] = charge;
        }
        if (probe) {
            probe->anyIssue |= picked >= 0;
            probe->anyEligible |= any;
        }
        if (_traceHook) {
            for (std::size_t i = 0; i < group.size(); ++i) {
                const char *label =
                    static_cast<int>(i) == picked ? "issue"
                    : can[i]                      ? "ready"
                    : stallCauseName(cause[i]);
                updateTraceLabel(group[i], label);
            }
        }
        if (picked < 0)
            continue;
        Warp &warp = _warps[group[picked]];
        issue(tn, warp, _now);
        // Dual issue: a second independent instruction from the same
        // warp, re-checked against the updated scoreboard. The extra
        // issue shares the slot already counted above.
        for (unsigned extra = 1; extra < _cfg.issueWidth; ++extra) {
            bool long_stall = false;
            if (warp.status() != WarpStatus::Running ||
                !eligible(tn, warp, _now, &long_stall)) {
                break;
            }
            issue(tn, warp, _now);
        }
    }

    ++_now;
}

void
Sm::stepSkipping(Cycle limit)
{
    SkipProbe probe;
    stepImpl(&probe);
    // Collapse only provably dead windows: nothing issued, nothing was
    // even eligible (so no scheduler pick() was consulted), every
    // scheduler is stall-quiescent, no suspend handoff is in flight
    // (its boundary poll is per-cycle work), and the SM is not
    // finished.
    if (probe.anyIssue || probe.anyEligible || !_schedulersQuiescent ||
        _anySuspendPending || done()) {
        return;
    }
    // Next event is the min over every tenant's provider: a window is
    // only dead if no co-resident kernel has background work either.
    Cycle target = probe.nextEvent;
    for (const auto &tn : _tenants)
        target = std::min(target, tn->provider->nextEventCycle(_now));
    target = std::min(target, limit);
    if (target <= _now)
        return;
    const Cycle n = target - _now;
    // Bulk charging: state is constant across the window, so each
    // skipped cycle would have charged exactly the causes the probe
    // cycle did — one slot per scheduler group plus the per-warp
    // detail. This preserves the closed-account invariant
    // issued + stalls == schedulers * cycles, per tenant and in total.
    for (std::size_t g = 0; g < _groupCharge.size(); ++g) {
        *_stallSlots[static_cast<std::size_t>(_groupCharge[g])] += n;
        _tenants[_groupTenant[g]]->stallSlots[static_cast<std::size_t>(
            _groupCharge[g])] += n;
    }
    for (const auto &[w, cause] : _chargedWarps)
        _warpStalls[w][static_cast<std::size_t>(cause)] += n;
    for (auto &tn : _tenants)
        tn->provider->onCyclesSkipped(_now, n);
    _skippedCycles += n;
    ++_skipEvents;
    _now = target;
}

void
Sm::setStallTraceHook(StallTraceHook hook)
{
    _traceHook = std::move(hook);
    _traceLabel.assign(_cfg.numWarps, nullptr);
    _traceStart.assign(_cfg.numWarps, 0);
}

void
Sm::updateTraceLabel(WarpId warp, const char *label)
{
    // Labels are interned string literals (stallCauseName or the
    // "issue"/"ready" constants in step), so pointer comparison is a
    // run-length check.
    if (_traceLabel[warp] == label)
        return;
    if (_traceLabel[warp] && _now > _traceStart[warp])
        _traceHook(warp, _traceLabel[warp], _traceStart[warp], _now);
    _traceLabel[warp] = label;
    _traceStart[warp] = _now;
}

void
Sm::flushStallTrace()
{
    if (!_traceHook)
        return;
    for (WarpId w = 0; w < _traceLabel.size(); ++w) {
        if (_traceLabel[w] && _now > _traceStart[w])
            _traceHook(w, _traceLabel[w], _traceStart[w], _now);
        _traceLabel[w] = nullptr;
    }
}

StallSnapshot
Sm::slotSnapshot() const
{
    StallSnapshot snap;
    snap.issuedSlots = _slotIssued.value();
    for (std::size_t c = 0; c < kNumStallCauses; ++c)
        snap.stallSlots[c] = _stallSlots[c]->value();
    return snap;
}

Cycle
Sm::run()
{
    while (!done()) {
        step();
        if (_now >= _cfg.maxCycles) {
            fatal("kernel '", _tenants.front()->kernel->name(),
                  "' exceeded ", _cfg.maxCycles,
                  " cycles; likely deadlock");
        }
    }
    return _now;
}

} // namespace regless::arch
