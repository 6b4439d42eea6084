#include "core/issue_cluster.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/state_io.hh"
#include "core/sm_core.hh"

namespace scsim {

IssueCluster::IssueCluster(const GpuConfig &cfg, int clusterId)
    : cfg_(cfg),
      id_(clusterId),
      arbiter_(cfg.banksPerCluster()),
      collector_(cfg.cusPerCluster()),
      pipes_(cfg, cfg.schedulersPerCluster())
{
    int nsched = cfg.schedulersPerCluster();
    for (int s = 0; s < nsched; ++s)
        scheds_.push_back(makeScheduler(cfg));
    schedWarps_.resize(static_cast<std::size_t>(nsched));
    ageCounter_.assign(static_cast<std::size_t>(nsched), 0);

    ringDepth_ = static_cast<std::size_t>(cfg.rbaScoreLatency) + 1;
    numBanks_ = static_cast<std::size_t>(cfg.banksPerCluster());
    qlenRing_.assign(ringDepth_ * numBanks_, 0);

    // Worst-case candidate count: every warp of every scheduler table
    // (the shared-pool path scans them all); reserving it up front
    // keeps the per-cycle scratch list allocation-free.
    candidates_.reserve(static_cast<std::size_t>(nsched)
                        * static_cast<std::size_t>(
                              cfg.maxWarpsPerScheduler));
}

int
IssueCluster::warpCount(int sched) const
{
    return static_cast<int>(
        schedWarps_[static_cast<std::size_t>(sched)].size());
}

int
IssueCluster::totalWarpCount() const
{
    int n = 0;
    for (const auto &list : schedWarps_)
        n += static_cast<int>(list.size());
    return n;
}

std::uint32_t
IssueCluster::addWarp(int sched, WarpSlot slot, bool unchecked)
{
    auto idx = static_cast<std::size_t>(sched);
    scsim_assert(unchecked
                     || static_cast<int>(schedWarps_[idx].size())
                            < cfg_.maxWarpsPerScheduler,
                 "scheduler table overflow");
    schedWarps_[idx].push_back(slot);
    wake();
    return ageCounter_[idx]++;
}

void
IssueCluster::removeWarp(int sched, WarpSlot slot)
{
    auto &list = schedWarps_[static_cast<std::size_t>(sched)];
    auto it = std::find(list.begin(), list.end(), slot);
    scsim_assert(it != list.end(), "removing unbound warp");
    list.erase(it);
    wake();
}

bool
IssueCluster::cycle(Cycle now, SmCore &sm)
{
    if (asleep_) {
        sleepTick(sm.stats());
        return false;
    }
    // Dispatch first (CUs filled by last cycle's grants), then issue
    // into the freed CUs; newly pushed reads may be granted in the
    // same cycle, giving a 2-cycle best-case collector turnaround.
    dispatch(now, sm);
    int issued = issue(now, sm);
    applyGrants(now, sm);
    // Grants landing after the issue phase ready warps (writes) or
    // CUs (reads) for the *next* cycle, so they count as work even
    // when nothing issued this cycle.
    if (issued > 0 || arbiter_.anyPending() || !grants_.writes.empty()
        || !grants_.reads.empty())
        return true;
    for (int i = 0; i < collector_.size(); ++i)
        if (collector_.unit(i).busy)
            return true;
    fallAsleep(sm);
    return false;
}

void
IssueCluster::fallAsleep(const SmCore &sm)
{
    // Nothing issued, queued or busy: every warp left in the tables is
    // sbBlocked or unschedulable, so an idle cycle's issue phase sees
    // no candidate and classifies each scheduler by its sbBlocked
    // warps alone (issue() below).  The shared pool counts no stalls.
    asleep_ = true;
    sleepStallScoreboard_ = 0;
    sleepStallNoWarp_ = 0;
    if (cfg_.sharedWarpPool)
        return;
    const WarpContext *warps = sm.warpTable();
    for (const auto &list : schedWarps_) {
        bool blocked = std::any_of(list.begin(), list.end(),
                                   [&](WarpSlot slot) {
                                       return warps[slot].sbBlocked;
                                   });
        ++(blocked ? sleepStallScoreboard_ : sleepStallNoWarp_);
    }
}

void
IssueCluster::sleepTick(SimStats &stats)
{
    stats.schedCycles += static_cast<std::uint64_t>(numSchedulers());
    stats.stallScoreboard += sleepStallScoreboard_;
    stats.stallNoWarp += sleepStallNoWarp_;
    // The issue phase would snapshot the (empty) bank queues.
    std::fill_n(qlenRing_.data() + head_ * numBanks_, numBanks_, 0);
    head_ = (head_ + 1) % ringDepth_;
}

void
IssueCluster::dispatch(Cycle now, SmCore &sm)
{
    WarpContext *warps = sm.warpTable();
    int n = collector_.size();
    // Rotate the scan start so no CU is structurally favored.
    int start = static_cast<int>(now % static_cast<Cycle>(n));
    for (int k = 0; k < n; ++k) {
        int idx = (start + k) % n;
        const CollectorUnit &cu = collector_.unit(idx);
        if (!cu.ready())
            continue;
        UnitKind kind = unitOf(cu.inst.op);
        bool isGlobalMem = kind == UnitKind::LdSt
            && cu.inst.mem.space == MemSpace::Global;
        ExecPipe *pipe = pipes_.findFree(kind, now);
        if (!pipe) {
            ++sm.stats().execStructuralStalls;
            continue;
        }
        if (isGlobalMem && !sm.tryConsumeL1Port()) {
            ++sm.stats().execStructuralStalls;
            continue;
        }
        pipe->accept(now);
        sm.stats().cuTurnaroundSum += now + 1 - cu.allocCycle;
        ++sm.stats().cuDispatches;
        WarpContext &warp = warps[cu.warp];
        if (kind == UnitKind::LdSt) {
            Cycle done = sm.issueMemory(warp, cu.inst, now);
            if (isLoad(cu.inst.op))
                sm.scheduleRegWrite(done, cu.warp, cu.inst.dst);
        } else if (cu.inst.dst != kNoReg) {
            sm.scheduleRegWrite(now + static_cast<Cycle>(pipe->latency()),
                                cu.warp, cu.inst.dst);
        }
        collector_.release(idx);
    }
}

void
IssueCluster::applyGrants(Cycle now, SmCore &sm)
{
    grants_.clear();
    arbiter_.arbitrate(grants_);
    for (const ReadRequest &grant : grants_.reads)
        collector_.operandArrived(grant.cu, grant.operandMask);
    for (const WriteRequest &grant : grants_.writes)
        sm.completeRegWrite(grant.warp, grant.reg);

    SimStats &stats = sm.stats();
    stats.rfReads += static_cast<std::uint64_t>(grants_.reads.size())
        * kWarpSize;
    stats.rfWrites += static_cast<std::uint64_t>(grants_.writes.size())
        * kWarpSize;
    stats.rfBankConflictCycles +=
        static_cast<std::uint64_t>(grants_.conflictCycles);
    if (!grants_.reads.empty())
        sm.noteRfReads(now, static_cast<int>(grants_.reads.size()));
}

bool
IssueCluster::candidateReadyWith(const WarpContext &warp,
                                 bool cuFree) const
{
    if (!warp.schedulable())
        return false;
    const Instruction &inst = warp.nextInst();
    if (inst.op == Opcode::EXIT || inst.op == Opcode::BAR) {
        // Drain in-flight writes before leaving the pipeline.
        return !warp.scoreboard.anyPending();
    }
    if (!warp.scoreboard.ready(inst))
        return false;
    if (inst.usesCollector() && !cuFree)
        return false;
    return true;
}

const int *
IssueCluster::staleQueueView() const
{
    // head_ holds the snapshot taken at the *start* of this issue
    // phase (latency 0); older snapshots sit behind it.
    std::size_t lag = static_cast<std::size_t>(cfg_.rbaScoreLatency);
    std::size_t idx = (head_ + ringDepth_ - lag % ringDepth_)
        % ringDepth_;
    return qlenRing_.data() + idx * numBanks_;
}

int
IssueCluster::issue(Cycle now, SmCore &sm)
{
    int issued = 0;
    // Record the live queue lengths as this cycle's snapshot, then let
    // schedulers see the view rbaScoreLatency cycles behind it.
    int *snap = qlenRing_.data() + head_ * numBanks_;
    for (int b = 0; b < arbiter_.numBanks(); ++b)
        snap[b] = arbiter_.readQueueLen(b);

    WarpContext *warps = sm.warpTable();
    PickContext ctx;
    ctx.now = now;
    ctx.warps = warps;
    ctx.bankQueueLen = staleQueueView();
    ctx.numBanks = arbiter_.numBanks();

    int nsched = numSchedulers();
    if (cfg_.sharedWarpPool) {
        // Monolithic (pre-Maxwell) issue: every scheduler slot may
        // pick any ready warp in the cluster; a warp may issue more
        // than once per cycle (dual issue of independent instructions
        // from one warp).
        auto &policy = *scheds_[0];
        sm.stats().schedCycles += static_cast<std::uint64_t>(nsched);
        int slots = nsched * cfg_.issueWidthPerScheduler;
        for (int k = 0; k < slots; ++k) {
            candidates_.clear();
            // No CU is allocated during the scan itself, so the
            // collector-free test is loop-invariant.
            const bool cuFree = collector_.hasFree();
            for (const auto &list : schedWarps_)
                for (WarpSlot slot : list) {
                    WarpContext &w = warps[slot];
                    if (!w.sbBlocked && candidateReadyWith(w, cuFree))
                        candidates_.push_back(slot);
                }
            if (candidates_.empty())
                break;
            WarpSlot chosen = policy.pick(candidates_, ctx);
            issueTo(now, sm, warps[chosen].schedInCluster, chosen);
            policy.notifyIssued(chosen, now);
            ++issued;
            ++sm.stats().issueSlotsUsed;
        }
        head_ = (head_ + 1) % ringDepth_;
        return issued;
    }
    int start = static_cast<int>(now % static_cast<Cycle>(nsched));
    for (int k = 0; k < nsched; ++k) {
        int s = (start + k) % nsched;
        auto &policy = *scheds_[static_cast<std::size_t>(s)];
        ++sm.stats().schedCycles;
        for (int slotIssue = 0; slotIssue < cfg_.issueWidthPerScheduler;
             ++slotIssue) {
            candidates_.clear();
            bool sawHazard = false, sawNoCu = false, sawWarp = false;
            // Loop-invariant: issue happens after the scan, so CU
            // availability cannot change while collecting candidates.
            const bool cuFree = collector_.hasFree();
            for (WarpSlot slot
                 : schedWarps_[static_cast<std::size_t>(s)]) {
                WarpContext &w = warps[slot];
                if (w.sbBlocked || !w.schedulable()) {
                    sawWarp = sawWarp || w.sbBlocked;
                    continue;
                }
                sawWarp = true;
                const Instruction &inst = w.nextInst();
                bool drainOp = inst.op == Opcode::EXIT
                    || inst.op == Opcode::BAR;
                if (drainOp ? w.scoreboard.anyPending()
                            : !w.scoreboard.ready(inst)) {
                    w.sbBlocked = true;
                    sawHazard = true;
                    continue;
                }
                if (!drainOp && inst.usesCollector() && !cuFree) {
                    sawNoCu = true;
                    continue;
                }
                candidates_.push_back(slot);
            }
            if (candidates_.empty()) {
                if (slotIssue == 0) {
                    if (sawNoCu) {
                        ++sm.stats().stallNoCu;
                        ++sm.stats().collectorFullStalls;
                    } else if (sawHazard) {
                        ++sm.stats().stallScoreboard;
                    } else if (!sawWarp) {
                        ++sm.stats().stallNoWarp;
                    } else {
                        ++sm.stats().stallScoreboard;
                    }
                }
                break;
            }
            ++sm.stats().issueSlotsUsed;
            WarpSlot chosen = policy.pick(candidates_, ctx);
            issueTo(now, sm, s, chosen);
            policy.notifyIssued(chosen, now);
            ++issued;
        }
        if (cfg_.bankStealing) {
            // Bank stealing [36]: opportunistically place one extra
            // instruction whose source banks are all idle into a free
            // CU, ahead of normal issue order.
            candidates_.clear();
            const bool cuFree = collector_.hasFree();
            for (WarpSlot slot : schedWarps_[static_cast<std::size_t>(s)]) {
                const WarpContext &w = warps[slot];
                if (!candidateReadyWith(w, cuFree))
                    continue;
                const Instruction &inst = w.nextInst();
                if (!inst.usesCollector())
                    continue;
                if (cuFree
                    && collector_.banksIdle(slot, inst, arbiter_)) {
                    candidates_.push_back(slot);
                }
            }
            if (!candidates_.empty()) {
                // Oldest eligible warp steals the idle banks.
                WarpSlot chosen = candidates_.front();
                for (WarpSlot slot : candidates_)
                    if (warps[slot].ageRank < warps[chosen].ageRank)
                        chosen = slot;
                issueTo(now, sm, s, chosen);
                ++issued;
                ++sm.stats().issueSlotsUsed;
            }
        }
    }

    head_ = (head_ + 1) % ringDepth_;
    return issued;
}

void
IssueCluster::issueTo(Cycle now, SmCore &sm, int sched, WarpSlot slot)
{
    WarpContext &warp = sm.warpTable()[slot];
    const Instruction &inst = warp.nextInst();
    warp.lastIssue = now;
    ++warp.pc;
    sm.noteIssue(id_, sched);

    switch (inst.op) {
      case Opcode::BAR:
        sm.warpBarrier(slot);
        return;
      case Opcode::EXIT:
        sm.warpExit(slot, now);
        return;
      default:
        break;
    }

    int cu = collector_.allocate(slot, inst, warp.pc - 1, arbiter_, now);
    scsim_assert(cu >= 0, "issue without a free collector unit");
    warp.scoreboard.markIssue(inst);
}

void
IssueCluster::onIdleSkip()
{
    std::fill(qlenRing_.begin(), qlenRing_.end(), 0);
}

void
IssueCluster::reset()
{
    arbiter_.reset();
    collector_.reset();
    pipes_.reset();
    for (auto &sched : scheds_)
        sched->reset();
    for (auto &list : schedWarps_)
        list.clear();
    std::fill(ageCounter_.begin(), ageCounter_.end(), 0u);
    onIdleSkip();
    head_ = 0;
    wake();
}

template <class Ar>
void
IssueCluster::state(Ar &ar)
{
    // grants_ and candidates_ are per-cycle scratch (cleared before
    // every use) and are deliberately not part of the snapshot; nor
    // is the sleep state, which a loaded cluster rebuilds by running
    // one full cycle.
    const auto warps = static_cast<std::size_t>(cfg_.maxWarpsPerSm);
    arbiter_.state(ar, static_cast<std::size_t>(collector_.size()), warps);
    collector_.state(ar, warps);
    pipes_.state(ar);
    for (auto &sched : scheds_)
        sched->state(ar);
    for (auto &list : schedWarps_)
        ar.seq("ic.warps", list,
               [&](WarpSlot &slot) { ar.index("ic.slot", slot, warps); });
    for (std::uint32_t &age : ageCounter_)
        ar.u64("ic.age", age);
    for (int &qlen : qlenRing_)
        ar.i64("ic.qlen", qlen);
    ar.index("ic.head", head_, ringDepth_);
    if constexpr (Ar::kLoading)
        wake();
}

void
IssueCluster::checkRestored(Cycle now) const
{
    std::vector<std::uint32_t> queued(
        static_cast<std::size_t>(collector_.size()), 0);
    for (int b = 0; b < arbiter_.numBanks(); ++b)
        for (const ReadRequest &req : arbiter_.readQueue(b)) {
            std::uint32_t &mask = queued[static_cast<std::size_t>(req.cu)];
            if (!collector_.unit(req.cu).busy || req.operandMask == 0
                || req.operandMask > 0b111 || (mask & req.operandMask))
                scsim_throw(CacheError,
                            "snapshot field 'rf.read.mask': operands %#x "
                            "of collector unit %d are not awaited",
                            req.operandMask, req.cu);
            mask |= req.operandMask;
        }
    for (int i = 0; i < collector_.size(); ++i)
        if (queued[static_cast<std::size_t>(i)]
                != collector_.unit(i).pendingOperands)
            scsim_throw(CacheError,
                        "snapshot field 'cu.pending': collector unit %d "
                        "awaits operands %#x, reads are queued for %#x",
                        i, collector_.unit(i).pendingOperands,
                        queued[static_cast<std::size_t>(i)]);
    pipes_.checkRestored(now);
}

template void IssueCluster::state(StateWriter &);
template void IssueCluster::state(StateReader &);

} // namespace scsim
