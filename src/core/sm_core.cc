#include "core/sm_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "trace/kernel.hh"

namespace scsim {

namespace {

int
ceilShare(int warps, int schedulers)
{
    return (warps + schedulers - 1) / schedulers;
}

} // namespace

SmCore::SmCore(const GpuConfig &cfg, int smId, MemSystem &mem,
               SimStats &stats)
    : cfg_(cfg), smId_(smId), mem_(mem), stats_(stats)
{
    warps_.resize(static_cast<std::size_t>(cfg.maxWarpsPerSm));
    freeSlots_.reserve(warps_.size());
    for (int i = cfg.maxWarpsPerSm - 1; i >= 0; --i)
        freeSlots_.push_back(i);
    blocks_.resize(static_cast<std::size_t>(cfg.maxBlocksPerSm));
    for (int c = 0; c < cfg.clusterCount(); ++c)
        clusters_.push_back(std::make_unique<IssueCluster>(cfg, c));
    regBytesUsed_.assign(static_cast<std::size_t>(cfg.clusterCount()), 0);

    std::uint64_t seed = cfg.seed
        ^ (0x51ed2701a3c5e091ULL * static_cast<std::uint64_t>(smId + 1));
    assigner_ = makeAssigner(cfg, cfg.schedulersPerSm, seed);
    rfTrace_ = cfg.rfTraceEnable && smId == 0;
}

void
SmCore::checkKernelFits(const GpuConfig &cfg, const KernelDesc &kernel)
{
    if (kernel.warpsPerBlock > cfg.maxWarpsPerSm)
        scsim_throw(WorkloadError, "kernel '%s': block of %d warps exceeds SM capacity "
                    "%d", kernel.name.c_str(), kernel.warpsPerBlock,
                    cfg.maxWarpsPerSm);
    int share = ceilShare(kernel.warpsPerBlock, cfg.schedulersPerSm);
    if (share > cfg.maxWarpsPerScheduler)
        scsim_throw(WorkloadError, "kernel '%s': %d warps/scheduler exceeds table size "
                    "%d", kernel.name.c_str(), share,
                    cfg.maxWarpsPerScheduler);
    if (kernel.smemBytesPerBlock > cfg.smemBytesPerSm)
        scsim_throw(WorkloadError, "kernel '%s': %u B shared memory exceeds SM's %u B",
                    kernel.name.c_str(), kernel.smemBytesPerBlock,
                    cfg.smemBytesPerSm);
    std::uint32_t clusterRegs =
        static_cast<std::uint32_t>(share)
        * static_cast<std::uint32_t>(cfg.schedulersPerCluster())
        * kernel.regBytesPerWarp();
    if (clusterRegs > cfg.regFileBytesPerCluster())
        scsim_throw(WorkloadError, "kernel '%s': needs %u reg bytes per sub-core, "
                    "file holds %u", kernel.name.c_str(), clusterRegs,
                    cfg.regFileBytesPerCluster());
}

bool
SmCore::canAccept(const KernelDesc &kernel) const
{
    if (activeBlocks_ >= cfg_.maxBlocksPerSm)
        return false;
    if (smemUsed_ + kernel.smemBytesPerBlock > cfg_.smemBytesPerSm)
        return false;
    if (static_cast<int>(freeSlots_.size()) < kernel.warpsPerBlock)
        return false;

    int share = ceilShare(kernel.warpsPerBlock, cfg_.schedulersPerSm);
    for (const auto &cluster : clusters_) {
        for (int s = 0; s < cluster->numSchedulers(); ++s) {
            if (cluster->warpCount(s) + share > cfg_.maxWarpsPerScheduler)
                return false;
        }
    }
    std::uint32_t clusterRegs =
        static_cast<std::uint32_t>(share)
        * static_cast<std::uint32_t>(cfg_.schedulersPerCluster())
        * kernel.regBytesPerWarp();
    for (std::uint32_t used : regBytesUsed_)
        if (used + clusterRegs > cfg_.regFileBytesPerCluster())
            return false;
    return true;
}

int
SmCore::pickSpillScheduler(std::uint32_t regBytes) const
{
    int best = -1;
    int bestCount = 0;
    for (int g = 0; g < cfg_.schedulersPerSm; ++g) {
        int c = g / cfg_.schedulersPerCluster();
        int s = g % cfg_.schedulersPerCluster();
        const IssueCluster &cluster = *clusters_[static_cast<std::size_t>(c)];
        if (cluster.warpCount(s) >= cfg_.maxWarpsPerScheduler)
            continue;
        if (regBytesUsed_[static_cast<std::size_t>(c)] + regBytes
                > cfg_.regFileBytesPerCluster())
            continue;
        if (best < 0 || cluster.warpCount(s) < bestCount) {
            best = g;
            bestCount = cluster.warpCount(s);
        }
    }
    return best;
}

void
SmCore::acceptBlock(const KernelDesc &kernel, int blockId, Cycle now)
{
    // Claim a block-table entry.
    BlockState *block = nullptr;
    int blockSeq = -1;
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        if (!blocks_[i].live) {
            block = &blocks_[i];
            blockSeq = static_cast<int>(i);
            break;
        }
    }
    scsim_assert(block != nullptr, "acceptBlock without canAccept");
    *block = BlockState{};
    block->live = true;
    block->blockId = blockId;
    block->kernel = &kernel;
    block->warpsTotal = kernel.warpsPerBlock;
    smemUsed_ += kernel.smemBytesPerBlock;
    ++activeBlocks_;

    std::uint32_t regBytes = kernel.regBytesPerWarp();
    for (int w = 0; w < kernel.warpsPerBlock; ++w) {
        int g = assigner_->nextSubcore();
        int c = g / cfg_.schedulersPerCluster();
        int s = g % cfg_.schedulersPerCluster();
        IssueCluster *cluster = clusters_[static_cast<std::size_t>(c)].get();
        bool fits = cluster->warpCount(s) < cfg_.maxWarpsPerScheduler
            && regBytesUsed_[static_cast<std::size_t>(c)] + regBytes
                   <= cfg_.regFileBytesPerCluster();
        if (!fits) {
            g = pickSpillScheduler(regBytes);
            scsim_assert(g >= 0, "no scheduler can hold a spilled warp");
            c = g / cfg_.schedulersPerCluster();
            s = g % cfg_.schedulersPerCluster();
            cluster = clusters_[static_cast<std::size_t>(c)].get();
            ++stats_.assignSpills;
        }

        scsim_assert(!freeSlots_.empty(), "warp slots exhausted");
        WarpSlot slot = freeSlots_.back();
        freeSlots_.pop_back();

        WarpContext &warp = warps_[static_cast<std::size_t>(slot)];
        warp.reset();
        warp.slot = slot;
        warp.blockSeq = blockSeq;
        warp.warpInBlock = w;
        warp.gwid = static_cast<std::uint64_t>(blockId)
            * static_cast<std::uint64_t>(kernel.warpsPerBlock)
            + static_cast<std::uint64_t>(w);
        warp.prog = &kernel.programOf(w);
        warp.cluster = c;
        warp.schedInCluster = s;
        warp.active = true;
        warp.lastIssue = now;
        warp.ageRank = cluster->addWarp(s, slot);
        warp.regBytes = regBytes;
        regBytesUsed_[static_cast<std::size_t>(c)] += regBytes;
        block->slots.push_back(slot);
    }
    hadWork_ = true;
}

void
SmCore::processEvents(Cycle now)
{
    while (!events_.empty() && events_.front().when <= now) {
        std::pop_heap(events_.begin(), events_.end(),
                      std::greater<RegWriteEvent>());
        RegWriteEvent ev = events_.back();
        events_.pop_back();
        scsim_assert(ev.when == now,
                     "missed a writeback event (idle skip overshoot)");
        const WarpContext &warp = warps_[static_cast<std::size_t>(ev.warp)];
        IssueCluster &cluster =
            *clusters_[static_cast<std::size_t>(warp.cluster)];
        int bank = cluster.arbiter().bankOf(ev.reg, ev.warp);
        cluster.arbiter().pushWrite(bank, WriteRequest{ ev.warp, ev.reg });
    }
}

void
SmCore::cycle(Cycle now)
{
    l1PortsLeft_ = cfg_.l1PortsPerSm;
    processEvents(now);
    if (cfg_.idealWarpMigration)
        migrateForBalance();
    bool active = false;
    for (auto &cluster : clusters_)
        active = cluster->cycle(now, *this) || active;
    hadWork_ = active;
}

void
SmCore::migrateForBalance()
{
    int nsched = cfg_.schedulersPerSm;
    int perCluster = cfg_.schedulersPerCluster();
    // Runnable warps per global scheduler.
    std::vector<int> runnable(static_cast<std::size_t>(nsched), 0);
    for (int g = 0; g < nsched; ++g) {
        const IssueCluster &cluster =
            *clusters_[static_cast<std::size_t>(g / perCluster)];
        for (WarpSlot slot : cluster.warpsOf(g % perCluster)) {
            const WarpContext &w = warps_[static_cast<std::size_t>(slot)];
            if (w.schedulable() && !w.sbBlocked)
                ++runnable[static_cast<std::size_t>(g)];
        }
    }
    for (int g = 0; g < nsched; ++g) {
        if (runnable[static_cast<std::size_t>(g)] != 0)
            continue;
        int gc = g / perCluster;
        IssueCluster &dstCluster =
            *clusters_[static_cast<std::size_t>(gc)];
        // Donor: the most loaded scheduler with at least two runnable.
        int donor = -1;
        for (int d = 0; d < nsched; ++d)
            if (runnable[static_cast<std::size_t>(d)] >= 2
                && (donor < 0
                    || runnable[static_cast<std::size_t>(d)]
                           > runnable[static_cast<std::size_t>(donor)]))
                donor = d;
        if (donor < 0)
            break;
        int dc = donor / perCluster;
        IssueCluster &srcCluster =
            *clusters_[static_cast<std::size_t>(dc)];
        WarpSlot victim = kNoWarp;
        for (WarpSlot slot : srcCluster.warpsOf(donor % perCluster)) {
            const WarpContext &w = warps_[static_cast<std::size_t>(slot)];
            if (w.schedulable() && !w.sbBlocked)
                victim = slot;   // youngest runnable
        }
        if (victim == kNoWarp)
            continue;
        WarpContext &w = warps_[static_cast<std::size_t>(victim)];
        if (dc != gc
            && regBytesUsed_[static_cast<std::size_t>(gc)] + w.regBytes
                   > cfg_.regFileBytesPerCluster())
            continue;
        srcCluster.removeWarp(donor % perCluster, victim);
        if (dc != gc) {
            regBytesUsed_[static_cast<std::size_t>(dc)] -= w.regBytes;
            regBytesUsed_[static_cast<std::size_t>(gc)] += w.regBytes;
        }
        w.cluster = gc;
        w.schedInCluster = g % perCluster;
        // The oracle ignores table capacity (entries are bookkeeping);
        // register storage remains a hard constraint above.
        w.ageRank = dstCluster.addWarp(g % perCluster, victim,
                                       /*unchecked=*/true);
        --runnable[static_cast<std::size_t>(donor)];
        ++runnable[static_cast<std::size_t>(g)];
        ++stats_.warpMigrations;
        hadWork_ = true;
    }
}

bool
SmCore::busy() const
{
    return activeBlocks_ > 0 || !events_.empty();
}

Cycle
SmCore::nextWake(Cycle now) const
{
    if (!busy())
        return kNoCycle;
    if (hadWork_)
        return now + 1;
    if (!events_.empty())
        return events_.front().when;
    scsim_panic("SM %d is busy with no runnable work and no events "
                "(simulator deadlock)", smId_);
}

void
SmCore::onIdleSkip()
{
    for (auto &cluster : clusters_)
        cluster->onIdleSkip();
}

bool
SmCore::tryConsumeL1Port()
{
    if (l1PortsLeft_ <= 0)
        return false;
    --l1PortsLeft_;
    return true;
}

Cycle
SmCore::issueMemory(WarpContext &warp, const Instruction &inst, Cycle now)
{
    return mem_.access(smId_, inst.mem, warp.gwid, warp.memIter++, now);
}

void
SmCore::scheduleRegWrite(Cycle when, WarpSlot warp, RegIndex reg)
{
    scsim_assert(when > 0, "writeback scheduled in the past");
    events_.push_back(RegWriteEvent{ when, warp, reg });
    std::push_heap(events_.begin(), events_.end(),
                   std::greater<RegWriteEvent>());
}

void
SmCore::completeRegWrite(WarpSlot warp, RegIndex reg)
{
    WarpContext &w = warps_[static_cast<std::size_t>(warp)];
    w.scoreboard.completeWrite(reg);
    w.sbBlocked = false;
}

void
SmCore::releaseBarrier(BlockState &block)
{
    for (WarpSlot slot : block.slots) {
        WarpContext &warp = warps_[static_cast<std::size_t>(slot)];
        warp.atBarrier = false;
    }
    block.barrierArrived = 0;
    // Released warps in already-cycled clusters are runnable now.
    hadWork_ = true;
}

void
SmCore::warpBarrier(WarpSlot slot)
{
    WarpContext &warp = warps_[static_cast<std::size_t>(slot)];
    BlockState &block = blocks_[static_cast<std::size_t>(warp.blockSeq)];
    warp.atBarrier = true;
    ++block.barrierArrived;
    if (block.barrierArrived == block.warpsTotal - block.warpsExited)
        releaseBarrier(block);
}

void
SmCore::completeBlock(BlockState &block)
{
    std::uint32_t regBytes = block.kernel->regBytesPerWarp();
    for (WarpSlot slot : block.slots) {
        WarpContext &warp = warps_[static_cast<std::size_t>(slot)];
        clusters_[static_cast<std::size_t>(warp.cluster)]
            ->removeWarp(warp.schedInCluster, slot);
        regBytesUsed_[static_cast<std::size_t>(warp.cluster)] -= regBytes;
        warp.reset();
        freeSlots_.push_back(slot);
    }
    smemUsed_ -= block.kernel->smemBytesPerBlock;
    --activeBlocks_;
    ++stats_.blocksCompleted;
    block = BlockState{};
}

void
SmCore::warpExit(WarpSlot slot, Cycle)
{
    WarpContext &warp = warps_[static_cast<std::size_t>(slot)];
    BlockState &block = blocks_[static_cast<std::size_t>(warp.blockSeq)];
    warp.exited = true;
    ++block.warpsExited;
    ++stats_.warpsCompleted;
    // The barrier threshold shrank; a waiting barrier may now release.
    if (block.barrierArrived > 0
        && block.barrierArrived == block.warpsTotal - block.warpsExited)
        releaseBarrier(block);
    if (block.warpsExited == block.warpsTotal)
        completeBlock(block);
}

void
SmCore::noteIssue(int cluster, int schedInCluster)
{
    int global = cluster * cfg_.schedulersPerCluster() + schedInCluster;
    auto &perSm = stats_.issuePerScheduler[static_cast<std::size_t>(smId_)];
    ++perSm[static_cast<std::size_t>(global)];
    ++stats_.instructions;
    stats_.threadInstructions += kWarpSize;
}

void
SmCore::noteRfReads(Cycle now, int grants)
{
    if (rfTrace_)
        stats_.rfReadTrace.add(now, static_cast<double>(grants)
                                        * kWarpSize);
}

int
SmCore::residentWarps() const
{
    int n = 0;
    for (const auto &warp : warps_)
        if (warp.active)
            ++n;
    return n;
}

void
SmCore::reset()
{
    for (auto &warp : warps_)
        warp.reset();
    freeSlots_.clear();
    for (int i = cfg_.maxWarpsPerSm - 1; i >= 0; --i)
        freeSlots_.push_back(i);
    for (auto &block : blocks_)
        block = BlockState{};
    for (auto &cluster : clusters_)
        cluster->reset();
    std::fill(regBytesUsed_.begin(), regBytesUsed_.end(), 0u);
    smemUsed_ = 0;
    activeBlocks_ = 0;
    events_.clear();
    assigner_->reset();
    hadWork_ = false;
}

template <class Ar>
void
SmCore::state(Ar &ar, const Application &app)
{
    // l1PortsLeft_ is reset at the top of every cycle() and rfTrace_
    // is derived from the config; neither is snapshotted.
    for (WarpContext &warp : warps_) {
        ar.i64("warp.slot", warp.slot);
        ar.i64("warp.blockSeq", warp.blockSeq);
        ar.i64("warp.inBlock", warp.warpInBlock);
        ar.u64("warp.gwid", warp.gwid);
        ar.i64("warp.cluster", warp.cluster);
        ar.i64("warp.sched", warp.schedInCluster);
        ar.u64("warp.ageRank", warp.ageRank);
        ar.u64("warp.regBytes", warp.regBytes);
        ar.b("warp.active", warp.active);
        ar.b("warp.exited", warp.exited);
        ar.b("warp.atBarrier", warp.atBarrier);
        ar.u64("warp.pc", warp.pc);
        ar.u64("warp.memIter", warp.memIter);
        ar.u64("warp.lastIssue", warp.lastIssue);
        ar.b("warp.sbBlocked", warp.sbBlocked);
        warp.scoreboard.state(ar);
        if constexpr (Ar::kLoading)
            warp.prog = nullptr;   // re-resolved from the block table
    }
    ar.seq("sm.freeSlots", freeSlots_,
           [&](WarpSlot &slot) { ar.i64("sm.freeSlot", slot); });
    for (BlockState &block : blocks_) {
        ar.b("blk.live", block.live);
        ar.i64("blk.id", block.blockId);
        std::int64_t kernel = Ar::kLoading ? 0 : app.indexOf(block.kernel);
        ar.i64("blk.kernel", kernel);
        ar.i64("blk.warpsTotal", block.warpsTotal);
        ar.i64("blk.warpsExited", block.warpsExited);
        ar.i64("blk.barrier", block.barrierArrived);
        ar.seq("blk.slots", block.slots,
               [&](WarpSlot &slot) { ar.i64("blk.slot", slot); });
        if constexpr (Ar::kLoading) {
            block.kernel = app.kernelAt(kernel);
            if (block.live && !block.kernel)
                scsim_throw(CacheError,
                            "snapshot: live block without a kernel");
        }
    }
    if constexpr (Ar::kLoading) {
        // Re-resolve warp program pointers through their blocks.
        for (const BlockState &block : blocks_) {
            if (!block.live)
                continue;
            for (WarpSlot slot : block.slots) {
                if (slot < 0
                    || slot >= static_cast<WarpSlot>(warps_.size()))
                    scsim_throw(CacheError,
                                "snapshot: warp slot %d out of range",
                                slot);
                WarpContext &warp =
                    warps_[static_cast<std::size_t>(slot)];
                if (warp.warpInBlock < 0
                    || warp.warpInBlock >= block.kernel->warpsPerBlock)
                    scsim_throw(CacheError,
                                "snapshot: warp-in-block %d out of range",
                                warp.warpInBlock);
                warp.prog = &block.kernel->programOf(warp.warpInBlock);
            }
        }
    }
    for (auto &cluster : clusters_)
        cluster->state(ar);
    assigner_->state(ar);
    for (std::uint32_t &used : regBytesUsed_)
        ar.u64("sm.regBytesUsed", used);
    ar.u64("sm.smemUsed", smemUsed_);
    ar.i64("sm.activeBlocks", activeBlocks_);
    // The writeback min-heap is serialized as its backing array, so a
    // restore reproduces the exact pop order of equal-cycle events.
    ar.seq("sm.events", events_, [&](RegWriteEvent &ev) {
        ar.u64("ev.when", ev.when);
        ar.i64("ev.warp", ev.warp);
        ar.i64("ev.reg", ev.reg);
    });
    ar.b("sm.hadWork", hadWork_);
}

template void SmCore::state(StateWriter &, const Application &);
template void SmCore::state(StateReader &, const Application &);

} // namespace scsim
