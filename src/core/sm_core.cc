#include "core/sm_core.hh"

#include <algorithm>
#include <bitset>

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
        cluster.wake();
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
    // Usually the granting cluster itself, but a warp the migration
    // oracle moved may drain its writes through its old cluster.
    clusters_[static_cast<std::size_t>(w.cluster)]->wake();
}

void
SmCore::releaseBarrier(BlockState &block)
{
    for (WarpSlot slot : block.slots) {
        WarpContext &warp = warps_[static_cast<std::size_t>(slot)];
        warp.atBarrier = false;
        clusters_[static_cast<std::size_t>(warp.cluster)]->wake();
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
    // is derived from the config; neither is snapshotted, and
    // finishRestore() recounts regBytesUsed_, smemUsed_ and
    // activeBlocks_ from the warps and blocks.
    for (WarpContext &warp : warps_) {
        ar.i64("warp.slot", warp.slot);
        ar.index("warp.blockSeq", warp.blockSeq, blocks_.size(), -1);
        ar.i64("warp.inBlock", warp.warpInBlock);
        ar.u64("warp.gwid", warp.gwid);
        ar.index("warp.cluster", warp.cluster, clusters_.size(), -1);
        ar.index("warp.sched", warp.schedInCluster,
                 static_cast<std::size_t>(cfg_.schedulersPerCluster()));
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
           [&](WarpSlot &slot) {
               ar.index("sm.freeSlot", slot, warps_.size());
           });
    for (BlockState &block : blocks_) {
        ar.b("blk.live", block.live);
        ar.i64("blk.id", block.blockId);
        std::int64_t kernel = Ar::kLoading ? 0 : app.indexOf(block.kernel);
        ar.i64("blk.kernel", kernel);
        ar.i64("blk.warpsTotal", block.warpsTotal);
        ar.i64("blk.warpsExited", block.warpsExited);
        ar.i64("blk.barrier", block.barrierArrived);
        ar.seq("blk.slots", block.slots,
               [&](WarpSlot &slot) {
                   ar.index("blk.slot", slot, warps_.size());
               });
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
    // The writeback min-heap is serialized as its backing array, so a
    // restore reproduces the exact pop order of equal-cycle events.
    ar.seq("sm.events", events_, [&](RegWriteEvent &ev) {
        ar.u64("ev.when", ev.when);
        ar.index("ev.warp", ev.warp, warps_.size());
        ar.index("ev.reg", ev.reg, Scoreboard::kMaxRegs);
    });
    ar.b("sm.hadWork", hadWork_);
}

namespace {

[[noreturn]] void
rejectRestore(const char *key, const char *what, long long v)
{
    scsim_throw(CacheError, "snapshot field '%s': %s (%lld)", key, what,
                v);
}

} // namespace

void
SmCore::finishRestore(Cycle now)
{
    // Every slot is held exactly once: by a live block or the free list.
    std::vector<int> held(warps_.size(), 0);
    std::fill(regBytesUsed_.begin(), regBytesUsed_.end(), 0u);
    smemUsed_ = 0;
    activeBlocks_ = 0;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        const BlockState &block = blocks_[b];
        if (!block.live)
            continue;
        const KernelDesc &kernel = *block.kernel;
        if (block.warpsTotal != kernel.warpsPerBlock
            || block.slots.size()
                   != static_cast<std::size_t>(block.warpsTotal))
            rejectRestore("blk.warpsTotal", "block size is not its kernel's",
                          block.warpsTotal);
        int exited = 0, atBarrier = 0;
        for (WarpSlot slot : block.slots) {
            const WarpContext &warp = warps_[static_cast<std::size_t>(slot)];
            if (!warp.active || warp.blockSeq != static_cast<int>(b)
                || held[static_cast<std::size_t>(slot)]++)
                rejectRestore("blk.slot", "slot is not this block's warp",
                              slot);
            if (warp.cluster < 0)
                rejectRestore("warp.cluster", "live warp on no sub-core",
                              slot);
            if (warp.regBytes != kernel.regBytesPerWarp())
                rejectRestore("warp.regBytes", "not the kernel's footprint",
                              warp.regBytes);
            if (warp.pc > warp.prog->length()
                || (!warp.exited && warp.pc == warp.prog->length()))
                rejectRestore("warp.pc", "past the warp's program", warp.pc);
            if (warp.atBarrier && warp.exited)
                rejectRestore("warp.atBarrier", "exited warp at a barrier",
                              slot);
            exited += warp.exited;
            atBarrier += warp.atBarrier;
            regBytesUsed_[static_cast<std::size_t>(warp.cluster)] +=
                warp.regBytes;
        }
        // A block whose warps all exited, or a full barrier, would
        // already have been retired or released.
        if (exited != block.warpsExited || exited >= block.warpsTotal)
            rejectRestore("blk.warpsExited", "exit count is not the warps'",
                          block.warpsExited);
        if (atBarrier != block.barrierArrived
            || (atBarrier > 0 && atBarrier >= block.warpsTotal - exited))
            rejectRestore("blk.barrier", "barrier count is not the warps'",
                          block.barrierArrived);
        smemUsed_ += kernel.smemBytesPerBlock;
        ++activeBlocks_;
    }
    for (WarpSlot slot : freeSlots_)
        if (warps_[static_cast<std::size_t>(slot)].active
            || held[static_cast<std::size_t>(slot)]++)
            rejectRestore("sm.freeSlot", "slot is not free", slot);
    for (std::size_t w = 0; w < warps_.size(); ++w)
        if (held[w] != 1)
            rejectRestore("warp.active", "slot neither free nor a block's",
                          static_cast<long long>(w));

    // Every live warp sits in its own scheduler's table, once.
    std::vector<int> listed(warps_.size(), 0);
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
        const IssueCluster &cluster = *clusters_[c];
        for (int s = 0; s < cluster.numSchedulers(); ++s)
            for (WarpSlot slot : cluster.warpsOf(s)) {
                const WarpContext &warp =
                    warps_[static_cast<std::size_t>(slot)];
                if (!warp.active || warp.cluster != static_cast<int>(c)
                    || warp.schedInCluster != s
                    || listed[static_cast<std::size_t>(slot)]++)
                    rejectRestore("ic.slot", "warp is not this scheduler's",
                                  slot);
            }
    }

    // Register writes in flight — staged in a collector unit, waiting
    // in the writeback heap or queued at a bank — are exactly the
    // registers each warp's scoreboard holds pending, once each.
    std::vector<std::bitset<Scoreboard::kMaxRegs>> inFlight(warps_.size());
    auto inFlightWrite = [&](const char *key, WarpSlot w, RegIndex reg) {
        if (reg == kNoReg)
            return;
        auto &regs = inFlight[static_cast<std::size_t>(w)];
        if (regs.test(static_cast<std::size_t>(reg)))
            rejectRestore(key, "register written twice in flight", reg);
        regs.set(static_cast<std::size_t>(reg));
    };
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
        IssueCluster &cluster = *clusters_[c];
        cluster.checkRestored(now);
        OperandCollector &collector = cluster.collector();
        for (int i = 0; i < collector.size(); ++i) {
            const CollectorUnit &cu = collector.unit(i);
            if (!cu.busy)
                continue;
            const WarpContext &warp =
                warps_[static_cast<std::size_t>(cu.warp)];
            if (!warp.active || warp.cluster != static_cast<int>(c)
                || cu.pc >= warp.pc)
                rejectRestore("cu.pc", "not an instruction its warp issued",
                              cu.pc);
            collector.restage(i, warp.prog->code[cu.pc]);
            inFlightWrite("cu.pc", cu.warp, cu.inst.dst);
        }
        for (int b = 0; b < cluster.arbiter().numBanks(); ++b)
            for (const WriteRequest &req : cluster.arbiter().writeQueue(b))
                inFlightWrite("rf.write.reg", req.warp, req.reg);
    }
    for (const RegWriteEvent &ev : events_) {
        if (ev.when < now)
            rejectRestore("ev.when", "writeback before the snapshot cycle",
                          static_cast<long long>(ev.when));
        inFlightWrite("ev.reg", ev.warp, ev.reg);
    }
    if (!std::is_heap(events_.begin(), events_.end(),
                      std::greater<RegWriteEvent>()))
        rejectRestore("ev.when", "writeback heap out of order",
                      static_cast<long long>(events_.size()));
    for (std::size_t w = 0; w < warps_.size(); ++w) {
        const WarpContext &warp = warps_[w];
        if (warp.active && !listed[w])
            rejectRestore("warp.cluster", "live warp on no scheduler",
                          static_cast<long long>(w));
        if (warp.scoreboard.pendingSet() != inFlight[w]
            || (!warp.active && warp.scoreboard.anyPending()))
            rejectRestore("sb.word", "pending registers are not the writes "
                          "in flight", static_cast<long long>(w));
        if (warp.sbBlocked && !warp.scoreboard.anyPending())
            rejectRestore("warp.sbBlocked", "blocked with nothing pending",
                          static_cast<long long>(w));
    }
}

template void SmCore::state(StateWriter &, const Application &);
template void SmCore::state(StateReader &, const Application &);

} // namespace scsim
