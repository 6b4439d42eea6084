/**
 * @file
 * Issue cluster: the unit of SM partitioning.
 *
 * A cluster owns warp schedulers, a banked register file with its
 * arbiter, an operand collector, and execution pipes.  A partitioned
 * Volta SM instantiates four clusters of {1 scheduler, 2 banks, 2
 * CUs}; the hypothetical fully-connected SM instantiates one cluster
 * holding all four schedulers and the pooled banks/CUs/pipes.
 *
 * Per-cycle sequence (driven by SmCore): dispatch ready collector
 * units to pipes -> issue from each scheduler (after recording the
 * bank-queue lengths for the RBA staleness model) -> arbitrate
 * register banks.
 *
 * A cluster whose cycle did nothing sleeps: until SmCore wakes it, a
 * cycle only adds the stall counters and the empty queue snapshot that
 * the full sequence would have produced, so sleeping is invisible in
 * the stats and in the snapshot bytes.
 */

#ifndef SCSIM_CORE_ISSUE_CLUSTER_HH
#define SCSIM_CORE_ISSUE_CLUSTER_HH

#include <memory>
#include <vector>

#include "config/gpu_config.hh"
#include "core/exec_unit.hh"
#include "core/operand_collector.hh"
#include "core/reg_file.hh"
#include "core/scheduler.hh"

namespace scsim {

class SmCore;
struct SimStats;

class IssueCluster
{
  public:
    IssueCluster(const GpuConfig &cfg, int clusterId);

    int id() const { return id_; }
    int numSchedulers() const { return static_cast<int>(scheds_.size()); }

    RegFileArbiter &arbiter() { return arbiter_; }
    const RegFileArbiter &arbiter() const { return arbiter_; }
    OperandCollector &collector() { return collector_; }
    const OperandCollector &collector() const { return collector_; }

    /** Warps currently bound to scheduler @p sched of this cluster. */
    const std::vector<WarpSlot> &
    warpsOf(int sched) const
    {
        return schedWarps_[static_cast<std::size_t>(sched)];
    }

    int warpCount(int sched) const;
    int totalWarpCount() const;

    /** Bind a warp to a scheduler table; returns its age rank.
     *  @p unchecked bypasses the table-capacity assert (used only by
     *  the ideal-migration oracle, which treats scheduler entries as
     *  free bookkeeping). */
    std::uint32_t addWarp(int sched, WarpSlot slot,
                          bool unchecked = false);

    /** Unbind (block completed). */
    void removeWarp(int sched, WarpSlot slot);

    /**
     * Advance one cycle.  @p sm provides warp state and callbacks.
     * @return true when the cluster did or could still do work this
     * cycle (issued, has queued bank requests, or holds busy CUs) —
     * used by the idle-skip logic.  A false return puts the cluster
     * to sleep until wake().
     */
    bool cycle(Cycle now, SmCore &sm);

    /**
     * End a sleep.  SmCore calls it on every event that can give an
     * idle cluster work: a write queued at its banks, a scoreboard
     * write retired for one of its warps, or a barrier release;
     * binding, unbinding, reset and snapshot load wake it too.
     */
    void wake() { asleep_ = false; }

    /** Idle cycles were skipped; queue history collapses to empty. */
    void onIdleSkip();

    void reset();

    /** Checkpoint schema: tables, arbiter/collector/pipes, queue ring. */
    template <class Ar> void state(Ar &ar);

    /**
     * After a load (see SmCore::finishRestore): every read queued for
     * a collector unit is one of its awaited operands and together
     * they are all of them, and no pipe is busy past @p now plus its
     * initiation interval.
     */
    void checkRestored(Cycle now) const;

  private:
    void dispatch(Cycle now, SmCore &sm);
    void applyGrants(Cycle now, SmCore &sm);
    int issue(Cycle now, SmCore &sm);   //!< returns instructions issued

    /**
     * Ready-to-issue test for one warp's next instruction, with the
     * collector-free test hoisted out: within one candidate scan no CU
     * is allocated, so callers evaluate collector_.hasFree() once
     * instead of per warp.
     */
    bool candidateReadyWith(const WarpContext &warp, bool cuFree) const;

    /** Queue lengths as seen by the scheduler (staleness applied). */
    const int *staleQueueView() const;

    void issueTo(Cycle now, SmCore &sm, int sched, WarpSlot slot);

    /** Record what each idle cycle adds to the stall counters. */
    void fallAsleep(const SmCore &sm);

    /** One idle cycle's accounting, in O(1) per cluster. */
    void sleepTick(SimStats &stats);

    const GpuConfig &cfg_;
    int id_;
    RegFileArbiter arbiter_;
    OperandCollector collector_;
    PipeSet pipes_;
    std::vector<std::unique_ptr<WarpScheduler>> scheds_;
    std::vector<std::vector<WarpSlot>> schedWarps_;
    std::vector<std::uint32_t> ageCounter_;

    /**
     * Ring of bank-queue-length snapshots, newest row at head_.  Flat
     * row-major storage (ringDepth_ rows of numBanks_ ints) so the
     * per-cycle snapshot write and the stale view read touch one
     * contiguous allocation instead of chasing per-row vectors.
     */
    std::vector<int> qlenRing_;
    std::size_t ringDepth_ = 1;
    std::size_t numBanks_ = 0;
    std::size_t head_ = 0;

    /**
     * Derived state, not snapshotted: set when a cycle does nothing,
     * cleared by wake().  While asleep, every warp in the tables is
     * blocked on its scoreboard or unschedulable and no CU or bank
     * request is in flight, so only a wake event can change that.
     */
    bool asleep_ = false;
    /** Schedulers whose idle cycle counts as a scoreboard stall (some
     *  warp in the table is sbBlocked) or as a no-warp stall. */
    std::uint64_t sleepStallScoreboard_ = 0;
    std::uint64_t sleepStallNoWarp_ = 0;

    ArbGrants grants_;
    std::vector<WarpSlot> candidates_;   //!< scratch, reused per cycle
};

} // namespace scsim

#endif // SCSIM_CORE_ISSUE_CLUSTER_HH
