#include "core/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace scsim {

int
rbaScore(const Instruction &inst, WarpSlot slot,
         const int *bankQueueLen, int numBanks)
{
    int score = 0;
    for (RegIndex reg : inst.srcs) {
        if (reg == kNoReg)
            continue;
        int bank = static_cast<int>(
            (static_cast<unsigned>(reg) + 7u
             * static_cast<unsigned>(slot))
            % static_cast<unsigned>(numBanks));
        score += bankQueueLen[bank];
    }
    return std::min(score, 31);   // 5-bit field in the warp PC table
}

WarpSlot
LrrScheduler::pick(const std::vector<WarpSlot> &ready,
                   const PickContext &)
{
    scsim_assert(!ready.empty(), "pick() with no candidates");
    // First candidate strictly after the last issued slot.
    WarpSlot best = ready.front();
    for (WarpSlot s : ready) {
        if (s > lastIssued_) {
            best = s;
            break;
        }
    }
    return best;
}

void
LrrScheduler::notifyIssued(WarpSlot slot, Cycle)
{
    lastIssued_ = slot;
}

template <class Ar>
void
LrrScheduler::state(Ar &ar)
{
    ar.i64("lrr.lastIssued", lastIssued_);
}

template void LrrScheduler::state(StateWriter &);
template void LrrScheduler::state(StateReader &);

WarpSlot
GtoScheduler::pick(const std::vector<WarpSlot> &ready,
                   const PickContext &ctx)
{
    scsim_assert(!ready.empty(), "pick() with no candidates");
    if (greedyWarp_ != kNoWarp) {
        for (WarpSlot s : ready)
            if (s == greedyWarp_)
                return s;
    }
    // Oldest ready warp: smallest age rank within this scheduler.
    WarpSlot best = ready.front();
    std::uint32_t bestAge = ctx.warps[best].ageRank;
    for (WarpSlot s : ready) {
        std::uint32_t age = ctx.warps[s].ageRank;
        if (age < bestAge) {
            best = s;
            bestAge = age;
        }
    }
    return best;
}

void
GtoScheduler::notifyIssued(WarpSlot slot, Cycle)
{
    greedyWarp_ = slot;
}

template <class Ar>
void
GtoScheduler::state(Ar &ar)
{
    ar.i64("gto.greedyWarp", greedyWarp_);
}

template void GtoScheduler::state(StateWriter &);
template void GtoScheduler::state(StateReader &);

WarpSlot
RbaScheduler::pick(const std::vector<WarpSlot> &ready,
                   const PickContext &ctx)
{
    scsim_assert(!ready.empty(), "pick() with no candidates");
    scsim_assert(ctx.bankQueueLen != nullptr,
                 "RBA needs bank queue lengths");
    // Hierarchical comparator over {score, ~age}: minimum score wins,
    // oldest (smallest ageRank) on ties.
    WarpSlot best = kNoWarp;
    long bestKey = 0;
    for (WarpSlot s : ready) {
        const WarpContext &w = ctx.warps[s];
        int score = rbaScore(w.nextInst(), s, ctx.bankQueueLen,
                             ctx.numBanks);
        long key = (static_cast<long>(score) << 32)
            | static_cast<long>(w.ageRank);
        if (best == kNoWarp || key < bestKey) {
            best = s;
            bestKey = key;
        }
    }
    return best;
}

sim::Registry<sim::SchedulerFactory> &
sim::schedulerRegistry()
{
    // Seeded on first use with the built-in policies — the registration
    // lines below *are* the catalogue (there is no enum switch left).
    static Registry<SchedulerFactory> reg = [] {
        Registry<SchedulerFactory> r("scheduler");
        r.add("LRR", "loose round robin",
              [](const GpuConfig &) {
                  return std::make_unique<LrrScheduler>();
              });
        r.add("GTO", "greedy-then-oldest (paper baseline)",
              [](const GpuConfig &) {
                  return std::make_unique<GtoScheduler>();
              });
        r.add("RBA", "register-bank-aware: min bank score, oldest ties",
              [](const GpuConfig &) {
                  return std::make_unique<RbaScheduler>();
              });
        return r;
    }();
    return reg;
}

std::unique_ptr<WarpScheduler>
makeScheduler(const GpuConfig &cfg)
{
    return sim::schedulerRegistry().lookup(toString(cfg.scheduler))(cfg);
}

std::unique_ptr<WarpScheduler>
makeScheduler(SchedulerPolicy policy)
{
    GpuConfig cfg;
    cfg.scheduler = policy;
    return makeScheduler(cfg);
}

} // namespace scsim
