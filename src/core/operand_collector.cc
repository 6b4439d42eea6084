#include "core/operand_collector.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace scsim {

OperandCollector::OperandCollector(int numCus)
    : cus_(static_cast<std::size_t>(numCus)), freeCount_(numCus)
{
    scsim_assert(numCus > 0, "need at least one collector unit");
}

int
OperandCollector::allocate(WarpSlot warp, const Instruction &inst,
                           std::uint32_t pc, RegFileArbiter &arbiter,
                           Cycle now)
{
    if (freeCount_ == 0)
        return -1;
    int idx = -1;
    for (std::size_t i = 0; i < cus_.size(); ++i) {
        if (!cus_[i].busy) {
            idx = static_cast<int>(i);
            break;
        }
    }
    scsim_assert(idx >= 0, "freeCount_ out of sync with CU array");

    CollectorUnit &cu = cus_[static_cast<std::size_t>(idx)];
    cu.busy = true;
    cu.warp = warp;
    cu.inst = inst;
    cu.pc = pc;
    cu.pendingOperands = 0;
    cu.allocCycle = now;
    --freeCount_;

    // One read per distinct register; duplicates share the grant.
    for (int s = 0; s < 3; ++s) {
        RegIndex reg = inst.srcs[static_cast<std::size_t>(s)];
        if (reg == kNoReg)
            continue;
        bool dup = false;
        std::uint32_t mask = 1u << s;
        for (int p = 0; p < s; ++p) {
            if (inst.srcs[static_cast<std::size_t>(p)] == reg) {
                dup = true;
                break;
            }
        }
        if (dup)
            continue;
        // Extend the mask over any later duplicates of this register.
        for (int p = s + 1; p < 3; ++p)
            if (inst.srcs[static_cast<std::size_t>(p)] == reg)
                mask |= 1u << p;
        cu.pendingOperands |= mask;
        arbiter.pushRead(arbiter.bankOf(reg, warp),
                         ReadRequest{ idx, mask });
    }
    return idx;
}

void
OperandCollector::operandArrived(int cu, std::uint32_t operandMask)
{
    CollectorUnit &unit = cus_[static_cast<std::size_t>(cu)];
    scsim_assert(unit.busy, "operand arrived at a free CU");
    scsim_assert((unit.pendingOperands & operandMask) == operandMask,
                 "operand arrived twice");
    unit.pendingOperands &= ~operandMask;
}

void
OperandCollector::release(int cu)
{
    CollectorUnit &unit = cus_[static_cast<std::size_t>(cu)];
    scsim_assert(unit.busy, "releasing a free CU");
    scsim_assert(unit.pendingOperands == 0,
                 "releasing a CU with pending operands");
    unit.busy = false;
    unit.warp = kNoWarp;
    ++freeCount_;
}

bool
OperandCollector::banksIdle(WarpSlot warp, const Instruction &inst,
                            const RegFileArbiter &arbiter) const
{
    for (RegIndex reg : inst.srcs) {
        if (reg == kNoReg)
            continue;
        if (!arbiter.readIdle(arbiter.bankOf(reg, warp)))
            return false;
    }
    return true;
}

void
OperandCollector::reset()
{
    for (auto &cu : cus_)
        cu = CollectorUnit{};
    freeCount_ = static_cast<int>(cus_.size());
}

template <class Ar>
void
OperandCollector::state(Ar &ar, std::size_t numWarps)
{
    for (CollectorUnit &cu : cus_) {
        ar.b("cu.busy", cu.busy);
        if (cu.busy)
            ar.index("cu.warp", cu.warp, numWarps);
        else   // a free CU holds no warp
            ar.index("cu.warp", cu.warp, 0, kNoWarp);
        ar.u64("cu.pc", cu.pc);
        ar.u64("cu.pending", cu.pendingOperands);
        ar.u64("cu.alloc", cu.allocCycle);
    }
    if constexpr (Ar::kLoading)
        freeCount_ = static_cast<int>(
            std::count_if(cus_.begin(), cus_.end(),
                          [](const CollectorUnit &cu) { return !cu.busy; }));
}

template void OperandCollector::state(StateWriter &, std::size_t);
template void OperandCollector::state(StateReader &, std::size_t);

} // namespace scsim
