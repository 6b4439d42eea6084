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
                           RegFileArbiter &arbiter, Cycle now)
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

namespace {

/** Every field of the instruction staged in a collector unit. */
template <class Ar>
void
instructionState(Ar &ar, Instruction &inst)
{
    ar.u64("inst.op", inst.op);
    if constexpr (Ar::kLoading)
        if (inst.op >= Opcode::NumOpcodes)
            scsim_throw(CacheError, "snapshot: bad opcode %u",
                        static_cast<unsigned>(inst.op));
    ar.i64("inst.dst", inst.dst);
    for (RegIndex &reg : inst.srcs)
        ar.i64("inst.src", reg);
    ar.u64("inst.mem.space", inst.mem.space);
    if constexpr (Ar::kLoading)
        if (inst.mem.space > MemSpace::Shared)
            scsim_throw(CacheError, "snapshot: bad memory space %u",
                        static_cast<unsigned>(inst.mem.space));
    ar.u64("inst.mem.region", inst.mem.region);
    ar.u64("inst.mem.sectors", inst.mem.sectors);
    ar.u64("inst.mem.stride", inst.mem.strideBytes);
    ar.u64("inst.mem.step", inst.mem.stepBytes);
    ar.u64("inst.mem.footprint", inst.mem.footprintBytes);
    ar.b("inst.mem.random", inst.mem.randomAccess);
}

} // namespace

template <class Ar>
void
OperandCollector::state(Ar &ar)
{
    for (CollectorUnit &cu : cus_) {
        ar.b("cu.busy", cu.busy);
        ar.i64("cu.warp", cu.warp);
        ar.u64("cu.pending", cu.pendingOperands);
        ar.u64("cu.alloc", cu.allocCycle);
        instructionState(ar, cu.inst);
    }
    if constexpr (Ar::kLoading)
        freeCount_ = static_cast<int>(
            std::count_if(cus_.begin(), cus_.end(),
                          [](const CollectorUnit &cu) { return !cu.busy; }));
}

template void OperandCollector::state(StateWriter &);
template void OperandCollector::state(StateReader &);

} // namespace scsim
