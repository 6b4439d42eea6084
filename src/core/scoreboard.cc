#include "core/scoreboard.hh"

#include "common/logging.hh"
#include "common/state_io.hh"

namespace scsim {

bool
Scoreboard::ready(const Instruction &inst) const
{
    if (count_ == 0)
        return true;
    if (inst.dst != kNoReg && pending_[static_cast<std::size_t>(inst.dst)])
        return false;
    for (RegIndex r : inst.srcs)
        if (r != kNoReg && pending_[static_cast<std::size_t>(r)])
            return false;
    return true;
}

void
Scoreboard::markIssue(const Instruction &inst)
{
    if (inst.dst == kNoReg)
        return;
    auto idx = static_cast<std::size_t>(inst.dst);
    scsim_assert(!pending_[idx], "WAW hazard slipped past ready()");
    pending_.set(idx);
    ++count_;
}

void
Scoreboard::completeWrite(RegIndex reg)
{
    scsim_assert(reg != kNoReg, "completing write to no register");
    auto idx = static_cast<std::size_t>(reg);
    scsim_assert(pending_[idx], "completing a write that never issued");
    pending_.reset(idx);
    --count_;
}

bool
Scoreboard::pending(RegIndex reg) const
{
    return reg != kNoReg && pending_[static_cast<std::size_t>(reg)];
}

void
Scoreboard::reset()
{
    pending_.reset();
    count_ = 0;
}

template <class Ar>
void
Scoreboard::state(Ar &ar)
{
    for (int word = 0; word < kMaxRegs / 64; ++word) {
        std::uint64_t bits = 0;
        for (int b = 0; b < 64; ++b)
            if (pending_[static_cast<std::size_t>(word * 64 + b)])
                bits |= std::uint64_t(1) << b;
        ar.u64("sb.word", bits);
        if constexpr (Ar::kLoading)
            for (int b = 0; b < 64; ++b)
                pending_[static_cast<std::size_t>(word * 64 + b)] =
                    (bits >> b) & 1;
    }
    if constexpr (Ar::kLoading)
        count_ = static_cast<int>(pending_.count());
}

template void Scoreboard::state(StateWriter &);
template void Scoreboard::state(StateReader &);

} // namespace scsim
