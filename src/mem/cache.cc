#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace scsim {

Cache::Cache(std::uint64_t bytes, int lineBytes, int ways)
{
    scsim_assert(lineBytes > 0 && std::has_single_bit(
                     static_cast<unsigned>(lineBytes)),
                 "line size must be a power of two");
    lineShift_ = std::countr_zero(static_cast<unsigned>(lineBytes));
    std::uint64_t numLines = bytes / static_cast<std::uint64_t>(lineBytes);
    scsim_assert(numLines > 0, "cache smaller than one line");
    numWays_ = static_cast<int>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(ways),
                                numLines));
    numSets_ = static_cast<int>(
        numLines / static_cast<std::uint64_t>(numWays_));
    if (numSets_ == 0)
        numSets_ = 1;
    lines_.resize(static_cast<std::size_t>(numSets_)
                  * static_cast<std::size_t>(numWays_));
}

bool
Cache::access(Addr addr)
{
    ++accesses_;
    ++tick_;
    Addr lineAddr = addr >> lineShift_;
    std::size_t set = static_cast<std::size_t>(
        lineAddr % static_cast<Addr>(numSets_));
    Line *base = &lines_[set * static_cast<std::size_t>(numWays_)];

    Line *victim = base;
    for (int w = 0; w < numWays_; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == lineAddr) {
            line.lastUse = tick_;
            return true;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }
    ++misses_;
    victim->valid = true;
    victim->tag = lineAddr;
    victim->lastUse = tick_;
    return false;
}

bool
Cache::contains(Addr addr) const
{
    Addr lineAddr = addr >> lineShift_;
    std::size_t set = static_cast<std::size_t>(
        lineAddr % static_cast<Addr>(numSets_));
    const Line *base = &lines_[set * static_cast<std::size_t>(numWays_)];
    for (int w = 0; w < numWays_; ++w)
        if (base[w].valid && base[w].tag == lineAddr)
            return true;
    return false;
}

void
Cache::reset()
{
    for (auto &line : lines_)
        line = Line{};
    tick_ = accesses_ = misses_ = 0;
}

template <class Ar>
void
Cache::state(Ar &ar)
{
    ar.u64("cache.tick", tick_);
    ar.u64("cache.accesses", accesses_);
    ar.u64("cache.misses", misses_);
    // Lines are never invalidated once filled, so only the valid ones
    // are stored, each as the gap from the previous stored index.
    std::vector<std::size_t> filled;   // writer: the valid indices
    if constexpr (Ar::kLoading) {
        std::fill(lines_.begin(), lines_.end(), Line{});
    } else {
        for (std::size_t i = 0; i < lines_.size(); ++i)
            if (lines_[i].valid)
                filled.push_back(i);
    }
    std::uint64_t valid = filled.size();
    ar.u64("cache.valid", valid);
    std::size_t next = 0;   // first index the next gap counts from
    for (std::uint64_t i = 0; i < valid; ++i) {
        std::size_t gap = Ar::kLoading ? 0 : filled[i] - next;
        ar.index("line.gap", gap, lines_.size() - next);
        Line &line = lines_[next + gap];
        next += gap + 1;
        ar.u64("line.tag", line.tag);
        ar.u64("line.lastUse", line.lastUse);
        if constexpr (Ar::kLoading)
            line.valid = true;
    }
}

template void Cache::state(StateWriter &);
template void Cache::state(StateReader &);

} // namespace scsim
