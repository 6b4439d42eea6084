/**
 * @file
 * Per-warp scoreboard tracking in-flight register writes.
 *
 * An instruction may issue only when none of its source or destination
 * registers has a pending write (RAW and WAW protection; warps issue
 * in order so WAR cannot occur).
 */

#ifndef SCSIM_CORE_SCOREBOARD_HH
#define SCSIM_CORE_SCOREBOARD_HH

#include <bitset>

#include "isa/instruction.hh"

namespace scsim {

class Scoreboard
{
  public:
    /** Registers per warp; register operands index [0, kMaxRegs). */
    static constexpr int kMaxRegs = 256;

    /** May @p inst issue without a data hazard? */
    bool ready(const Instruction &inst) const;

    /** Record @p inst 's destination as pending. */
    void markIssue(const Instruction &inst);

    /** A write to @p reg retired (writeback granted). */
    void completeWrite(RegIndex reg);

    bool anyPending() const { return count_ != 0; }
    int pendingCount() const { return count_; }
    bool pending(RegIndex reg) const;
    const std::bitset<kMaxRegs> &pendingSet() const { return pending_; }

    void reset();

    /** Checkpoint schema: the pending mask as four u64 words. */
    template <class Ar> void state(Ar &ar);

  private:
    std::bitset<kMaxRegs> pending_;
    int count_ = 0;
};

} // namespace scsim

#endif // SCSIM_CORE_SCOREBOARD_HH
