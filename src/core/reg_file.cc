#include "core/reg_file.hh"

#include "common/logging.hh"
#include "common/state_io.hh"
#include "core/scoreboard.hh"

namespace scsim {

RegFileArbiter::RegFileArbiter(int numBanks)
    : numBanks_(numBanks),
      readQ_(static_cast<std::size_t>(numBanks)),
      writeQ_(static_cast<std::size_t>(numBanks))
{
    scsim_assert(numBanks > 0, "register file needs at least one bank");
}

void
RegFileArbiter::pushRead(int bank, ReadRequest req)
{
    readQ_[static_cast<std::size_t>(bank)].push_back(req);
    ++pendingOps_;
}

void
RegFileArbiter::pushWrite(int bank, WriteRequest req)
{
    writeQ_[static_cast<std::size_t>(bank)].push_back(req);
    ++pendingOps_;
}

void
RegFileArbiter::arbitrate(ArbGrants &out)
{
    for (int b = 0; b < numBanks_; ++b) {
        auto &wq = writeQ_[static_cast<std::size_t>(b)];
        auto &rq = readQ_[static_cast<std::size_t>(b)];
        // Each bank sustains one read and one write per cycle
        // (separate result-bus write port, as in the V100 model).
        if (!wq.empty()) {
            out.writes.push_back(wq.front());
            wq.pop_front();
            --pendingOps_;
        }
        if (!rq.empty()) {
            out.reads.push_back(rq.front());
            rq.pop_front();
            --pendingOps_;
        }
        // A reader still waiting after this bank's single read grant
        // is a bank-conflict cycle (throughput lost to banking).
        if (!rq.empty())
            ++out.conflictCycles;
    }
}

void
RegFileArbiter::reset()
{
    for (auto &q : readQ_)
        q.clear();
    for (auto &q : writeQ_)
        q.clear();
    pendingOps_ = 0;
}

template <class Ar>
void
RegFileArbiter::state(Ar &ar, std::size_t numCus, std::size_t numWarps)
{
    for (auto &q : readQ_)
        ar.seq("rf.readq", q, [&](ReadRequest &req) {
            ar.index("rf.read.cu", req.cu, numCus);
            ar.u64("rf.read.mask", req.operandMask);
        });
    for (auto &q : writeQ_)
        ar.seq("rf.writeq", q, [&](WriteRequest &req) {
            ar.index("rf.write.warp", req.warp, numWarps);
            ar.index("rf.write.reg", req.reg, Scoreboard::kMaxRegs);
        });
    if constexpr (Ar::kLoading) {
        pendingOps_ = 0;
        for (std::size_t b = 0; b < readQ_.size(); ++b)
            pendingOps_ += readQ_[b].size() + writeQ_[b].size();
    }
}

template void RegFileArbiter::state(StateWriter &, std::size_t,
                                    std::size_t);
template void RegFileArbiter::state(StateReader &, std::size_t,
                                    std::size_t);

} // namespace scsim
