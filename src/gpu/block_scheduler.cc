#include "gpu/block_scheduler.hh"

#include "common/logging.hh"
#include "common/state_io.hh"
#include "trace/kernel.hh"

namespace scsim {

void
BlockScheduler::launch(const KernelDesc &kernel)
{
    queues_.push_back(KernelQueue{ &kernel, 0 });
}

bool
BlockScheduler::pending() const
{
    for (const auto &q : queues_)
        if (q.nextBlock < q.kernel->numBlocks)
            return true;
    return false;
}

void
BlockScheduler::dispatch(Cycle now)
{
    if (!pending())
        return;
    std::size_t nSms = sms_.size();
    std::size_t nKernels = queues_.size();
    for (std::size_t i = 0; i < nSms; ++i) {
        SmCore &sm = *sms_[(rrSm_ + i) % nSms];
        // One block per SM per cycle, kernels tried round-robin.
        for (std::size_t k = 0; k < nKernels; ++k) {
            KernelQueue &q = queues_[(rrKernel_ + k) % nKernels];
            if (q.nextBlock >= q.kernel->numBlocks)
                continue;
            if (sm.canAccept(*q.kernel)) {
                sm.acceptBlock(*q.kernel, q.nextBlock++, now);
                rrKernel_ = (rrKernel_ + k + 1) % nKernels;
                break;
            }
        }
    }
    rrSm_ = (rrSm_ + 1) % nSms;
}

bool
BlockScheduler::anyCanAccept() const
{
    for (const auto &q : queues_) {
        if (q.nextBlock >= q.kernel->numBlocks)
            continue;
        for (const auto &sm : sms_)
            if (sm->canAccept(*q.kernel))
                return true;
    }
    return false;
}

void
BlockScheduler::reset()
{
    queues_.clear();
    rrSm_ = 0;
    rrKernel_ = 0;
}

template <class Ar>
void
BlockScheduler::state(Ar &ar, const Application &app)
{
    ar.seq("bs.queues", queues_, [&](KernelQueue &q) {
        std::int64_t kernel = Ar::kLoading ? 0 : app.indexOf(q.kernel);
        ar.i64("bs.kernel", kernel);
        if constexpr (Ar::kLoading) {
            q.kernel = app.kernelAt(kernel);
            if (!q.kernel)
                scsim_throw(CacheError,
                            "snapshot: queued kernel index %lld out of "
                            "range", static_cast<long long>(kernel));
        }
        // numBlocks itself: every block of the kernel launched.
        ar.index("bs.nextBlock", q.nextBlock,
                 static_cast<std::size_t>(q.kernel->numBlocks) + 1);
    });
    ar.u64("bs.rrSm", rrSm_);
    ar.u64("bs.rrKernel", rrKernel_);
}

template void BlockScheduler::state(StateWriter &, const Application &);
template void BlockScheduler::state(StateReader &, const Application &);

} // namespace scsim
