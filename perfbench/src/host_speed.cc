/**
 * @file
 * The host-speed reference: a fixed kernel that uses no SubCoreSim
 * code, timed on the calling thread or sampled by a HostProbe while a
 * round runs.
 */

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "bench.hh"

namespace perfbench {

namespace {

/** Keeps the reference kernel's result observable to the optimizer. */
std::atomic<std::uint32_t> g_referenceSink{ 0 };

/**
 * The reference kernel.  Its 1 MiB table stays in the L2 cache and
 * within the TLB's reach, so a slice's time does not depend on where a
 * process's pages land (a 4 MiB table varied 3% from process to
 * process).
 */
class ReferenceKernel
{
  public:
    ReferenceKernel() : buf_(1u << 18)
    {
        for (std::size_t i = 0; i < buf_.size(); ++i)
            buf_[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }

    ~ReferenceKernel() { g_referenceSink += x_ + buf_[x_ & mask()]; }

    /** Milliseconds of one slice of dependent xorshift steps, each
     *  with two dependent loads and a store in the table.  An untimed
     *  quarter slice first brings the table back into the cache, after
     *  whatever ran on the core before. */
    double slice()
    {
        steps(1 << 18);
        auto t0 = Clock::now();
        steps(1 << 20);
        return msSince(t0);
    }

  private:
    void steps(int n)
    {
        for (int i = 0; i < n; ++i) {
            x_ ^= x_ << 13;
            x_ ^= x_ >> 17;
            x_ ^= x_ << 5;
            std::uint32_t &slot = buf_[(x_ ^ buf_[x_ & mask()]) & mask()];
            slot += x_;
        }
    }

    std::size_t mask() const { return buf_.size() - 1; }

    std::vector<std::uint32_t> buf_;
    std::uint32_t x_ = 1;
};

/** Pause after each probe slice, as a multiple of the slice's time:
 *  the probe keeps a fifth of one core busy. */
constexpr double kProbePause = 4.0;

} // namespace

double
referenceSliceMs()
{
    ReferenceKernel kernel;
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i)
        ms.push_back(kernel.slice());
    return median(ms);
}

struct HostProbe::State
{
    std::mutex mu;
    std::condition_variable cv;
    bool stopping = false;
    std::vector<double> sliceMs;
    std::thread thread;
};

HostProbe::HostProbe() : state_(std::make_unique<State>())
{
    State &st = *state_;
    st.thread = std::thread([&st] {
        ReferenceKernel kernel;
        std::unique_lock lock(st.mu);
        while (!st.stopping) {
            lock.unlock();
            double ms = kernel.slice();
            lock.lock();
            if (st.stopping)
                break;
            st.sliceMs.push_back(ms);
            st.cv.wait_for(lock,
                           std::chrono::duration<double, std::milli>(
                               kProbePause * ms),
                           [&st] { return st.stopping; });
        }
    });
}

HostProbe::~HostProbe()
{
    stop();
}

double
HostProbe::stop()
{
    State &st = *state_;
    {
        std::lock_guard lock(st.mu);
        st.stopping = true;
    }
    st.cv.notify_all();
    if (st.thread.joinable())
        st.thread.join();
    return st.sliceMs.empty() ? 1.0 : median(st.sliceMs) / kReferenceSliceMs;
}

} // namespace perfbench
