#include "stats/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace scsim {

void
Distribution::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void
Distribution::merge(const Distribution &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    double delta = other.mean_ - mean_;
    std::uint64_t n = count_ + other.count_;
    double na = static_cast<double>(count_);
    double nb = static_cast<double>(other.count_);
    m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
    mean_ = (na * mean_ + nb * other.mean_) / static_cast<double>(n);
    count_ = n;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
Distribution::reset()
{
    *this = Distribution();
}

double
Distribution::mean() const
{
    return count_ ? mean_ : 0.0;
}

double
Distribution::variance() const
{
    return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double
Distribution::stddev() const
{
    return std::sqrt(variance());
}

double
Distribution::cov() const
{
    double mu = mean();
    return mu != 0.0 ? stddev() / mu : 0.0;
}

void
TimeSeries::rollTo(Cycle now)
{
    while (now >= curWindowStart_ + window_) {
        samples_.push_back(curSum_ / static_cast<double>(window_));
        curSum_ = 0.0;
        curWindowStart_ += window_;
    }
}

void
TimeSeries::add(Cycle now, double amount)
{
    rollTo(now);
    curSum_ += amount;
}

void
TimeSeries::finalize(Cycle now)
{
    rollTo(now);
    Cycle tail = now - curWindowStart_;
    if (tail > 0) {
        samples_.push_back(curSum_ / static_cast<double>(tail));
        curSum_ = 0.0;
        curWindowStart_ = now;
    }
}

void
TimeSeries::merge(const TimeSeries &other)
{
    if (other.samples_.empty())
        return;
    if (samples_.empty())
        window_ = other.window_;   // adopt the recording window
    scsim_assert(window_ == other.window_,
                 "cannot merge TimeSeries with windows %llu and %llu",
                 static_cast<unsigned long long>(window_),
                 static_cast<unsigned long long>(other.window_));
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    curWindowStart_ = window_ * samples_.size();
}

void
TimeSeries::restoreSamples(std::vector<double> samples)
{
    samples_ = std::move(samples);
    curSum_ = 0.0;
    curWindowStart_ = window_ * samples_.size();
}

template <class Ar>
void
TimeSeries::state(Ar &ar)
{
    ar.u64("run.traceStart", curWindowStart_);
    ar.f64("run.traceSum", curSum_);
}

template void TimeSeries::state(StateWriter &);
template void TimeSeries::state(StateReader &);

double
TimeSeries::average() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : samples_)
        s += x;
    return s / static_cast<double>(samples_.size());
}

double
mean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
geomean(std::span<const double> xs)
{
    if (xs.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : xs) {
        scsim_assert(x > 0.0, "geomean requires positive values");
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(xs.size()));
}

double
coefficientOfVariation(std::span<const double> xs)
{
    Distribution d;
    for (double x : xs)
        d.add(x);
    return d.cov();
}

double
SimStats::ipc() const
{
    return cycles ? static_cast<double>(instructions)
                        / static_cast<double>(cycles)
                  : 0.0;
}

void
SimStats::merge(const SimStats &other)
{
    cycles += other.cycles;
    instructions += other.instructions;
    threadInstructions += other.threadInstructions;

    if (issuePerScheduler.size() < other.issuePerScheduler.size())
        issuePerScheduler.resize(other.issuePerScheduler.size());
    for (std::size_t sm = 0; sm < other.issuePerScheduler.size(); ++sm) {
        const auto &theirs = other.issuePerScheduler[sm];
        auto &ours = issuePerScheduler[sm];
        if (ours.size() < theirs.size())
            ours.resize(theirs.size(), 0);
        for (std::size_t s = 0; s < theirs.size(); ++s)
            ours[s] += theirs[s];
    }

    schedCycles += other.schedCycles;
    issueSlotsUsed += other.issueSlotsUsed;
    stallNoWarp += other.stallNoWarp;
    stallScoreboard += other.stallScoreboard;
    stallNoCu += other.stallNoCu;
    cuTurnaroundSum += other.cuTurnaroundSum;
    cuDispatches += other.cuDispatches;

    rfReads += other.rfReads;
    rfWrites += other.rfWrites;
    rfBankConflictCycles += other.rfBankConflictCycles;
    collectorFullStalls += other.collectorFullStalls;
    execStructuralStalls += other.execStructuralStalls;

    l1Accesses += other.l1Accesses;
    l1Misses += other.l1Misses;
    l2Accesses += other.l2Accesses;
    l2Misses += other.l2Misses;

    blocksCompleted += other.blocksCompleted;
    warpsCompleted += other.warpsCompleted;
    assignSpills += other.assignSpills;

    rfReadTrace.merge(other.rfReadTrace);

    kernelSpans.insert(kernelSpans.end(), other.kernelSpans.begin(),
                       other.kernelSpans.end());

    warpMigrations += other.warpMigrations;
}

double
SimStats::issueCov() const
{
    Distribution perSm;
    for (const auto &sched : issuePerScheduler) {
        std::vector<double> xs(sched.begin(), sched.end());
        double total = 0.0;
        for (double x : xs)
            total += x;
        if (total > 0.0)
            perSm.add(coefficientOfVariation(xs));
    }
    return perSm.mean();
}

} // namespace scsim
