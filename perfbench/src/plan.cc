/**
 * @file
 * Workload plans: which SimJobs each workload runs, derived from the
 * seed alone.  The seed picks every job's synthesis salt and the job
 * order; the set of (app, design) points of each workload is fixed so
 * that runs at different seeds do the same amount of work.
 */

#include <algorithm>
#include <set>
#include <stdexcept>

#include "bench.hh"
#include "runner/design.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

using scsim::AppSpec;
using scsim::GpuConfig;
using scsim::runner::Design;

// sim-mix: the apps run one at a time on the default 8-SM Volta config.
// Three kinds, so a hot-loop gain shows which property it needs:
// issue-dense RF-bound (FMA micro, pb-sgemm, pb-mriq), issue-starved
// (over half the scheduler-cycles find no warp: tpcC-q6, tpcU-q21,
// tpcU-q8) and memory-bound (L1 accesses per instruction above 1:
// pb-histo, rod-btree).
// The salt moves a job's simulated cycles by up to a fifth, so each
// (app, design) point runs with kSimMixSalts salts: the job-latency
// percentiles then rest on 48 jobs, not on which side of the median
// two jobs' salts put them.  Scale 0.1 keeps a round under five
// seconds, so a run holds several rounds for a steady median, while
// set-up and synthesis stay under 1% of each job.
constexpr double kSimMixScale = 0.1;
constexpr int kSimMixSalts = 3;
const char *const kSimMixApps[] = { "fma-micro", "pb-sgemm", "pb-mriq",
                                    "tpcC-q6",   "tpcU-q21", "tpcU-q8",
                                    "pb-histo",  "rod-btree" };

// sweep-ckpt: tpch-c at scale 0.25 x {Baseline, RBA} on 8 SMs, the
// case where snapshot serialization dominates.  Four queries of similar
// length make eight jobs, enough that one job's salt barely moves the
// round, and few enough that a run holds several rounds.
constexpr double kSweepScale = 0.25;
const char *const kSweepApps[] = { "tpcC-q3", "tpcC-q6", "tpcC-q9",
                                   "tpcC-q12" };

// farm-overlap: short jobs from every suite on 2 SMs, so spawn, wire,
// journal and socket costs are a large share of each job.
constexpr double kFarmScale = 0.05;
constexpr int kFarmSms = 2;
constexpr std::size_t kFarmApps = 36;
constexpr int kFarmClients = 2;
constexpr int kFarmSweepsPerClient = 4;
constexpr int kFarmSharedPerSweep = 2;
constexpr int kFarmPrivatePerSweep = 8;

std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

/** Salt of job @p tag at @p seed: independent of the job's position,
 *  so a tiny run's jobs match the pinned full-size ones. */
std::uint64_t
saltFor(std::uint64_t seed, const std::string &tag)
{
    std::uint64_t state = seed ^ fnv1a(tag);
    return splitmix(state);
}

template <class T>
void
shuffle(std::vector<T> &v, std::uint64_t &state)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[splitmix(state) % i]);
}

/** The Fig 4 FMA micro's shape as a sweepable AppSpec: all FMA, two
 *  dependent accumulator chains, no memory traffic. */
AppSpec
fmaMicro(double scale)
{
    AppSpec a;
    a.name = "fma-micro";
    a.suite = "micro";
    a.numBlocks = std::max(8, static_cast<int>(64 * scale + 0.5));
    a.warpsPerBlock = 8;
    a.baseInsts = 2048;
    a.fmaFrac = 1.0;
    a.memFrac = 0.0;
    a.ilp = 2;
    a.regWindow = 8;
    a.divNoise = 0.0;
    return a;
}

AppSpec
appFor(const std::string &name, double scale)
{
    return name == "fma-micro" ? fmaMicro(scale)
                               : scsim::findApp(name, scale);
}

GpuConfig
volta(int sms)
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = sms;
    return cfg;
}

/** Job of @p app under @p d; @p replica > 0 names another salt of the
 *  same point. */
PlannedJob
planned(const AppSpec &app, int sms, Design d, std::uint64_t seed,
        int replica = 0)
{
    PlannedJob p;
    p.job.tag = app.name + "/" + scsim::runner::toString(d);
    if (replica > 0) {
        p.job.tag += '#';
        p.job.tag += std::to_string(replica);
    }
    p.job.cfg = scsim::runner::applyDesign(volta(sms), d);
    p.job.app = app;
    p.job.salt = saltFor(seed, p.job.tag);
    return p;
}

PlannedJob
find(const std::vector<PlannedJob> &jobs, const std::string &tag)
{
    for (const PlannedJob &p : jobs)
        if (p.job.tag == tag)
            return p;
    throw std::logic_error("no planned job " + tag);
}

Plan
simMix(std::uint64_t seed, bool tiny)
{
    Plan plan;
    for (const char *name : kSimMixApps)
        for (Design d : { Design::Baseline, Design::ShuffleRBA })
            for (int r = 0; r < kSimMixSalts; ++r)
                plan.jobs.push_back(
                    planned(appFor(name, kSimMixScale), 8, d, seed, r));
    for (const char *tag : { "pb-sgemm/Baseline", "tpcU-q8/Baseline",
                             "pb-histo/Baseline" })
        plan.probeJobs.push_back(find(plan.jobs, tag));
    std::uint64_t state = seed;
    shuffle(plan.jobs, state);
    if (tiny)
        plan.jobs = plan.probeJobs;
    return plan;
}

Plan
sweepCkpt(std::uint64_t seed, bool tiny)
{
    Plan plan;
    for (const char *name : kSweepApps)
        for (Design d : { Design::Baseline, Design::RBA })
            plan.jobs.push_back(
                planned(appFor(name, kSweepScale), 8, d, seed));
    plan.probeJobs.push_back(find(plan.jobs, "tpcC-q6/Baseline"));
    std::uint64_t state = seed;
    shuffle(plan.jobs, state);
    if (tiny)
        plan.jobs = plan.probeJobs;
    return plan;
}

Plan
farmOverlap(std::uint64_t seed, bool tiny, int round)
{
    // Apps round-robin across the suites, so every sweep mixes them.
    std::vector<AppSpec> all = scsim::standardSuite(kFarmScale);
    std::vector<std::string> suites;
    for (const AppSpec &a : all)
        if (std::find(suites.begin(), suites.end(), a.suite)
            == suites.end())
            suites.push_back(a.suite);
    std::vector<AppSpec> apps;
    for (std::size_t rank = 0; apps.size() < kFarmApps; ++rank) {
        std::size_t before = apps.size();
        for (const std::string &suite : suites) {
            std::size_t seen = 0;
            for (const AppSpec &a : all)
                if (a.suite == suite && seen++ == rank
                    && apps.size() < kFarmApps)
                    apps.push_back(a);
        }
        if (apps.size() == before)
            break;
    }

    std::vector<PlannedJob> pool;
    for (const AppSpec &a : apps)
        for (Design d : { Design::Baseline, Design::RBA })
            pool.push_back(planned(a, kFarmSms, d, seed));

    // Every round deals the pool afresh: a job's latency depends on the
    // jobs queued with it, so the latency percentiles' median over
    // rounds averages several deals instead of resting on one.
    std::uint64_t state =
        round > 0 ? saltFor(seed, "round" + std::to_string(round)) : seed;
    shuffle(pool, state);
    const std::size_t nShared =
        static_cast<std::size_t>(kFarmSweepsPerClient * kFarmSharedPerSweep);
    const std::size_t nPrivate = static_cast<std::size_t>(
        kFarmSweepsPerClient * kFarmPrivatePerSweep);
    if (pool.size() < nShared + kFarmClients * nPrivate)
        throw std::logic_error("farm-overlap job pool too small");

    Plan plan;
    plan.sweeps.resize(kFarmClients);
    for (int c = 0; c < kFarmClients; ++c) {
        for (int k = 0; k < kFarmSweepsPerClient; ++k) {
            std::vector<PlannedJob> sweep;
            for (int i = 0; i < kFarmSharedPerSweep; ++i) {
                PlannedJob p = pool[k * kFarmSharedPerSweep + i];
                p.shared = true;
                sweep.push_back(p);
            }
            int privates = tiny ? 1 : kFarmPrivatePerSweep;
            for (int i = 0; i < privates; ++i)
                sweep.push_back(pool[nShared + c * nPrivate
                                     + k * kFarmPrivatePerSweep + i]);
            shuffle(sweep, state);
            plan.sweeps[c].push_back(sweep);
            if (tiny && k == 1)
                break;
        }
    }
    plan.probeJobs = { pool[0], pool[nShared] };
    return plan;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{ "sim-mix", "sweep-ckpt",
                                                 "farm-overlap" };
    return names;
}

Plan
makePlan(const std::string &workload, std::uint64_t seed, bool tiny,
         int round)
{
    Plan plan;
    if (workload == "sim-mix")
        plan = simMix(seed, tiny);
    else if (workload == "sweep-ckpt")
        plan = sweepCkpt(seed, tiny);
    else if (workload == "farm-overlap")
        plan = farmOverlap(seed, tiny, round);
    else
        throw std::invalid_argument("unknown workload '" + workload + "'");
    plan.workload = workload;
    return plan;
}

std::vector<PlannedJob>
distinctJobs(const Plan &plan)
{
    std::vector<PlannedJob> out;
    std::set<std::string> seen;
    auto add = [&](const PlannedJob &p) {
        if (seen.insert(p.job.tag).second)
            out.push_back(p);
    };
    for (const PlannedJob &p : plan.jobs)
        add(p);
    for (const auto &client : plan.sweeps)
        for (const auto &sweep : client)
            for (const PlannedJob &p : sweep)
                add(p);
    for (const PlannedJob &p : plan.probeJobs)
        add(p);
    return out;
}

} // namespace perfbench
