/**
 * @file
 * The three workloads' set-up and timed rounds.
 *
 * A run times a few set-ups (each torn down again), then runs rounds,
 * each with its own timed set-up, until the requested seconds have
 * passed.  Every
 * round starts cold: a fresh engine or daemon, empty result cache,
 * journal and snapshot directories, so no round is served from an
 * earlier one.  A HostProbe samples the host's speed during each round;
 * after it, untimed, the round's outcomes are checked.  End-to-end
 * metrics are medians over rounds; job latency percentiles are taken
 * per round and their median over rounds reported, so one slow stretch
 * of the host moves one round.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "farm/farm_client.hh"
#include "farm/farm_server.hh"
#include "runner/sweep_engine.hh"
#include "runner/wire.hh"
#include "trace.hh"
#include "workloads_internal.hh"

namespace perfbench {

namespace fs = std::filesystem;
using scsim::runner::JobResult;
using scsim::runner::SweepEngine;
using scsim::runner::SweepOptions;
using scsim::runner::SweepResult;
using scsim::runner::SweepSpec;

std::atomic<bool> g_interrupted{ false };
std::atomic<scsim::farm::FarmServer *> g_activeServer{ nullptr };

namespace {

/** Extra set-ups timed (each torn down again) before the rounds and
 *  after every round; every round's own set-up is timed too.  A set-up
 *  takes about a millisecond and its time follows the host's wake-up
 *  latency, which shifts for seconds at a time, so the samples are
 *  spread over the whole run. */
constexpr int kSetupRepsBefore = 8;
constexpr int kSetupRepsPerRound = 8;

using Pins = std::map<std::string, std::string>;

void
throwIfInterrupted()
{
    if (g_interrupted)
        throw std::runtime_error("interrupted by a signal");
}

SweepSpec
specOf(const std::vector<PlannedJob> &jobs)
{
    SweepSpec spec;
    for (const PlannedJob &p : jobs)
        spec.jobs.push_back(p.job);
    return spec;
}

/**
 * Check the outcomes a round appended from index @p from on, then keep
 * only the first outcome of each job.
 */
void
settleRound(const Plan &plan, const Pins *pins, WorkloadRun &run,
            std::size_t from)
{
    std::vector<JobOutcome> fresh(
        std::make_move_iterator(run.outcomes.begin()
                                + static_cast<std::ptrdiff_t>(from)),
        std::make_move_iterator(run.outcomes.end()));
    run.outcomes.resize(from);
    run.attempted += fresh.size();
    run.failedJobs +=
        checkOutcomes(plan.workload, fresh, pins, run.failures);
    std::set<std::string> kept;
    for (const JobOutcome &o : run.outcomes)
        kept.insert(o.job.tag);
    for (JobOutcome &o : fresh)
        if (kept.insert(o.job.tag).second)
            run.outcomes.push_back(std::move(o));
}

/** Set-up timing + rounds until the deadline, shared by all three. */
template <class Setup, class Round>
void
timeRounds(const Plan &plan, const Options &opts, const Pins *pins,
           WorkloadRun &run, Setup setup, Round round)
{
    int setups = 0;
    auto timeSetups = [&](int reps) {
        for (int i = 0; i < reps; ++i) {
            throwIfInterrupted();
            auto t0 = Clock::now();
            auto ctx = setup("setup" + std::to_string(setups++), 0);
            run.setupS.push_back(secondsSince(t0));
        }
    };
    timeSetups(opts.tiny ? 2 : kSetupRepsBefore);
    auto deadline = Clock::now()
        + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(opts.seconds));
    int k = 0;
    do {
        throwIfInterrupted();
        std::size_t from = run.outcomes.size();
        {
            Span span("bench.round");
            HostProbe probe;
            auto t0 = Clock::now();
            auto ctx = setup("round" + std::to_string(k), k);
            ++k;
            run.setupS.push_back(secondsSince(t0));
            round(*ctx);
            run.hostSlowness.push_back(probe.stop());
        }
        settleRound(plan, pins, run, from);
        if (!opts.tiny)
            timeSetups(kSetupRepsPerRound);
    } while (!opts.tiny && Clock::now() < deadline);
    for (double w : run.roundWallS)
        run.timedWallS += w;
}

// ---- sim-mix -----------------------------------------------------------

struct SimMixCtx
{
    Plan plan;
    std::unique_ptr<SweepEngine> engine;
};

void
runSimMix(const Plan &plan, const Options &opts, const Pins *pins,
          WorkloadRun &run)
{
    run.workers = 1;
    std::uint64_t nextJob = 1;
    auto setup = [&](const std::string &, int) {
        auto ctx = std::make_unique<SimMixCtx>();
        ctx->plan = makePlan(plan.workload, opts.seed, opts.tiny);
        SweepOptions o;
        o.jobs = 1;
        o.progress = false;
        ctx->engine = std::make_unique<SweepEngine>(o);
        return ctx;
    };
    auto round = [&](SimMixCtx &ctx) {
        double insts = 0.0;
        run.roundLatencyMs.emplace_back();
        auto t0 = Clock::now();
        for (const PlannedJob &p : ctx.plan.jobs) {
            std::uint64_t id = nextJob++;
            Span span("runner.SweepEngine::run", id);
            auto j0 = Clock::now();
            SweepResult res = ctx.engine->run(specOf({ p }));
            double lat = msSince(j0);
            const JobResult &r = res.results.at(0);
            run.outcomes.push_back({ p.job, r, lat });
            run.roundLatencyMs.back().push_back(lat);
            run.busyMs += r.wallMs;
            insts += static_cast<double>(r.stats.instructions);
        }
        run.roundWallS.push_back(secondsSince(t0));
        run.roundInsts.push_back(insts);
        run.roundJobs.push_back(static_cast<double>(ctx.plan.jobs.size()));
    };
    timeRounds(plan, opts, pins, run, setup, round);
}

// ---- sweep-ckpt --------------------------------------------------------

struct SweepCtx
{
    ScratchDir dir;
    Plan plan;
    std::unique_ptr<SweepEngine> engine;
};

void
runSweepCkpt(const Plan &plan, const Options &opts, const Pins *pins,
             WorkloadRun &run)
{
    run.workers = benchWorkers();
    auto setup = [&](const std::string &name, int) {
        auto ctx = std::make_unique<SweepCtx>();
        ctx->dir.create(opts.workDir + "/" + name);
        ctx->plan = makePlan(plan.workload, opts.seed, opts.tiny);
        SweepOptions o;
        o.jobs = run.workers;
        o.progress = false;
        o.isolate = true;
        o.selfExe = opts.cliPath;
        o.cacheDir = ctx->dir.path() + "/cache";
        o.checkpointCycles = kCheckpointCycles;
        o.snapshotDir = ctx->dir.path() + "/snapshots";
        o.journalPath = ctx->dir.path() + "/sweep.journal";
        ctx->engine = std::make_unique<SweepEngine>(o);
        return ctx;
    };
    auto round = [&](SweepCtx &ctx) {
        SweepSpec spec = specOf(ctx.plan.jobs);
        auto t0 = Clock::now();
        SweepResult res;
        {
            Span span("runner.SweepEngine::run");
            res = ctx.engine->run(spec);
        }
        run.roundWallS.push_back(secondsSince(t0));
        double insts = 0.0;
        run.roundLatencyMs.emplace_back();
        for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
            const JobResult &r = res.results[i];
            run.outcomes.push_back({ spec.jobs[i], r, r.wallMs });
            run.roundLatencyMs.back().push_back(r.wallMs);
            if (!r.cached)
                run.busyMs += r.wallMs;
            insts += static_cast<double>(r.stats.instructions);
        }
        run.roundInsts.push_back(insts);
        run.roundJobs.push_back(static_cast<double>(spec.jobs.size()));
    };
    timeRounds(plan, opts, pins, run, setup, round);
}

// ---- farm-overlap ------------------------------------------------------

void
runFarmOverlap(const Plan &plan, const Options &opts, const Pins *pins,
               WorkloadRun &run)
{
    run.workers = benchWorkers();
    run.farmCounters = tracingEnabled();

    std::uint64_t submissions = 0, sharedSubmissions = 0;
    for (const auto &client : plan.sweeps)
        for (const auto &sweep : client)
            for (const PlannedJob &p : sweep) {
                ++submissions;
                sharedSubmissions += p.shared ? 1 : 0;
            }
    run.dupJobShare = submissions
        ? static_cast<double>(sharedSubmissions)
            / static_cast<double>(submissions)
        : 0.0;

    std::uint64_t nextJob = 1;
    auto setup = [&](const std::string &name, int k) {
        auto ctx = std::make_unique<FarmSession>();
        ctx->plan = makePlan(plan.workload, opts.seed, opts.tiny, k);
        ctx->start(opts, name, run.workers,
                   static_cast<int>(ctx->plan.sweeps.size()));
        return ctx;
    };
    auto round = [&](FarmSession &ctx) {
        const auto &sweeps = ctx.plan.sweeps;
        std::vector<std::vector<JobOutcome>> perClient(sweeps.size());
        std::vector<std::string> errors(sweeps.size());
        std::uint64_t firstJob = nextJob;
        for (const auto &client : sweeps)
            for (const auto &sweep : client)
                nextJob += sweep.size();

        // jthreads: an exception anywhere below still stops and joins
        // them before the session they use is torn down.
        std::uint64_t queueMax = 0;
        std::jthread sampler;
        if (run.farmCounters)
            sampler = std::jthread([&](std::stop_token stop) {
                setLane(90, "status-sampler");
                while (!stop.stop_requested()) {
                    try {
                        scsim::farm::FarmStatus st;
                        {
                            Span span("farm.FarmClient::status");
                            st = ctx.sampler->status();
                        }
                        queueMax = std::max(queueMax, st.queueDepth);
                    } catch (const std::exception &) {
                        return;
                    }
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
                }
            });

        auto t0 = Clock::now();
        std::vector<std::jthread> threads;
        std::uint64_t base = firstJob;
        for (std::size_t c = 0; c < sweeps.size(); ++c) {
            threads.emplace_back([&, c, base] {
                setLane(static_cast<int>(c) + 1,
                        "client-" + std::to_string(c));
                std::uint64_t id = base;
                try {
                    for (std::size_t k = 0; k < sweeps[c].size(); ++k) {
                        SweepSpec spec = specOf(sweeps[c][k]);
                        std::vector<double> lat(spec.jobs.size(), 0.0);
                        auto s0 = Clock::now();
                        Span span("farm.FarmClient::submit");
                        SweepResult res = ctx.clients[c]->submit(
                            spec,
                            "client" + std::to_string(c) + "-sweep"
                                + std::to_string(k),
                            false,
                            [&](const scsim::farm::JobDoneMsg &m) {
                                if (m.index >= lat.size())
                                    return;
                                lat[m.index] = msSince(s0);
                                recordSpan("farm.job", id + m.index, s0,
                                           Clock::now());
                            });
                        for (std::size_t i = 0; i < spec.jobs.size(); ++i)
                            perClient[c].push_back(
                                { spec.jobs[i], res.results[i], lat[i] });
                        id += spec.jobs.size();
                        throwIfInterrupted();
                    }
                } catch (const std::exception &e) {
                    errors[c] = e.what();
                }
            });
            for (const auto &sweep : sweeps[c])
                base += sweep.size();
        }
        for (std::jthread &t : threads)
            t.join();
        double wall = secondsSince(t0);
        if (sampler.joinable()) {
            sampler.request_stop();
            sampler.join();
        }
        for (const std::string &e : errors)
            if (!e.empty())
                throw std::runtime_error("farm client failed: " + e);

        if (run.farmCounters) {
            scsim::farm::FarmStatus st = ctx.sampler->status();
            run.coalesced += st.jobsCoalesced;
            run.cacheHits += st.cacheHits;
            run.submitsRejected += st.submitsRejected;
            run.queueDepthMax = std::max(run.queueDepthMax, queueMax);
        }

        // Jobs common to both clients must come back identical.
        std::map<std::string, std::string> firstStats;
        std::set<std::string> distinct;
        double insts = 0.0, jobs = 0.0;
        run.roundLatencyMs.emplace_back();
        for (const auto &outs : perClient) {
            for (const JobOutcome &o : outs) {
                run.outcomes.push_back(o);
                run.roundLatencyMs.back().push_back(o.latencyMs);
                jobs += 1.0;
                if (!o.result.cached)
                    run.busyMs += o.result.wallMs;
                if (distinct.insert(o.job.tag).second)
                    insts += static_cast<double>(o.result.stats.instructions);
                if (!o.result.ok())
                    continue;
                std::string text = scsim::runner::serializeStats(o.result.stats);
                auto [it, fresh] = firstStats.emplace(o.job.tag, text);
                if (!fresh && it->second != text) {
                    ++run.failedJobs;
                    run.failures.push_back(
                        { "farm-overlap " + o.job.tag
                          + ": clients got different stats for a shared job" });
                }
            }
        }
        run.roundWallS.push_back(wall);
        run.roundInsts.push_back(insts);
        run.roundJobs.push_back(jobs);
    };
    timeRounds(plan, opts, pins, run, setup, round);
}

} // namespace

// ---- helpers shared with probes.cc --------------------------------------

void
ScratchDir::create(const std::string &path)
{
    remove();
    fs::create_directories(path);
    path_ = path;
}

void
ScratchDir::remove()
{
    if (path_.empty())
        return;
    std::error_code ec;
    fs::remove_all(path_, ec);
    path_.clear();
}

void
FarmSession::start(const Options &opts, const std::string &name,
                   int workers, int clientCount)
{
    dir.create(opts.workDir + "/" + name);
    scsim::farm::FarmServerOptions so;
    so.socketPath = dir.path() + "/farm.sock";
    so.workers = workers;
    so.cacheDir = dir.path() + "/cache";
    so.stateDir = dir.path() + "/state";
    so.selfExe = opts.cliPath;
    so.quiet = true;
    server = std::make_unique<scsim::farm::FarmServer>(so);
    g_activeServer = server.get();
    thread = std::thread([this] {
        try {
            server->run();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: farm daemon failed: %s\n",
                         e.what());
        }
    });
    for (int c = 0; c < clientCount; ++c) {
        Span span("farm.FarmClient::connect");
        clients.push_back(std::make_unique<scsim::farm::FarmClient>(
            scsim::farm::FarmClient::connectUnixSocket(so.socketPath)));
    }
    if (tracingEnabled())
        sampler = std::make_unique<scsim::farm::FarmClient>(
            scsim::farm::FarmClient::connectUnixSocket(so.socketPath));
}

FarmSession::~FarmSession()
{
    clients.clear();
    sampler.reset();
    if (thread.joinable()) {
        server->stop();
        thread.join();
    }
    g_activeServer = nullptr;
    server.reset();
    dir.remove();
}

WorkloadRun
runWorkload(const Plan &plan, const Options &opts, const Pins *pins)
{
    WorkloadRun run;
    if (plan.workload == "sim-mix")
        runSimMix(plan, opts, pins, run);
    else if (plan.workload == "sweep-ckpt")
        runSweepCkpt(plan, opts, pins, run);
    else
        runFarmOverlap(plan, opts, pins, run);
    return run;
}

} // namespace perfbench
