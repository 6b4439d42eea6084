/**
 * @file
 * perfbench: SubCoreSim's end-to-end and per-layer benchmark.
 *
 *   perfbench --workload sim-mix|sweep-ckpt|farm-overlap --seed N
 *             --seconds S --trace 0|1 --cli PATH --work-dir DIR
 *             --pins FILE [--trace-out FILE] [--commit ID] [--tiny]
 *   perfbench --write-pins FILE
 *
 * perfbench/run.py builds this binary and passes the paths.  With
 * --trace 0 the last stdout line is a JSON object holding the
 * end-to-end metrics; with --trace 1 it holds the per-layer metrics of
 * a traced run, and the spans go to --trace-out as Chrome trace-event
 * JSON.  The exit code is 0 only when every job passed every check.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hh"
#include "farm/farm_server.hh"
#include "trace.hh"
#include "workloads_internal.hh"

namespace perfbench {

double
msSince(Clock::time_point t)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t)
        .count();
}

double
secondsSince(Clock::time_point t)
{
    return msSince(t) / 1e3;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double q = p / 100.0;
    if (v.size() == 1 || q <= 0.0)
        return v.front();
    if (q >= 1.0)
        return v.back();
    // Harrell-Davis: order statistic i weighs the Beta(a, b) mass on
    // [i/n, (i+1)/n], integrated by the midpoint rule.
    const double n = static_cast<double>(v.size());
    const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
    const double logNorm = std::lgamma(a + b) - std::lgamma(a)
        - std::lgamma(b);
    constexpr int kSteps = 32;
    double sum = 0.0, total = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        double w = 0.0;
        for (int s = 0; s < kSteps; ++s) {
            double x = (static_cast<double>(i) + (s + 0.5) / kSteps) / n;
            w += std::exp(logNorm + (a - 1.0) * std::log(x)
                          + (b - 1.0) * std::log1p(-x));
        }
        sum += w * v[i];
        total += w;
    }
    return sum / total;
}

int
benchWorkers()
{
    unsigned n = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(n / 2, 1u, 2u));
}

SimTotals
simTotals(const WorkloadRun &run)
{
    SimTotals t;
    std::set<std::string> seen;
    for (const JobOutcome &o : run.outcomes) {
        if (!o.result.ok() || !seen.insert(o.job.tag).second)
            continue;
        const scsim::SimStats &s = o.result.stats;
        double n = static_cast<double>(s.instructions);
        double sched = static_cast<double>(s.schedCycles);
        double l1 = static_cast<double>(s.l1Accesses);
        t.jobs += 1;
        t.insts += n;
        t.cycles += static_cast<double>(s.cycles);
        t.schedCycles += sched;
        t.issueSlots += static_cast<double>(s.issueSlotsUsed);
        t.rfConflictCycles += static_cast<double>(s.rfBankConflictCycles);
        t.l1Accesses += l1;
        t.l2Accesses += static_cast<double>(s.l2Accesses);
        if (static_cast<double>(s.stallNoWarp) > 0.5 * sched)
            t.starvedInsts += n;
        if (l1 > n)
            t.memBoundInsts += n;
    }
    return t;
}

namespace {

void
onSignal(int)
{
    g_interrupted = true;
    if (scsim::farm::FarmServer *s = g_activeServer.load())
        s->stop();
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --cli PATH --work-dir DIR --pins FILE "
                 "[--trace-out FILE] [--commit ID] [--tiny]\n"
                 "       perfbench --write-pins FILE\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--pins")
                o.pinsPath = value();
            else if (a == "--work-dir")
                o.workDir = value();
            else if (a == "--cli")
                o.cliPath = value();
            else if (a == "--trace-out")
                o.traceOut = value();
            else if (a == "--commit")
                o.commit = value();
            else if (a == "--tiny")
                o.tiny = true;
            else if (a == "--write-pins")
                o.writePins = value();
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (!o.writePins.empty())
        return o;
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        usage("unknown workload '" + o.workload + "'");
    if (o.cliPath.empty() || o.workDir.empty() || o.pinsPath.empty())
        usage("--cli, --work-dir and --pins are required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss))
        / 1024.0;
}

/**
 * Rates per round, median over rounds.  With @p slowness each round's
 * rate is first multiplied by the host's slowness during that round.
 */
double
medianRate(const std::vector<double> &work, const std::vector<double> &wallS,
           const std::vector<double> *slowness = nullptr)
{
    std::vector<double> rates;
    for (std::size_t i = 0; i < work.size() && i < wallS.size(); ++i)
        if (wallS[i] > 0)
            rates.push_back(work[i] / wallS[i]
                            * (slowness ? slowness->at(i) : 1.0));
    return median(rates);
}

/** Median of @p ms[i] / @p slowness[i]. */
double
medianAtReference(const std::vector<double> &ms,
                  const std::vector<double> &slowness)
{
    std::vector<double> scaled;
    for (std::size_t i = 0; i < ms.size(); ++i)
        scaled.push_back(ms[i] / slowness.at(i));
    return median(scaled);
}

/**
 * The workload-property report: how much of the workload's work
 * (simulated warp instructions of its distinct jobs) has each property
 * a gain may depend on.
 */
void
printProperties(const Plan &plan, const WorkloadRun &run)
{
    SimTotals t = simTotals(run);
    auto share = [&](double part) { return t.insts > 0 ? part / t.insts : 0.0; };
    bool ckpt = plan.workload == "sweep-ckpt";
    std::printf("properties: core.empty_issue_share %.4f (%.1f%% of warp "
                "insts in issue-starved jobs: no warp on over half the "
                "scheduler-cycles)\n",
                1.0 - (t.schedCycles > 0 ? t.issueSlots / t.schedCycles : 0.0),
                100 * share(t.starvedInsts));
    std::printf("properties: mem.l1_accesses_per_inst %.4f (%.1f%% of warp "
                "insts in jobs above 1.0)\n",
                share(t.l1Accesses), 100 * share(t.memBoundInsts));
    std::printf("properties: farm.dup_job_share %.4f of job submissions\n",
                run.dupJobShare);
    std::printf("properties: snapshots per job %.1f (every %llu cycles; "
                "%s)\n",
                ckpt && t.jobs > 0
                    ? t.cycles / static_cast<double>(kCheckpointCycles) / t.jobs
                    : 0.0,
                static_cast<unsigned long long>(kCheckpointCycles),
                ckpt ? "checkpointing on" : "no checkpoints");
}

/** Simulated counts of each distinct job (deterministic per seed). */
void
printJobCounts(const WorkloadRun &run)
{
    std::printf("job %-26s %10s %10s %7s %7s %9s %8s %8s\n", "tag", "cycles",
                "insts", "empty", "no-warp", "rfconf/c", "l1/inst",
                "l2/inst");
    std::set<std::string> seen;
    for (const JobOutcome &o : run.outcomes) {
        if (!o.result.ok() || !seen.insert(o.job.tag).second)
            continue;
        const scsim::SimStats &s = o.result.stats;
        auto per = [](std::uint64_t a, std::uint64_t b) {
            return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
        };
        std::printf("job %-26s %10llu %10llu %7.3f %7.3f %9.3f %8.3f %8.3f\n",
                    o.job.tag.c_str(),
                    static_cast<unsigned long long>(s.cycles),
                    static_cast<unsigned long long>(s.instructions),
                    1.0 - per(s.issueSlotsUsed, s.schedCycles),
                    per(s.stallNoWarp, s.schedCycles),
                    per(s.rfBankConflictCycles, s.cycles),
                    per(s.l1Accesses, s.instructions),
                    per(s.l2Accesses, s.instructions));
    }
}

void
printHost(const Options &o)
{
    std::printf(
        "host: {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, "
        "\"build_type\": %s, \"commit\": %s, \"seed\": %llu, "
        "\"workload\": %s, \"trace\": %d, \"seconds\": %s, "
        "\"host_ref_ms\": %.3f}\n",
        std::thread::hardware_concurrency(), jsonString(cpuModel()).c_str(),
        jsonString(std::string("g++ ") + __VERSION__).c_str(),
        jsonString(PERFBENCH_BUILD_TYPE).c_str(),
        jsonString(o.commit.empty() ? "unknown" : o.commit).c_str(),
        static_cast<unsigned long long>(o.seed), jsonString(o.workload).c_str(),
        o.trace ? 1 : 0, number(o.seconds).c_str(), referenceSliceMs());
}

int
runBench(const Options &opts)
{
    printHost(opts);
    std::map<std::string, std::string> pins;
    const std::map<std::string, std::string> *pinsForSeed = nullptr;
    if (opts.seed == kDefaultSeed) {
        PinTable table = loadPins(opts.pinsPath);
        pins = table[opts.workload];
        pinsForSeed = &pins;
    }

    Plan plan = makePlan(opts.workload, opts.seed, opts.tiny);
    enableTracing(opts.trace);
    WorkloadRun run = runWorkload(plan, opts, pinsForSeed);
    double rssMb = peakRssMb();

    // Every failed check counts once against the jobs and probe checks
    // attempted; a shared farm job that came back different counts too.
    std::vector<CheckFailure> failures = run.failures;
    std::uint64_t attempted = run.attempted;
    std::uint64_t failed = run.failedJobs;

    std::vector<std::pair<std::string, Metric>> metrics;
    double insts = 0, jobs = 0;
    for (double v : run.roundInsts)
        insts += v;
    for (double v : run.roundJobs)
        jobs += v;
    std::printf("run: %zu rounds, %.0f jobs, %.0f distinct-job warp insts, "
                "%.3f s timed, %d workers%s\n",
                run.roundWallS.size(), jobs, insts, run.timedWallS,
                run.workers, pinsForSeed ? ", pinned fingerprints checked"
                                         : "");
    printProperties(plan, run);
    std::printf("round wall s:");
    for (double w : run.roundWallS)
        std::printf(" %.4f", w);
    std::printf("\nround host slowness:");
    for (double s : run.hostSlowness)
        std::printf(" %.4f", s);
    std::printf("\n");

    std::vector<double> p50, p90;
    std::size_t n = 0;
    for (const auto &lat : run.roundLatencyMs) {
        p50.push_back(percentile(lat, 50));
        p90.push_back(percentile(lat, 90));
        n += lat.size();
    }
    // Host time at the reference host's speed: each round's timings
    // divided by the host's slowness during that round, so a run on a
    // host running 20% slow reports what the same work takes at
    // reference speed.  Set-ups are divided by the run's median
    // slowness: each takes about a millisecond, too short for the
    // probe to sample.
    const std::vector<double> &slow = run.hostSlowness;
    std::printf("as measured: setup_s %.6g sim_insts_per_s %.6g jobs_per_s "
                "%.6g job_latency_ms_p50 %.6g job_latency_ms_p90 %.6g; "
                "host slowness %.4f (median of %zu rounds)\n",
                median(run.setupS),
                medianRate(run.roundInsts, run.roundWallS),
                medianRate(run.roundJobs, run.roundWallS), median(p50),
                median(p90), median(slow), slow.size());
    metrics = {
        { "setup_s", { median(run.setupS) / median(slow), "s" } },
        { "sim_insts_per_s",
          { medianRate(run.roundInsts, run.roundWallS, &slow),
            "warp_inst/s" } },
        { "jobs_per_s",
          { medianRate(run.roundJobs, run.roundWallS, &slow), "jobs/s" } },
        { "job_latency_ms_p50", { medianAtReference(p50, slow), "ms" } },
        { "job_latency_ms_p90", { medianAtReference(p90, slow), "ms" } },
        { "peak_rss_mb", { rssMb, "MB" } },
    };
    std::printf("latency samples: %zu in %zu rounds (p50/p90 per round, "
                "median over rounds)\n",
                n, run.roundLatencyMs.size());
    std::printf("timings below are at the reference host's speed: each "
                "round's as measured, divided by its host slowness\n");
    std::printf("fail_ratio: %llu/%llu\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    for (const auto &[name, m] : metrics)
        std::printf("metric %-28s %18.6f %s\n", name.c_str(), m.value,
                    m.unit.c_str());

    if (opts.trace) {
        std::size_t before = failures.size();
        LayerMetrics layers =
            probeLayers(plan, run, opts, failures, attempted);
        failed += failures.size() - before;
        metrics.clear();
        for (const auto &[name, m] : layers) {
            std::printf("layer %-36s %18.6f %s\n", name.c_str(), m.value,
                        m.unit.c_str());
            // Always zero in a healthy closed-loop run: reported above,
            // kept out of the result so no metric reads a constant 0.
            if (name != "farm.submits_rejected")
                metrics.push_back({ name, m });
        }
        printJobCounts(run);
        std::printf("self time by span (ms): %-34s %8s %12s %12s\n", "name",
                    "count", "total", "self");
        for (const auto &[name, t] : selfTimes())
            std::printf("self %-50s %8llu %12.3f %12.3f\n", name.c_str(),
                        static_cast<unsigned long long>(t.count), t.totalMs,
                        t.selfMs);
        if (!opts.traceOut.empty()) {
            writeChromeTrace(opts.traceOut);
            std::printf("trace: %s\n", opts.traceOut.c_str());
        }
    }

    std::printf("host_ref_ms at end: %.3f\n", referenceSliceMs());
    for (const CheckFailure &f : failures)
        std::printf("CHECK FAILED: %s\n", f.what.c_str());
    failed = std::min(failed, attempted);
    bool correct = failures.empty();

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        json += (first ? "" : ", ") + jsonString(name) + ": {\"value\": "
            + number(m.value) + ", \"unit\": " + jsonString(m.unit) + "}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts = parseArgs(argc, argv);
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr,
                     "perfbench: refusing to report from a %s build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    try {
        if (!opts.writePins.empty()) {
            writePins(opts.writePins);
            return 0;
        }
        return runBench(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
