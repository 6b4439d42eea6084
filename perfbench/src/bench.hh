/**
 * @file
 * Shared declarations of the SubCoreSim benchmark program.
 *
 * The benchmark times calls into SubCoreSim's public library API from
 * outside: it never reaches into the simulator, so every number here
 * is what a caller of that API would see.  Simulated statistics are
 * not metrics; they are the correctness check (see checks.cc).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runner/job_result.hh"
#include "runner/sweep_spec.hh"
#include "stats/stats.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** The seed whose job fingerprints are pinned in the table. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/** Command-line options (see main.cc for their meaning). */
struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string pinsPath;
    std::string workDir;
    std::string cliPath;
    std::string traceOut;
    std::string commit;
    std::string writePins;
};

double msSince(Clock::time_point t);
double secondsSince(Clock::time_point t);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Percentile @p p in [0,100] of @p v by the Harrell-Davis estimator, a
 * Beta-weighted mean of all order statistics (0 when empty).  Job
 * latencies cluster by app, and a seed's salts decide which cluster the
 * two ranks next to p fall in; weighing every rank keeps the estimate
 * from jumping across the gap between clusters.
 */
double percentile(std::vector<double> v, double p);

/** Worker count for the multi-worker workloads: half of nproc, at
 *  most 2, so the workers, the daemon and the clients never contend for
 *  the host's cores. */
int benchWorkers();

// ---- host speed ----------------------------------------------------------

/** Milliseconds one reference slice takes on the host the benchmark was
 *  defined on (4-vCPU KVM Xeon, Sapphire Rapids) when nothing else
 *  runs. */
inline constexpr double kReferenceSliceMs = 2.75;

/**
 * Median milliseconds of five slices of a fixed integer and memory
 * kernel that uses no SubCoreSim code, on the calling thread.
 */
double referenceSliceMs();

/**
 * Samples the host's speed while a round runs: a thread of its own runs
 * reference slices, each followed by a pause four times as long, until
 * stop().  The host's speed moves by tens of percent over minutes on a
 * shared machine (other guests' load); the samples show by how much
 * during this round.  The correction is partial: in runs where the
 * workloads ran 1.7-2.3x slower than on a quiet host, the probe read
 * 1.5-2.0x.
 */
class HostProbe
{
  public:
    HostProbe();
    ~HostProbe();
    HostProbe(const HostProbe &) = delete;
    HostProbe &operator=(const HostProbe &) = delete;

    /** Stop sampling; returns the host's slowness over the samples:
     *  median slice time / kReferenceSliceMs (1 when none was taken). */
    double stop();

  private:
    struct State;
    std::unique_ptr<State> state_;
};

// ---- job plans ---------------------------------------------------------

/** One planned job: the SimJob the program sees plus bench metadata. */
struct PlannedJob
{
    scsim::runner::SimJob job;   //!< job.tag is unique within the workload
    bool shared = false;  //!< farm-overlap: submitted by both clients
};

/** What one workload runs, derived from the seed alone. */
struct Plan
{
    std::string workload;
    /** sim-mix / sweep-ckpt: the jobs of one round, in seed order. */
    std::vector<PlannedJob> jobs;
    /** farm-overlap: sweeps[client][k] is client's k-th submission. */
    std::vector<std::vector<std::vector<PlannedJob>>> sweeps;
    /** Jobs the traced run probes layer by layer. */
    std::vector<PlannedJob> probeJobs;
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Build @p workload's plan for @p seed; @p tiny shrinks rounds.  On
 *  farm-overlap, @p round > 0 deals the same jobs to other sweeps. */
Plan makePlan(const std::string &workload, std::uint64_t seed,
              bool tiny, int round = 0);

/** Every distinct job of a plan (farm sweeps flattened, deduped). */
std::vector<PlannedJob> distinctJobs(const Plan &plan);

/** Snapshot cadence of sweep-ckpt and of the checkpoint probes. */
inline constexpr std::uint64_t kCheckpointCycles = 2000;

// ---- results -----------------------------------------------------------

/** One finished job as a client of the API saw it. */
struct JobOutcome
{
    scsim::runner::SimJob job;
    scsim::runner::JobResult result;
    double latencyMs = 0.0;
};

/** A counted check failure, reported by name. */
struct CheckFailure
{
    std::string what;
};

/** Everything a workload's timed phase produced. */
struct WorkloadRun
{
    std::vector<double> setupS;      //!< one per setup repetition
    std::vector<double> roundWallS;  //!< one per timed round
    /** Host slowness during each round (HostProbe::stop). */
    std::vector<double> hostSlowness;
    std::vector<double> roundInsts;  //!< simulated warp insts / round
    std::vector<double> roundJobs;   //!< completed jobs / round
    /** Job latencies, one vector per round (the same job mix each). */
    std::vector<std::vector<double>> roundLatencyMs;
    /** Each distinct job's first outcome.  Every outcome is checked
     *  when its round ends and only the first of each job is kept, so
     *  the process does not grow over a run. */
    std::vector<JobOutcome> outcomes;
    std::uint64_t attempted = 0;   //!< outcomes checked, all rounds
    std::uint64_t failedJobs = 0;  //!< of those, the ones that failed
    int workers = 1;
    double busyMs = 0.0;     //!< sum of JobResult::wallMs, not cached
    double timedWallS = 0.0; //!< sum of roundWallS

    // Farm counters (from FarmStatus at the end of each round).
    double dupJobShare = 0.0;
    std::uint64_t coalesced = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t submitsRejected = 0;
    std::uint64_t queueDepthMax = 0;
    bool farmCounters = false;

    std::vector<CheckFailure> failures;
};

/** Simulated totals over the distinct jobs a run completed. */
struct SimTotals
{
    double jobs = 0, insts = 0, cycles = 0, schedCycles = 0, issueSlots = 0;
    double rfConflictCycles = 0, l1Accesses = 0, l2Accesses = 0;
    /** Warp insts in jobs with no warp on over half the scheduler-cycles. */
    double starvedInsts = 0;
    /** Warp insts in jobs with more than one L1 access per instruction. */
    double memBoundInsts = 0;
};

SimTotals simTotals(const WorkloadRun &run);

/** Run @p plan's workload for opts.seconds (at least one round),
 *  checking every outcome against @p pins when non-null. */
WorkloadRun runWorkload(const Plan &plan, const Options &opts,
                        const std::map<std::string, std::string> *pins);

// ---- correctness -------------------------------------------------------

/** workload -> tag -> fingerprint hex. */
using PinTable = std::map<std::string, std::map<std::string, std::string>>;

/** Parse a pin table; throws std::runtime_error on malformed input. */
PinTable loadPins(const std::string &path);

/**
 * Check every outcome: status ok, the accounting identities of the
 * property tests, and (when @p pins is non-null) the pinned
 * fingerprint.  Returns the number of outcomes that failed and
 * appends one CheckFailure per problem.
 */
std::uint64_t checkOutcomes(const std::string &workload,
                            const std::vector<JobOutcome> &outcomes,
                            const std::map<std::string, std::string> *pins,
                            std::vector<CheckFailure> &failures);

/** Run every distinct job of each workload's default-seed plan
 *  in-process and write the pin table to @p path. */
void writePins(const std::string &path);

// ---- per-layer probes ----------------------------------------------------

/** One reported metric: its value and unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
/** Per-layer metrics by name, printed under --trace 1. */
using LayerMetrics = std::map<std::string, Metric>;

/**
 * Time each layer's public entry points on @p plan's probe jobs (and
 * a probe farm), fold in the counts of @p run, and return the
 * per-layer metrics.  Appends to @p failures when the resume check
 * fails; @p attempted counts the checks made.
 */
LayerMetrics probeLayers(const Plan &plan, const WorkloadRun &run,
                         const Options &opts,
                         std::vector<CheckFailure> &failures,
                         std::uint64_t &attempted);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
