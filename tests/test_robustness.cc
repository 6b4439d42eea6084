/**
 * @file
 * Fault-tolerance tests: the fault-injection harness, cache checksum
 * and quarantine behavior, the forward-progress watchdog, and sweep
 * failure containment (one bad job must not take out a sweep).
 *
 * Labeled `robustness` in CTest; the fixture disarms the process-wide
 * FaultInjector around every test.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_inject.hh"
#include "expect_throw.hh"
#include "gpu/gpu_sim.hh"
#include "runner/job_key.hh"
#include "runner/report.hh"
#include "runner/result_cache.hh"
#include "runner/sweep_engine.hh"
#include "runner/worker_pool.hh"
#include "workloads/microbench.hh"

namespace scsim::runner {
namespace {

AppSpec
tinyApp(const std::string &name, int blocks = 4)
{
    AppSpec app;
    app.name = name;
    app.suite = "test";
    app.numBlocks = blocks;
    app.warpsPerBlock = 4;
    app.baseInsts = 60;
    app.footprintMB = 1;
    return app;
}

GpuConfig
tinyCfg()
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = 2;
    return cfg;
}

/** A job whose kernels cannot fit the SM: fails inside GpuSim::run. */
AppSpec
oversizedApp(const std::string &name, int blocks = 4)
{
    AppSpec app = tinyApp(name, blocks);
    app.regsPerThread = 256;
    app.warpsPerBlock = 16;
    return app;
}

/** Sweep options with @p jobs workers and @p cacheDir, every other
 *  field at its default. */
SweepOptions
sweepOpts(int jobs, std::string cacheDir = "")
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.cacheDir = std::move(cacheDir);
    return opts;
}

std::string
freshDir(const std::string &leaf)
{
    std::string dir = testing::TempDir() + "scsim_" + leaf;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class RobustnessTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

// ---- serialization hardening -----------------------------------------

TEST_F(RobustnessTest, KernelSpanHostileNamesRoundTrip)
{
    SimStats s;
    s.cycles = 42;
    s.kernelSpans.emplace_back("evil\nname with spaces", 100);
    s.kernelSpans.emplace_back("back\\slash\rand cr", 200);

    SimStats back;
    ASSERT_TRUE(deserializeStats(serializeStats(s), back));
    ASSERT_EQ(back.kernelSpans.size(), 2u);
    EXPECT_EQ(back.kernelSpans[0].first, "evil\nname with spaces");
    EXPECT_EQ(back.kernelSpans[0].second, 100u);
    EXPECT_EQ(back.kernelSpans[1].first, "back\\slash\rand cr");
    EXPECT_EQ(serializeStats(back), serializeStats(s));
}

TEST_F(RobustnessTest, ChecksumDetectsPayloadTampering)
{
    SimStats s;
    s.cycles = 12345;
    std::string text = serializeStats(s);
    ASSERT_TRUE(deserializeStats(text, s));

    std::string tampered = text;
    tampered.replace(tampered.find("12345"), 5, "54321");
    SimStats out;
    EXPECT_EQ(decodeStats(tampered, out), StatsDecode::Corrupt);
}

// ---- fault injector ---------------------------------------------------

TEST_F(RobustnessTest, InjectedCacheWriteFaultThrows)
{
    std::string dir = freshDir("inject_write");
    ResultCache cache(dir);
    SimStats s;
    s.cycles = 7;

    FaultInjector::instance().armCacheWriteFaults(1);
    EXPECT_THROW_WITH(cache.store(1, s), CacheError,
                      "injected cache write fault");
    EXPECT_EQ(FaultInjector::instance().cacheWriteAttempts(), 1u);

    // The next attempt (2nd) is past the armed range and succeeds.
    cache.store(1, s);
    EXPECT_EQ(FaultInjector::instance().cacheWriteAttempts(), 2u);
    std::filesystem::remove_all(dir);
}

TEST_F(RobustnessTest, InjectedCacheReadFaultThrows)
{
    std::string dir = freshDir("inject_read");
    SimStats s;
    s.cycles = 7;
    {
        ResultCache cache(dir);
        cache.store(1, s);
    }
    ResultCache fresh(dir);
    FaultInjector::instance().armCacheReadFaults(1);
    SimStats out;
    EXPECT_THROW_WITH(fresh.lookup(1, out), CacheError,
                      "injected cache read fault");
    EXPECT_TRUE(fresh.lookup(1, out));   // second attempt clean
    EXPECT_EQ(out.cycles, 7u);
    std::filesystem::remove_all(dir);
}

TEST_F(RobustnessTest, MemoryOnlyCacheNeverTouchesInjector)
{
    ResultCache cache;   // no dir: disk faults cannot apply
    SimStats s;
    s.cycles = 3;
    FaultInjector::instance().armCacheWriteFaults(1, 1000);
    FaultInjector::instance().armCacheReadFaults(1, 1000);
    cache.store(9, s);
    SimStats out;
    EXPECT_TRUE(cache.lookup(9, out));
    EXPECT_EQ(FaultInjector::instance().cacheWriteAttempts(), 0u);
    EXPECT_EQ(FaultInjector::instance().cacheReadAttempts(), 0u);
}

// ---- cache integrity --------------------------------------------------

TEST_F(RobustnessTest, CorruptEntryIsQuarantinedAndRerun)
{
    std::string dir = freshDir("quarantine");
    SweepSpec spec;
    spec.add("only", tinyCfg(), tinyApp("solo"));

    SweepEngine first{ sweepOpts(1, dir) };
    SweepResult cold = first.run(spec);
    ASSERT_TRUE(cold.allOk());

    // Hand-corrupt the payload behind the checksum's back.
    std::string path =
        dir + "/" + keyToHex(cold.results[0].key) + ".stats";
    std::string text = slurp(path);
    ASSERT_FALSE(text.empty());
    {
        std::ofstream out(path, std::ios::trunc);
        text[text.size() / 2] ^= 0x20;
        out << text;
    }

    SweepEngine second{ sweepOpts(1, dir) };
    SweepResult warm = second.run(spec);
    EXPECT_TRUE(warm.allOk());
    EXPECT_EQ(warm.cacheHits, 0u);      // corrupt entry did not hit
    EXPECT_EQ(warm.executed, 1u);       // the job re-ran
    EXPECT_EQ(second.cache().quarantined(), 1u);
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/" + keyToHex(cold.results[0].key) + ".corrupt"));
    // The re-run rewrote a good entry with identical results.
    SimStats out;
    ResultCache check(dir);
    EXPECT_TRUE(check.lookup(cold.results[0].key, out));
    EXPECT_EQ(out.cycles, cold.results[0].stats.cycles);
    std::filesystem::remove_all(dir);
}

TEST_F(RobustnessTest, VersionSkewIsAMissNotAQuarantine)
{
    std::string dir = freshDir("skew");
    ResultCache cache(dir);
    {
        std::ofstream out(dir + "/" + keyToHex(5) + ".stats");
        out << "scsim-result v1\ncycles 9\n";
    }
    SimStats out;
    EXPECT_FALSE(cache.lookup(5, out));
    EXPECT_EQ(cache.quarantined(), 0u);
    EXPECT_TRUE(
        std::filesystem::exists(dir + "/" + keyToHex(5) + ".stats"));
    std::filesystem::remove_all(dir);
}

TEST_F(RobustnessTest, SweepRetriesTransientCacheWrite)
{
    std::string dir = freshDir("transient_write");
    SweepSpec spec;
    spec.add("only", tinyCfg(), tinyApp("solo"));

    // First disk write fails once; the engine's bounded backoff must
    // retry and land the entry.
    FaultInjector::instance().armCacheWriteFaults(1);
    SweepEngine engine{ sweepOpts(1, dir) };
    SweepResult res = engine.run(spec);
    EXPECT_TRUE(res.allOk());
    EXPECT_GE(FaultInjector::instance().cacheWriteAttempts(), 2u);

    FaultInjector::instance().reset();
    SweepEngine warm{ sweepOpts(1, dir) };
    EXPECT_EQ(warm.run(spec).cacheHits, 1u);
    std::filesystem::remove_all(dir);
}

TEST_F(RobustnessTest, SweepSurvivesPersistentCacheFailure)
{
    std::string dir = freshDir("persistent_fail");
    SweepSpec spec;
    spec.add("only", tinyCfg(), tinyApp("solo"));

    // A permanently broken disk degrades to "nothing cached", never
    // to a failed job.
    FaultInjector::instance().armCacheWriteFaults(1, 1u << 20);
    FaultInjector::instance().armCacheReadFaults(1, 1u << 20);
    SweepEngine engine{ sweepOpts(1, dir) };
    SweepResult res = engine.run(spec);
    EXPECT_TRUE(res.allOk());
    EXPECT_EQ(res.executed, 1u);
    std::filesystem::remove_all(dir);
}

// ---- watchdog ---------------------------------------------------------

TEST_F(RobustnessTest, WatchdogContainsSyntheticHang)
{
    GpuConfig cfg = tinyCfg();
    cfg.hangWindowCycles = 3000;
    FaultInjector::instance().armHang("hang-micro");
    GpuSim sim(cfg);
    try {
        sim.run(makeHangMicro());
        FAIL() << "expected HangError";
    } catch (const HangError &e) {
        EXPECT_NE(std::string(e.what()).find("no forward progress"),
                  std::string::npos);
        // The diagnostic dumps per-sub-core issue and collector state.
        EXPECT_NE(e.diagnostic().find("sub-core"), std::string::npos);
        EXPECT_NE(e.diagnostic().find("collector"), std::string::npos);
        EXPECT_NE(e.diagnostic().find("scoreboardPending"),
                  std::string::npos);
    }
}

TEST_F(RobustnessTest, HangMicroCompletesWhenDisarmed)
{
    GpuConfig cfg = tinyCfg();
    cfg.hangWindowCycles = 3000;
    SimStats s = simulate(cfg, makeHangMicro());
    EXPECT_GT(s.cycles, 0u);
    EXPECT_EQ(s.blocksCompleted, 2u);
}

TEST_F(RobustnessTest, DisabledBudgetsPreserveBehavior)
{
    KernelDesc k = makeFmaMicro(FmaLayout::Baseline, 64, 4);
    SimStats guarded = simulate(tinyCfg(), k);

    GpuConfig open = tinyCfg();
    open.maxCycles = 0;          // unlimited
    open.hangWindowCycles = 0;   // watchdog off
    SimStats free = simulate(open, k);
    EXPECT_EQ(free.cycles, guarded.cycles);
    EXPECT_EQ(free.instructions, guarded.instructions);
}

// ---- sweep failure containment ---------------------------------------

TEST_F(RobustnessTest, SweepContainsHangAndErrorJobs)
{
    FaultInjector::instance().armHang("hangapp");

    SweepSpec spec;
    for (const char *name : { "appA", "appB", "appC", "appD" })
        spec.add(name, tinyCfg(), tinyApp(name));
    spec.add("hugeapp", tinyCfg(), oversizedApp("hugeapp"));
    GpuConfig hangCfg = tinyCfg();
    hangCfg.hangWindowCycles = 3000;
    spec.add("hangapp", hangCfg, tinyApp("hangapp"));

    auto check = [&](const SweepResult &res) {
        EXPECT_EQ(res.failed, 2u);
        EXPECT_EQ(res.skipped, 0u);
        EXPECT_EQ(res.executed, spec.jobs.size());
        for (std::size_t i = 0; i < res.tags.size(); ++i) {
            const JobResult &r = res.results[i];
            if (res.tags[i] == "hugeapp") {
                EXPECT_EQ(r.status, JobStatus::Failed);
                EXPECT_NE(r.error.find("reg bytes"),
                          std::string::npos);
            } else if (res.tags[i] == "hangapp") {
                EXPECT_EQ(r.status, JobStatus::Hang);
                EXPECT_NE(r.error.find("no forward progress"),
                          std::string::npos);
            } else {
                EXPECT_EQ(r.status, JobStatus::Ok) << res.tags[i];
                EXPECT_GT(r.stats.cycles, 0u);
            }
        }
    };

    SweepEngine serial{ sweepOpts(1) };
    SweepResult r1 = serial.run(spec);
    check(r1);

    SweepEngine parallel{ sweepOpts(8) };
    SweepResult r8 = parallel.run(spec);
    check(r8);

    // Manifests are byte-identical at any worker count, and carry the
    // per-job status and error columns.
    EXPECT_EQ(jsonManifest(spec, r1), jsonManifest(spec, r8));
    EXPECT_EQ(csvManifest(spec, r1), csvManifest(spec, r8));
    std::string json = jsonManifest(spec, r1);
    EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"hang\""), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
}

TEST_F(RobustnessTest, FailFastSkipsRemainingJobs)
{
    SweepSpec spec;
    // Big enough to sort first under longest-expected-first.
    spec.add("bad", tinyCfg(), oversizedApp("bad", 64));
    for (const char *name : { "appA", "appB", "appC" })
        spec.add(name, tinyCfg(), tinyApp(name));

    SweepOptions opts = sweepOpts(1);
    opts.failFast = true;
    SweepEngine engine{ opts };
    SweepResult res = engine.run(spec);
    EXPECT_EQ(res.failed, 1u);
    EXPECT_EQ(res.executed, 1u);
    EXPECT_EQ(res.skipped, 3u);
    EXPECT_FALSE(res.allOk());
    for (std::size_t i = 0; i < res.tags.size(); ++i)
        if (res.tags[i] != "bad") {
            EXPECT_EQ(res.results[i].status, JobStatus::Skipped);
            EXPECT_NE(res.results[i].error.find("skipped"),
                      std::string::npos);
        }
}

TEST_F(RobustnessTest, MaxFailuresBoundsTheDamage)
{
    SweepSpec spec;
    spec.add("bad1", tinyCfg(), oversizedApp("bad1", 64));
    spec.add("bad2", tinyCfg(), oversizedApp("bad2", 63));
    spec.add("good", tinyCfg(), tinyApp("good"));

    SweepOptions opts = sweepOpts(1);
    opts.maxFailures = 2;
    SweepEngine engine{ opts };
    SweepResult res = engine.run(spec);
    EXPECT_EQ(res.failed, 2u);
    EXPECT_EQ(res.skipped, 1u);
}

// ---- worker pool containment -----------------------------------------

TEST_F(RobustnessTest, WorkerPoolCapturesPerJobExceptions)
{
    std::vector<std::size_t> order{ 0, 1, 2, 3 };
    auto errors = runOrdered(order, 2, [](std::size_t i) {
        if (i % 2)
            throw WorkloadError("odd job " + std::to_string(i));
    });
    ASSERT_EQ(errors.size(), 4u);
    EXPECT_FALSE(errors[0]);
    EXPECT_TRUE(errors[1]);
    EXPECT_FALSE(errors[2]);
    EXPECT_TRUE(errors[3]);
    EXPECT_THROW(std::rethrow_exception(errors[1]), WorkloadError);
}

TEST_F(RobustnessTest, WorkerPoolStopPredicateHalts)
{
    std::vector<std::size_t> order{ 0, 1, 2, 3, 4 };
    std::vector<int> ran(order.size(), 0);
    auto errors = runOrdered(
        order, 1,
        [&](std::size_t i) {
            ran[i] = 1;
            throw WorkloadError("always fails");
        },
        [](std::size_t failures) { return failures >= 2; });
    EXPECT_EQ(ran[0] + ran[1] + ran[2] + ran[3] + ran[4], 2);
    EXPECT_TRUE(errors[0]);
    EXPECT_TRUE(errors[1]);
    EXPECT_FALSE(errors[2]);
}

} // namespace
} // namespace scsim::runner
