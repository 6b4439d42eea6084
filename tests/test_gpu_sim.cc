/** @file End-to-end GpuSim integration tests and cross-cutting
 *  properties (determinism, idle-skip equivalence). */

#include <gtest/gtest.h>

#include "expect_throw.hh"
#include "gpu/gpu_sim.hh"
#include "stats/stats_io.hh"
#include "workloads/microbench.hh"
#include "workloads/suite.hh"

namespace scsim {
namespace {

GpuConfig
smallVolta(int sms = 2)
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = sms;
    return cfg;
}

TEST(GpuSim, CompletesAllBlocksAcrossSms)
{
    GpuConfig cfg = smallVolta(4);
    KernelDesc k = makeFmaMicro(FmaLayout::Baseline, 64, 40);
    SimStats s = simulate(cfg, k);
    EXPECT_EQ(s.blocksCompleted, 40u);
    EXPECT_EQ(s.warpsCompleted, 40u * 8u);
    EXPECT_EQ(s.instructions, 40u * 8u * 66u);
    EXPECT_GT(s.ipc(), 0.0);
}

TEST(GpuSim, MultiKernelAppRunsSequentially)
{
    GpuConfig cfg = smallVolta(2);
    Application app;
    app.name = "two-kernels";
    app.kernels.push_back(makeFmaMicro(FmaLayout::Baseline, 32, 4));
    app.kernels.push_back(makeFmaMicro(FmaLayout::Balanced, 32, 4));
    SimStats s = simulate(cfg, app);
    EXPECT_EQ(s.blocksCompleted, 8u);

    Cycle lone = simulate(cfg, app.kernels[0]).cycles;
    EXPECT_GT(s.cycles, lone);
}

TEST(GpuSim, DeterministicAcrossRuns)
{
    GpuConfig cfg = smallVolta(2);
    cfg.assign = AssignPolicy::Shuffle;
    Application app = buildApp(findApp("tpcU-q5", 0.1));
    SimStats a = simulate(cfg, app);
    SimStats b = simulate(cfg, app);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.rfReads, b.rfReads);
    EXPECT_EQ(a.issuePerScheduler, b.issuePerScheduler);
}

TEST(GpuSim, SeedChangesShuffleOutcome)
{
    GpuConfig cfg = smallVolta(1);
    cfg.assign = AssignPolicy::Shuffle;
    KernelDesc k = makeImbalanceMicro(8.0, 128, 6);
    Cycle a = simulate(cfg, k).cycles;
    cfg.seed = 999;
    Cycle b = simulate(cfg, k).cycles;
    EXPECT_NE(a, b);
}

/**
 * Idle-cycle skipping must be an exact optimization.  By design the
 * global skip jumps over cycles in which no SM has work without
 * counting them as scheduler-cycles, so schedCycles, stallNoWarp and
 * stallScoreboard are lower with it on (DESIGN.md section 4.1); every
 * other field of the stats, the issue matrix, spans and RF trace
 * included, must be identical, and the left-out scheduler-cycles
 * must all be idle stalls.
 */
class IdleSkipEquivalence
    : public ::testing::TestWithParam<SchedulerPolicy>
{};

TEST_P(IdleSkipEquivalence, SameResultWithAndWithoutSkip)
{
    GpuConfig cfg = smallVolta(2);
    cfg.scheduler = GetParam();
    Application app = buildApp(findApp("rod-nn", 0.08));
    cfg.enableIdleSkip = true;
    SimStats skip = simulate(cfg, app);
    cfg.enableIdleSkip = false;
    SimStats noskip = simulate(cfg, app);
    EXPECT_EQ(skip.cycles, noskip.cycles);
    EXPECT_EQ(skip.instructions, noskip.instructions);
    EXPECT_EQ(skip.rfReads, noskip.rfReads);
    EXPECT_EQ(skip.rfBankConflictCycles, noskip.rfBankConflictCycles);

    EXPECT_LE(skip.schedCycles, noskip.schedCycles);
    EXPECT_EQ(noskip.schedCycles - skip.schedCycles,
              (noskip.stallNoWarp + noskip.stallScoreboard)
                  - (skip.stallNoWarp + skip.stallScoreboard));
    for (SimStats *s : { &skip, &noskip }) {
        s->schedCycles = 0;
        s->stallNoWarp = 0;
        s->stallScoreboard = 0;
    }
    EXPECT_EQ(serializeStatsPayload(skip), serializeStatsPayload(noskip));
}

INSTANTIATE_TEST_SUITE_P(Schedulers, IdleSkipEquivalence,
                         ::testing::Values(SchedulerPolicy::LRR,
                                           SchedulerPolicy::GTO,
                                           SchedulerPolicy::RBA));

TEST(GpuSim, RbaLatencyZeroMatchesRingDepthOne)
{
    GpuConfig cfg = smallVolta(1);
    cfg.scheduler = SchedulerPolicy::RBA;
    KernelDesc k = makeConflictMicro(0, 512, 8);
    cfg.rbaScoreLatency = 0;
    Cycle c0 = simulate(cfg, k).cycles;
    EXPECT_GT(c0, 0u);
    // Large staleness still runs to completion and stays close.
    cfg.rbaScoreLatency = 20;
    Cycle c20 = simulate(cfg, k).cycles;
    EXPECT_GT(c20, 0u);
    EXPECT_LT(static_cast<double>(c20) / static_cast<double>(c0), 1.25);
}

TEST(GpuSim, MoreSmsRunFaster)
{
    KernelDesc k = makeFmaMicro(FmaLayout::Baseline, 128, 32);
    Cycle one = simulate(smallVolta(1), k).cycles;
    Cycle four = simulate(smallVolta(4), k).cycles;
    EXPECT_LT(four, one);
    EXPECT_GT(four, one / 8);
}

TEST(GpuSim, FullyConnectedNeverSlowerOnImbalance)
{
    KernelDesc k = makeFmaMicro(FmaLayout::Unbalanced, 512, 8);
    Cycle part = simulate(smallVolta(1), k).cycles;
    GpuConfig fc = smallVolta(1);
    fc.subCores = 1;
    Cycle full = simulate(fc, k).cycles;
    EXPECT_LT(full, part);
}

TEST(GpuSim, AllAssignPoliciesRunEveryWorkload)
{
    KernelDesc k = makeImbalanceMicro(4.0, 64, 8);
    for (AssignPolicy p : { AssignPolicy::RoundRobin, AssignPolicy::SRR,
                            AssignPolicy::Shuffle, AssignPolicy::HashSRR,
                            AssignPolicy::HashShuffle }) {
        GpuConfig cfg = smallVolta(1);
        cfg.assign = p;
        SimStats s = simulate(cfg, k);
        EXPECT_EQ(s.blocksCompleted, 8u) << toString(p);
    }
}

TEST(GpuSim, HashSrrMatchesFunctionalSrrExactly)
{
    KernelDesc k = makeImbalanceMicro(6.0, 128, 10);
    GpuConfig a = smallVolta(1);
    a.assign = AssignPolicy::SRR;
    GpuConfig b = smallVolta(1);
    b.assign = AssignPolicy::HashSRR;
    EXPECT_EQ(simulate(a, k).cycles, simulate(b, k).cycles);
}

TEST(GpuSim, BankStealingRunsAndStaysClose)
{
    GpuConfig cfg = smallVolta(1);
    KernelDesc k = makeConflictMicro(1, 512, 8);
    Cycle base = simulate(cfg, k).cycles;
    cfg.bankStealing = true;
    Cycle steal = simulate(cfg, k).cycles;
    double ratio = static_cast<double>(steal)
        / static_cast<double>(base);
    // Paper: <1% average effect with only 2 CUs per sub-core.
    EXPECT_GT(ratio, 0.9);
    EXPECT_LT(ratio, 1.1);
}

TEST(GpuSim, RfTraceCollectsSamples)
{
    GpuConfig cfg = smallVolta(1);
    cfg.rfTraceEnable = true;
    cfg.rfTraceWindow = 32;
    KernelDesc k = makeConflictMicro(1, 256, 4);
    SimStats s = simulate(cfg, k);
    EXPECT_GT(s.rfReadTrace.samples().size(), 2u);
    EXPECT_GT(s.rfReadTrace.average(), 0.0);
    // Peak bandwidth is 8 banks x 32 lanes.
    for (double x : s.rfReadTrace.samples())
        EXPECT_LE(x, 256.0);
}

TEST(GpuSim, StatsAccountingConsistency)
{
    GpuConfig cfg = smallVolta(2);
    Application app = buildApp(findApp("ply-atax", 0.08));
    SimStats s = simulate(cfg, app);
    EXPECT_EQ(s.threadInstructions, s.instructions * 32u);
    EXPECT_GE(s.l1Accesses, s.l1Misses);
    EXPECT_GE(s.l2Accesses, s.l2Misses);
    EXPECT_EQ(s.issueSlotsUsed, s.instructions);
    std::uint64_t perSchedTotal = 0;
    for (const auto &sm : s.issuePerScheduler)
        for (std::uint64_t n : sm)
            perSchedTotal += n;
    EXPECT_EQ(perSchedTotal, s.instructions);
}

TEST(GpuSimThrow, MaxCyclesThrowsHangError)
{
    GpuConfig cfg = smallVolta(1);
    cfg.maxCycles = 100;
    KernelDesc k = makeFmaMicro(FmaLayout::Baseline, 4096, 8);
    EXPECT_THROW_WITH(simulate(cfg, k), HangError,
                      "exceeded maxCycles");
}

TEST(GpuSimThrow, OversizedBlockThrows)
{
    GpuConfig cfg = smallVolta(1);
    KernelDesc k = makeFmaMicro(FmaLayout::Baseline, 16, 1);
    k.regsPerThread = 256;
    k.warpsPerBlock = 16;
    k.shapeOfWarp.assign(16, 0);
    EXPECT_THROW_WITH(simulate(cfg, k), WorkloadError, "reg bytes");
}

} // namespace
} // namespace scsim
