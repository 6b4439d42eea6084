/** @file Cross-cutting property sweeps (TEST_P): invariants that must
 *  hold across design points, workloads and seeds. */

#include <ostream>
#include <set>

#include <gtest/gtest.h>

#include "gpu/gpu_sim.hh"
#include "workloads/microbench.hh"
#include "workloads/suite.hh"

namespace scsim {
namespace {

GpuConfig
volta(int sms)
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = sms;
    return cfg;
}

/**
 * Property: across every design point, a run completes exactly the
 * launched work and the accounting identities hold.
 */
struct DesignPoint
{
    const char *name;
    SchedulerPolicy sched;
    AssignPolicy assign;
    int subCores;
    bool bankStealing;
    bool migration;
};

// Print a point by its name: gtest's default byte dump would embed the
// address of `name`, which changes from run to run under ASLR and so
// gives the registered test a different name on every discovery.
void
PrintTo(const DesignPoint &p, std::ostream *os)
{
    *os << p.name;
}

class DesignInvariants : public ::testing::TestWithParam<DesignPoint>
{};

GpuConfig
configOf(const DesignPoint &p)
{
    GpuConfig cfg = volta(2);
    cfg.scheduler = p.sched;
    cfg.assign = p.assign;
    cfg.subCores = p.subCores;
    cfg.bankStealing = p.bankStealing;
    cfg.idealWarpMigration = p.migration && p.subCores > 1;
    return cfg;
}

TEST_P(DesignInvariants, AccountingHolds)
{
    DesignPoint p = GetParam();
    GpuConfig cfg = configOf(p);

    Application app = buildApp(findApp("rod-kmeans", 0.08));
    SimStats s = simulate(cfg, app);

    EXPECT_EQ(s.instructions, app.totalWarpInstructions());
    std::uint64_t warps = 0, blocks = 0;
    for (const auto &k : app.kernels) {
        blocks += static_cast<std::uint64_t>(k.numBlocks);
        warps += static_cast<std::uint64_t>(k.numBlocks)
            * static_cast<std::uint64_t>(k.warpsPerBlock);
    }
    EXPECT_EQ(s.blocksCompleted, blocks);
    EXPECT_EQ(s.warpsCompleted, warps);
    EXPECT_EQ(s.issueSlotsUsed, s.instructions);
    EXPECT_GT(s.cycles, 0u);
    // Every issued register write eventually retires: reads never
    // exceed 3 per instruction, writes never exceed 1.
    EXPECT_LE(s.rfReads, s.instructions * 3 * kWarpSize);
    EXPECT_LE(s.rfWrites, s.instructions * kWarpSize);
}

/**
 * Property: with one issue slot per scheduler, every scheduler-cycle
 * the issue loop runs (idle or not, awake or asleep) either issues or
 * records exactly one stall reason.  Bank stealing may place one more
 * instruction per scheduler-cycle beside the slot, so there the sum
 * exceeds the cycles by the stolen issues, at most one each.
 */
TEST_P(DesignInvariants, StallCountersCoverEverySchedulerCycle)
{
    DesignPoint p = GetParam();
    GpuConfig cfg = configOf(p);
    ASSERT_EQ(cfg.issueWidthPerScheduler, 1);

    for (const char *name : { "rod-kmeans", "tpcU-q8" }) {
        SimStats s = simulate(cfg, buildApp(findApp(name, 0.08)));
        std::uint64_t accounted = s.issueSlotsUsed + s.stallNoCu
            + s.stallScoreboard + s.stallNoWarp;
        EXPECT_GT(s.stallScoreboard + s.stallNoWarp, 0u) << name;
        if (p.bankStealing) {
            EXPECT_GE(accounted, s.schedCycles) << name;
            EXPECT_LE(accounted, 2 * s.schedCycles) << name;
        } else {
            EXPECT_EQ(accounted, s.schedCycles) << name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, DesignInvariants,
    ::testing::Values(
        DesignPoint{ "baseline", SchedulerPolicy::GTO,
                     AssignPolicy::RoundRobin, 4, false, false },
        DesignPoint{ "lrr", SchedulerPolicy::LRR,
                     AssignPolicy::RoundRobin, 4, false, false },
        DesignPoint{ "rba", SchedulerPolicy::RBA,
                     AssignPolicy::RoundRobin, 4, false, false },
        DesignPoint{ "srr", SchedulerPolicy::GTO, AssignPolicy::SRR,
                     4, false, false },
        DesignPoint{ "shuffle", SchedulerPolicy::GTO,
                     AssignPolicy::Shuffle, 4, false, false },
        DesignPoint{ "hash-shuffle", SchedulerPolicy::GTO,
                     AssignPolicy::HashShuffle, 4, false, false },
        DesignPoint{ "fc", SchedulerPolicy::GTO,
                     AssignPolicy::RoundRobin, 1, false, false },
        DesignPoint{ "fc-rba", SchedulerPolicy::RBA,
                     AssignPolicy::RoundRobin, 1, false, false },
        DesignPoint{ "steal", SchedulerPolicy::GTO,
                     AssignPolicy::RoundRobin, 4, true, false },
        DesignPoint{ "migrate", SchedulerPolicy::GTO,
                     AssignPolicy::RoundRobin, 4, false, true }),
    [](const ::testing::TestParamInfo<DesignPoint> &info) {
        std::string n = info.param.name;
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

/** Property: the imbalance penalty grows with the imbalance factor
 *  under RR and stays bounded under SRR. */
class ImbalanceMonotonicity : public ::testing::TestWithParam<double>
{};

TEST_P(ImbalanceMonotonicity, RrDegradesSrrHolds)
{
    double factor = GetParam();
    GpuConfig rr = volta(1);
    GpuConfig srr = rr;
    srr.assign = AssignPolicy::SRR;

    KernelDesc lo = makeImbalanceMicro(factor, 128, 6);
    KernelDesc hi = makeImbalanceMicro(factor * 2, 128, 6);
    double work = (8 * factor + 24) / 32.0;
    double workHi = (8 * factor * 2 + 24) / 32.0;

    double rrLo = static_cast<double>(simulate(rr, lo).cycles) / work;
    double rrHi = static_cast<double>(simulate(rr, hi).cycles) / workHi;
    EXPECT_GT(rrHi, rrLo * 1.02);   // per-unit-work time keeps growing

    double srrLo = static_cast<double>(simulate(srr, lo).cycles) / work;
    double srrHi = static_cast<double>(simulate(srr, hi).cycles)
        / workHi;
    EXPECT_LT(srrHi, srrLo * 1.35);  // SRR stays near-flat
}

INSTANTIATE_TEST_SUITE_P(Factors, ImbalanceMonotonicity,
                         ::testing::Values(2.0, 4.0, 8.0));

/** Property: seeds only matter for stochastic policies. */
class SeedSensitivity
    : public ::testing::TestWithParam<AssignPolicy>
{};

TEST_P(SeedSensitivity, DeterministicPoliciesIgnoreSeed)
{
    AssignPolicy p = GetParam();
    KernelDesc k = makeImbalanceMicro(6.0, 128, 6);
    std::set<Cycle> outcomes;
    for (std::uint64_t seed : { 1ull, 7777ull, 123456ull }) {
        GpuConfig cfg = volta(1);
        cfg.assign = p;
        cfg.seed = seed;
        outcomes.insert(simulate(cfg, k).cycles);
    }
    bool stochastic = p == AssignPolicy::Shuffle
        || p == AssignPolicy::HashShuffle;
    if (stochastic)
        EXPECT_GT(outcomes.size(), 1u);   // some seed must matter
    else
        EXPECT_EQ(outcomes.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Policies, SeedSensitivity,
                         ::testing::Values(AssignPolicy::RoundRobin,
                                           AssignPolicy::SRR,
                                           AssignPolicy::HashSRR,
                                           AssignPolicy::Shuffle,
                                           AssignPolicy::HashShuffle));

/** Property: adding collector units never hurts (on conflict micros,
 *  modulo a small timing-resonance tolerance). */
class CuMonotonicity : public ::testing::TestWithParam<int>
{};

TEST_P(CuMonotonicity, MoreCusNeverMuchWorse)
{
    int variant = GetParam();
    KernelDesc k = makeConflictMicro(variant, 512, 8);
    GpuConfig two = volta(1);
    GpuConfig eight = two;
    eight.collectorUnitsPerSm = 8 * eight.subCores;
    double ratio = static_cast<double>(simulate(eight, k).cycles)
        / static_cast<double>(simulate(two, k).cycles);
    EXPECT_LT(ratio, 1.12) << "variant " << variant;
}

INSTANTIATE_TEST_SUITE_P(Variants, CuMonotonicity,
                         ::testing::Range(0, kNumConflictMicros));

} // namespace
} // namespace scsim
