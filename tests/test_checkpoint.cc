/**
 * @file
 * Checkpoint/restore tests (ctest label `checkpoint`).
 *
 * Covers the snapshot wire record and its corruption handling, the
 * SimEngine checkpoint observer, the save/resume determinism contract
 * (a mid-run snapshot resumed on a fresh simulator must reproduce the
 * golden fingerprint of an uninterrupted run, for every design point),
 * resume of state that matrix never reaches (byte-identical later
 * snapshots), rejection of snapshot values too wide for their field
 * and of index fields outside the machine (one case per class), the
 * `run-job` cold-start fallback for every damage class (truncated
 * frame, flipped checksum byte, bumped version, a v1 text snapshot
 * from an older build, foreign job key, unusable payload), the
 * injected-ENOSPC degrade paths for snapshot and journal writes, and
 * the `version` / `checkpoint --file [--verify]` CLI surface.  Fields
 * are located in the binary payload through the schema-less decoder,
 * never by byte patterns.
 *
 * Like `isolation`, the subprocess tests drive the real CLI binary
 * (SCSIM_CLI_PATH); the golden matrix reuses the engine goldens
 * (SCSIM_ENGINE_GOLDENS) and pins the mid-run snapshot bytes against
 * the snapshot goldens (SCSIM_SNAPSHOT_GOLDENS).
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_inject.hh"
#include "common/rng.hh"
#include "common/sim_error.hh"
#include "common/state_io.hh"
#include "runner/design.hh"
#include "runner/job_key.hh"
#include "runner/journal.hh"
#include "runner/subprocess.hh"
#include "runner/wire.hh"
#include "sim/engine.hh"
#include "stats/stats_io.hh"
#include "workloads/microbench.hh"
#include "workloads/suite.hh"

namespace scsim {
namespace {

using runner::decodeJobResult;
using runner::decodeSnapshot;
using runner::JobResult;
using runner::JobStatus;
using runner::jobKey;
using runner::JournalWriter;
using runner::keyToHex;
using runner::readJournal;
using runner::runSubprocess;
using runner::serializeJob;
using runner::serializeSnapshot;
using runner::SimJob;
using runner::SubprocessResult;
using runner::WireDecode;
using sim::SimEngine;

// ---- shared helpers (mirrors test_isolation / test_engine) ------------

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

SimJob
tinyJob(const std::string &tag = "ckpt")
{
    SimJob job;
    job.tag = tag;
    job.cfg = tinyCfg();
    job.app = tinyApp(tag + "-app");
    return job;
}

std::string
freshDir(const std::string &leaf)
{
    std::string dir = testing::TempDir() + "scsim_ckpt_" + leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spew(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

KernelDesc
microWorkload(const std::string &name)
{
    if (name == "fma-unbalanced")
        return makeFmaMicro(FmaLayout::Unbalanced, 512, 8);
    if (name == "imbalance:4")
        return makeImbalanceMicro(4.0, 256, 8);
    if (name == "conflict:0")
        return makeConflictMicro(0, 512, 4);
    ADD_FAILURE() << "unknown micro workload " << name;
    return {};
}

GpuConfig
goldenBase()
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = 2;
    return cfg;
}

/** design name -> workload name -> fingerprint (hex) from @p path. */
std::map<std::string, std::map<std::string, std::string>>
loadGoldens(const char *path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing goldens: " << path;
    std::map<std::string, std::map<std::string, std::string>> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string design, workload, hex;
        std::getline(ls, design, '\t');
        std::getline(ls, workload, '\t');
        std::getline(ls, hex, '\t');
        out[design][workload] = hex;
    }
    return out;
}

// ---- hand-editing a binary state payload --------------------------------
// Fields are found through the schema-less walk; the varint encoder is
// written out here, so these tests also cross-check the encoding.

/** Minimal-length LEB128 encoding of @p v. */
std::string
encodeVarint(std::uint64_t v)
{
    std::string out;
    while (v >= 0x80) {
        out += static_cast<char>(v | 0x80);
        v >>= 7;
    }
    out += static_cast<char>(v);
    return out;
}

/** Zigzag form of a signed value, as `i` fields store it. */
std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1)
           ^ static_cast<std::uint64_t>(v >> 63);
}

/** The first field named @p key for which @p pred holds, if any. */
std::optional<StateReader::Field>
findField(const std::string &payload, std::string_view key,
          const std::function<bool(const StateReader::Field &)> &pred =
              nullptr)
{
    StateReader r(payload);
    StateReader::Field f;
    while (r.next(f))
        if (f.key == key && (!pred || pred(f)))
            return f;
    return std::nullopt;
}

/** @p payload with integer field @p f's value replaced by @p v. */
std::string
patchInteger(std::string payload, const StateReader::Field &f,
             std::int64_t v)
{
    std::uint64_t raw = f.type == StateType::I64
                            ? zigzag(v)
                            : static_cast<std::uint64_t>(v);
    return payload.replace(f.at, f.end - f.at, encodeVarint(raw));
}

/** The Application wrapping SimEngine::run(KernelDesc) performs. */
Application
wrapKernel(const KernelDesc &kernel)
{
    Application app;
    app.name = kernel.name;
    app.kernels.push_back(kernel);
    return app;
}

class CheckpointTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        FaultInjector::instance().reset();
        unsetenv("SCSIM_FAULT_CRASH");
        unsetenv("SCSIM_FAULT_CRASH_ONCE");
        unsetenv("SCSIM_FAULT_SNAPSHOT_WRITE");
    }
    void TearDown() override
    {
        FaultInjector::instance().reset();
        unsetenv("SCSIM_FAULT_SNAPSHOT_WRITE");
    }
};

// ---- snapshot wire record ---------------------------------------------

TEST_F(CheckpointTest, SnapshotRecordRoundTrips)
{
    const std::string state = "run.concurrent b 0\nrun.now u 1234\n";
    std::string frame = serializeSnapshot(0xdeadbeefcafe1234ull, state);

    std::uint64_t key = 0;
    std::string got;
    EXPECT_EQ(decodeSnapshot(frame, key, got), WireDecode::Ok);
    EXPECT_EQ(key, 0xdeadbeefcafe1234ull);
    EXPECT_EQ(got, state);
}

TEST_F(CheckpointTest, TruncatedSnapshotFrameIsCorrupt)
{
    std::string frame = serializeSnapshot(7, "some state lines\n");
    frame.resize(frame.size() - 5);

    std::uint64_t key = 99;
    std::string state = "untouched";
    EXPECT_EQ(decodeSnapshot(frame, key, state), WireDecode::Corrupt);
    EXPECT_EQ(key, 99u) << "outputs must be untouched on failure";
    EXPECT_EQ(state, "untouched");
}

TEST_F(CheckpointTest, FlippedSnapshotByteIsCorrupt)
{
    std::string frame = serializeSnapshot(7, "some state lines\n");
    frame[frame.size() - 3] ^= 0x01;  // inside the payload

    std::uint64_t key = 0;
    std::string state;
    EXPECT_EQ(decodeSnapshot(frame, key, state), WireDecode::Corrupt);
}

/** @p frame with its ` v<kSnapshotVersion> ` header token set to @p v. */
std::string
withSnapshotVersion(std::string frame, std::uint32_t v)
{
    const std::string cur =
        " v" + std::to_string(runner::kSnapshotVersion) + " ";
    auto pos = frame.find(cur);
    EXPECT_NE(pos, std::string::npos) << "no" << cur << "in the header";
    if (pos != std::string::npos)
        frame.replace(pos, cur.size(), " v" + std::to_string(v) + " ");
    return frame;
}

TEST_F(CheckpointTest, BumpedSnapshotVersionIsVersionSkew)
{
    std::string frame = withSnapshotVersion(
        serializeSnapshot(7, "some state lines\n"),
        runner::kSnapshotVersion + 1);

    std::uint64_t key = 0;
    std::string state;
    EXPECT_EQ(decodeSnapshot(frame, key, state),
              WireDecode::VersionSkew);
}

// ---- SimEngine checkpoint observer ------------------------------------

TEST_F(CheckpointTest, CheckpointObserverFiresAndDoesNotPerturbTheRun)
{
    // Reference: no checkpointing at all.
    SimStats ref = SimEngine(goldenBase()).run(microWorkload("conflict:0"));

    SimEngine engine(goldenBase());
    std::vector<std::pair<std::string, Cycle>> snaps;
    sim::EngineObserver obs;
    obs.onCheckpoint = [&](const std::string &payload, Cycle now) {
        snaps.emplace_back(payload, now);
    };
    engine.addObserver(std::move(obs));
    engine.setCheckpointInterval(200);

    SimStats s = engine.run(microWorkload("conflict:0"));
    ASSERT_FALSE(snaps.empty()) << "no checkpoint fired";
    EXPECT_EQ(sim::statsFingerprintHex(s), sim::statsFingerprintHex(ref))
        << "observing checkpoints must be invisible to the simulation";
    for (std::size_t i = 1; i < snaps.size(); ++i)
        EXPECT_GT(snaps[i].second, snaps[i - 1].second);
}

TEST_F(CheckpointTest, ResumeRejectsDamagedPayload)
{
    SimEngine engine(goldenBase());
    Application app = wrapKernel(microWorkload("conflict:0"));
    EXPECT_THROW(engine.sim().resume(app, "not a state payload\n"),
                 CacheError);
}

// ---- golden determinism matrix: snapshot + resume == uninterrupted ----

TEST_F(CheckpointTest, ResumedRunMatchesGoldenFingerprintsEverywhere)
{
    auto goldens = loadGoldens(SCSIM_ENGINE_GOLDENS);
    auto snapGoldens = loadGoldens(SCSIM_SNAPSHOT_GOLDENS);
    const char *workloads[] = { "fma-unbalanced", "imbalance:4",
                                "conflict:0" };
    GpuConfig base = goldenBase();
    for (runner::Design d : runner::allDesigns()) {
        std::string name = runner::toString(d);
        ASSERT_TRUE(goldens.count(name)) << "no goldens for " << name;
        for (const char *w : workloads) {
            KernelDesc kernel = microWorkload(w);

            // Uninterrupted run, capturing every mid-run snapshot.
            SimEngine full(runner::designConfig(base, name));
            std::vector<std::string> snaps;
            sim::EngineObserver obs;
            obs.onCheckpoint = [&](const std::string &payload, Cycle) {
                snaps.push_back(payload);
            };
            full.addObserver(std::move(obs));
            full.setCheckpointInterval(200);
            SimStats ref = full.run(kernel);
            EXPECT_EQ(sim::statsFingerprintHex(ref), goldens[name][w])
                << "design '" << name << "' workload '" << w
                << "' diverged from seed behavior";
            ASSERT_FALSE(snaps.empty())
                << "design '" << name << "' workload '" << w
                << "' finished before the first checkpoint";

            // The snapshot encoding itself is pinned: the FNV-1a of the
            // mid-run payload must match the committed golden.
            const std::string &mid = snaps[snaps.size() / 2];
            EXPECT_EQ(keyToHex(hashString(mid)), snapGoldens[name][w])
                << "design '" << name << "' workload '" << w
                << "' changed its snapshot bytes";

            // Resume a fresh simulator from a mid-run snapshot: the
            // rest of the run must land on the same fingerprint.
            SimEngine resumed(runner::designConfig(base, name));
            SimStats got = resumed.sim().resume(wrapKernel(kernel), mid);
            EXPECT_EQ(sim::statsFingerprintHex(got), goldens[name][w])
                << "design '" << name << "' workload '" << w
                << "' resumed to a different result";
        }
    }
}

// ---- resume coverage beyond the golden matrix ---------------------------

/** Mid-run snapshots of one run, keyed by the cycle they were taken at. */
using SnapshotsByCycle = std::map<Cycle, std::string>;

/** Snapshot @p engine every @p every cycles into @p snaps. */
void
captureSnapshots(SimEngine &engine, Cycle every, SnapshotsByCycle &snaps)
{
    sim::EngineObserver obs;
    obs.onCheckpoint = [&snaps](const std::string &payload, Cycle now) {
        snaps.emplace(now, payload);
    };
    engine.addObserver(std::move(obs));
    engine.setCheckpointInterval(every);
}

struct ResumeCase
{
    const char *what;     //!< the state the golden matrix never reaches
    GpuConfig cfg;
    const char *app;      //!< multi-kernel suite app (L1/L2/DRAM path)
    bool concurrent;
    Cycle every;          //!< checkpoint cadence
};

TEST_F(CheckpointTest, ResumeMatchesUninterruptedRunOffTheGoldenMatrix)
{
    GpuConfig base = goldenBase();
    GpuConfig lrr = base;
    lrr.scheduler = SchedulerPolicy::LRR;
    GpuConfig hashSrr = base;
    hashSrr.assign = AssignPolicy::HashSRR;
    GpuConfig hashShuffle = base;
    hashShuffle.assign = AssignPolicy::HashShuffle;
    GpuConfig kepler = GpuConfig::keplerLike();   // sharedWarpPool
    kepler.numSms = 2;

    const ResumeCase cases[] = {
        { "LRR scheduler", lrr, "tpcU-q8", false, 20000 },
        { "HashSRR table", hashSrr, "tpcC-q6", false, 20000 },
        { "HashShuffle table", hashShuffle, "pb-histo", false, 20000 },
        { "shared warp pool", kepler, "pb-sgemm", false, 2000 },
        { "concurrent kernels", base, "tpcU-q8", true, 20000 },
    };
    for (const ResumeCase &c : cases) {
        SCOPED_TRACE(std::string(c.what) + " on " + c.app);
        AppSpec spec = findApp(c.app, /*scale=*/0.25);

        SnapshotsByCycle full;
        SimEngine fullEngine(c.cfg);
        captureSnapshots(fullEngine, c.every, full);
        SimStats ref = fullEngine.runApp(spec, 0, c.concurrent);
        ASSERT_GE(full.size(), 3u) << "too few snapshots to resume from";
        auto mid = std::next(full.begin(),
                             static_cast<std::ptrdiff_t>(full.size() / 2));

        // Resume from the mid snapshot: every later snapshot must be
        // byte-identical to the uninterrupted run's at the same cycle,
        // and the run must land on the same fingerprint.
        SnapshotsByCycle resumed;
        SimEngine resumedEngine(c.cfg);
        captureSnapshots(resumedEngine, c.every, resumed);
        SimStats got = resumedEngine.resumeApp(spec, 0, mid->second);
        EXPECT_EQ(sim::statsFingerprintHex(got),
                  sim::statsFingerprintHex(ref));
        EXPECT_FALSE(resumed.empty()) << "resumed run never snapshotted";
        for (const auto &[cycle, payload] : resumed) {
            auto it = full.find(cycle);
            ASSERT_NE(it, full.end())
                << "resumed run snapshotted at cycle " << cycle
                << ", the uninterrupted run did not";
            EXPECT_TRUE(it->second == payload)
                << "snapshot at cycle " << cycle << " differs";
        }
    }
}

TEST_F(CheckpointTest, ResumeRejectsValueTooWideForItsField)
{
    Application app = wrapKernel(microWorkload("conflict:0"));
    SnapshotsByCycle snaps;
    SimEngine full(goldenBase());
    captureSnapshots(full, 200, snaps);
    full.run(app);
    ASSERT_FALSE(snaps.empty());
    std::string payload = snaps.begin()->second;

    // warp.pc is 32 bits wide: 2^32 must be rejected, not truncated.
    auto pc = findField(payload, "warp.pc");
    ASSERT_TRUE(pc.has_value());
    payload = patchInteger(payload, *pc, std::int64_t(1) << 32);

    SimEngine resumed(goldenBase());
    try {
        resumed.sim().resume(app, payload);
        ADD_FAILURE() << "out-of-range warp.pc was accepted";
    } catch (const CacheError &e) {
        EXPECT_NE(std::string(e.what()).find("warp.pc"),
                  std::string::npos)
            << e.what();
    }
}

// ---- index fields are checked against the machine they index ----------

/** One index field per stateful class, and the first index it lacks. */
struct IndexCase
{
    const char *owner;        //!< class whose schema holds the field
    const char *key;
    std::int64_t bad;
};

void
PrintTo(const IndexCase &c, std::ostream *os)
{
    *os << c.owner << " " << c.key;
}

/** Shuffle assignment, so assign.perm is in the snapshot. */
GpuConfig
indexCfg()
{
    GpuConfig cfg = goldenBase();
    cfg.assign = AssignPolicy::Shuffle;
    return cfg;
}

/** A short app with memory traffic and register-bank contention. */
AppSpec
indexApp()
{
    return findApp("tpcU-q8", 0.05);
}

/** Mid-run snapshots: warps, events, bank queues, busy CUs, caches. */
const std::vector<std::string> &
indexSnapshots()
{
    static const std::vector<std::string> snaps = [] {
        std::vector<std::string> out;
        SimEngine engine(indexCfg());
        sim::EngineObserver obs;
        obs.onCheckpoint = [&](const std::string &payload, Cycle) {
            out.push_back(payload);
        };
        engine.addObserver(std::move(obs));
        engine.setCheckpointInterval(500);
        engine.runApp(indexApp(), 0, false);
        return out;
    }();
    return snaps;
}

class SnapshotIndexTest : public ::testing::TestWithParam<IndexCase>
{
};

TEST_P(SnapshotIndexTest, ResumeRejectsIndexOutsideTheMachine)
{
    const IndexCase &c = GetParam();
    // A field that holds an index now (a free CU's warp is kNoWarp).
    std::string payload;
    std::optional<StateReader::Field> field;
    for (const std::string &snap : indexSnapshots()) {
        field = findField(snap, c.key,
                                [](const StateReader::Field &f) {
                                    return f.type != StateType::I64
                                           || f.i >= 0;
                                });
        if (field) {
            payload = patchInteger(snap, *field, c.bad);
            break;
        }
    }
    ASSERT_TRUE(field.has_value()) << "no snapshot holds " << c.key;

    SimEngine resumed(indexCfg());
    try {
        resumed.resumeApp(indexApp(), 0, payload);
        ADD_FAILURE() << c.key << " = " << c.bad << " was accepted";
    } catch (const CacheError &e) {
        EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos)
            << e.what();
    }
}

// Each bad value is the first index past the end (volta, 2 SMs).
INSTANTIATE_TEST_SUITE_P(
    Classes, SnapshotIndexTest,
    ::testing::Values(
        IndexCase{ "SmCore", "ev.warp", indexCfg().maxWarpsPerSm },
        IndexCase{ "SmCore_freeSlot", "sm.freeSlot",
                   indexCfg().maxWarpsPerSm },
        IndexCase{ "Scoreboard_register", "ev.reg", 256 },
        IndexCase{ "IssueCluster", "ic.slot", indexCfg().maxWarpsPerSm },
        IndexCase{ "RegFileArbiter", "rf.read.cu",
                   indexCfg().cusPerCluster() },
        IndexCase{ "RegFileArbiter_write", "rf.write.warp",
                   indexCfg().maxWarpsPerSm },
        IndexCase{ "OperandCollector", "cu.warp",
                   indexCfg().maxWarpsPerSm },
        IndexCase{ "ShuffleAssigner", "assign.perm", indexCfg().subCores },
        IndexCase{ "Cache", "line.gap", std::int64_t(1) << 40 }),
    [](const ::testing::TestParamInfo<IndexCase> &info) {
        return std::string(info.param.owner);
    });

// ---- run-job cold-start fallback for every damage class ---------------

/** Run @p job through `run-job` with checkpointing against @p dir. */
SubprocessResult
runJobCli(const SimJob &job, const std::string &dir)
{
    return runSubprocess({ SCSIM_CLI_PATH, "run-job",
                           "--checkpoint-cycles", "200", "--state-dir",
                           dir },
                         serializeJob(job), 120.0);
}

/** In-process reference payload for @p job. */
std::string
referencePayload(const SimJob &job)
{
    SimEngine engine(job.cfg);
    return serializeStatsPayload(
        engine.runApp(job.app, job.salt, job.concurrent));
}

/** Assert the job succeeded and matched the in-process reference. */
void
expectCleanResult(const SubprocessResult &sub, const SimJob &job)
{
    ASSERT_TRUE(sub.exitedCleanly())
        << "exit " << sub.exitCode << " signal " << sub.termSignal
        << "\n" << sub.stderrTail;
    JobResult r;
    ASSERT_EQ(decodeJobResult(sub.stdoutText, r), WireDecode::Ok);
    EXPECT_EQ(r.status, JobStatus::Ok) << r.error;
    EXPECT_EQ(serializeStatsPayload(r.stats), referencePayload(job));
}

/** Seed a damaged snapshot, run the job, expect quarantine + success. */
void
expectColdStartRecovery(const std::string &leaf,
                        const std::string &snapshotBytes)
{
    SimJob job = tinyJob();
    std::string dir = freshDir(leaf);
    std::string snap = dir + "/" + keyToHex(jobKey(job)) + ".snap";
    spew(snap, snapshotBytes);

    SubprocessResult sub = runJobCli(job, dir);
    expectCleanResult(sub, job);
    EXPECT_TRUE(std::filesystem::exists(snap + ".corrupt"))
        << "damaged snapshot was not quarantined\n" << sub.stderrTail;
    EXPECT_FALSE(std::filesystem::exists(snap))
        << "snapshot must be unlinked once the job has a result";
}

TEST_F(CheckpointTest, RunJobStartsColdOnTruncatedSnapshot)
{
    std::string frame =
        serializeSnapshot(jobKey(tinyJob()), "run.concurrent b 0\n");
    frame.resize(frame.size() / 2);
    expectColdStartRecovery("truncated", frame);
}

TEST_F(CheckpointTest, RunJobStartsColdOnFlippedChecksumByte)
{
    std::string frame =
        serializeSnapshot(jobKey(tinyJob()), "run.concurrent b 0\n");
    frame[frame.size() - 2] ^= 0x01;
    expectColdStartRecovery("flipped", frame);
}

TEST_F(CheckpointTest, RunJobStartsColdOnVersionSkewedSnapshot)
{
    std::string frame = withSnapshotVersion(
        serializeSnapshot(jobKey(tinyJob()), "run.concurrent b 0\n"),
        runner::kSnapshotVersion + 7);
    expectColdStartRecovery("skewed", frame);
}

/** Mid-run state payloads of @p job, every @p every cycles. */
std::vector<std::string>
jobSnapshots(const SimJob &job, Cycle every)
{
    std::vector<std::string> snaps;
    SimEngine engine(job.cfg);
    sim::EngineObserver obs;
    obs.onCheckpoint = [&](const std::string &payload, Cycle) {
        snaps.push_back(payload);
    };
    engine.addObserver(std::move(obs));
    engine.setCheckpointInterval(every);
    engine.runApp(job.app, job.salt, job.concurrent);
    return snaps;
}

TEST_F(CheckpointTest, RunJobStartsColdOnTextSnapshotFromAnOlderBuild)
{
    // What a v1 build left behind: the same fields as `key value`
    // text lines under a v1 frame.  This build must quarantine it and
    // still reach the uninterrupted result.
    SimJob job = tinyJob();
    std::vector<std::string> snaps = jobSnapshots(job, 50);
    ASSERT_FALSE(snaps.empty());
    std::string text = stateText(snaps[snaps.size() / 2]);
    ASSERT_EQ(text.compare(0, 17, "run.concurrent 0\n"), 0) << text;
    expectColdStartRecovery(
        "v1text",
        runner::frameRecord("scsim-snapshot", 1,
                            "key " + keyToHex(jobKey(job)) + "\n" + text));
}

TEST_F(CheckpointTest, RunJobStartsColdOnForeignJobSnapshot)
{
    expectColdStartRecovery(
        "foreign",
        serializeSnapshot(jobKey(tinyJob()) + 1, "run.concurrent b 0\n"));
}

TEST_F(CheckpointTest, RunJobStartsColdOnUnusableState)
{
    // Valid frame, right job — but a payload the simulator rejects.
    expectColdStartRecovery(
        "unusable",
        serializeSnapshot(jobKey(tinyJob()), "not a state payload\n"));
}

TEST_F(CheckpointTest, RunJobSucceedsWithoutAnySnapshot)
{
    SimJob job = tinyJob();
    std::string dir = freshDir("nosnap");
    SubprocessResult sub = runJobCli(job, dir);
    expectCleanResult(sub, job);
    EXPECT_FALSE(std::filesystem::exists(
        dir + "/" + keyToHex(jobKey(job)) + ".snap"));
}

// ---- injected-ENOSPC degrade paths ------------------------------------

TEST_F(CheckpointTest, SnapshotWriteFaultDegradesButJobSucceeds)
{
    // Workers inherit the environment: every snapshot write fails as
    // if the disk were full.  The job must still finish correctly.
    setenv("SCSIM_FAULT_SNAPSHOT_WRITE", "1:1000000", 1);
    SimJob job = tinyJob();
    std::string dir = freshDir("enospc");

    SubprocessResult sub = runJobCli(job, dir);
    expectCleanResult(sub, job);
    EXPECT_NE(sub.stderrTail.find("continuing without checkpoints"),
              std::string::npos)
        << "expected exactly one degrade warning\n" << sub.stderrTail;
}

TEST_F(CheckpointTest, SnapshotFaultEnvParserRejectsGarbage)
{
    FaultInjector &fi = FaultInjector::instance();
    EXPECT_FALSE(fi.armSnapshotWriteFromEnv(nullptr));
    EXPECT_FALSE(fi.armSnapshotWriteFromEnv(""));
    EXPECT_FALSE(fi.armSnapshotWriteFromEnv("zero"));
    EXPECT_FALSE(fi.armSnapshotWriteFromEnv("3:"));
    EXPECT_TRUE(fi.armSnapshotWriteFromEnv("2"));
    EXPECT_TRUE(fi.armSnapshotWriteFromEnv("2:5"));
}

TEST_F(CheckpointTest, JournalDegradesToNoOpOnDiskFull)
{
    std::string dir = freshDir("journal");
    std::string path = dir + "/sweep.journal";
    FaultInjector::instance().armJournalWriteFaults(1, 1u << 20);

    JobResult r;
    r.status = JobStatus::Ok;
    JournalWriter w(path, 0x1234, 3, /*fresh=*/true);
    EXPECT_FALSE(w.degraded());
    EXPECT_NO_THROW(w.append(0, "a", r));  // fails -> warn + latch
    EXPECT_TRUE(w.degraded());
    EXPECT_NO_THROW(w.append(1, "b", r));  // silent no-op now

    // Only the first append even reached the injector.
    EXPECT_EQ(FaultInjector::instance().journalWriteAttempts(), 1u);

    // On disk: the header survived, no records, still parsable.
    auto contents = readJournal(path);
    EXPECT_EQ(contents.specHash, 0x1234u);
    EXPECT_TRUE(contents.records.empty());
    EXPECT_EQ(contents.dropped, 0u);
}

TEST_F(CheckpointTest, JournalKeepsRecordsWrittenBeforeDiskFilled)
{
    std::string dir = freshDir("journal_tail");
    std::string path = dir + "/sweep.journal";
    FaultInjector::instance().armJournalWriteFaults(2, 1);

    JobResult r;
    r.status = JobStatus::Ok;
    JournalWriter w(path, 0x5678, 3, /*fresh=*/true);
    w.append(0, "a", r);   // durable
    w.append(1, "b", r);   // ENOSPC -> degrade
    w.append(2, "c", r);   // no-op
    EXPECT_TRUE(w.degraded());

    auto contents = readJournal(path);
    ASSERT_EQ(contents.records.size(), 1u);
    EXPECT_EQ(contents.records[0].tag, "a");
}

// ---- CLI surface -------------------------------------------------------

TEST_F(CheckpointTest, VersionPrintsSnapshotFormat)
{
    SubprocessResult sub =
        runSubprocess({ SCSIM_CLI_PATH, "version" }, "", 30.0);
    ASSERT_TRUE(sub.exitedCleanly());
    EXPECT_NE(sub.stdoutText.find(
                  "snapshot format: v"
                  + std::to_string(runner::kSnapshotVersion) + "\n"),
              std::string::npos)
        << sub.stdoutText;
}

TEST_F(CheckpointTest, CheckpointVerifyAcceptsGoodRejectsBad)
{
    std::string dir = freshDir("verify");
    std::vector<std::string> snaps = jobSnapshots(tinyJob(), 50);
    ASSERT_FALSE(snaps.empty());
    const std::string &state = snaps[snaps.size() / 2];
    std::string frame = serializeSnapshot(42, state);
    spew(dir + "/good.snap", frame);
    frame[frame.size() - 2] ^= 0x01;
    spew(dir + "/bad.snap", frame);
    // A valid frame around a cut-off field stream.
    spew(dir + "/truncated.snap",
         serializeSnapshot(42, state.substr(0, state.size() / 2)));

    auto cli = [&](const char *leaf, bool verify) {
        std::vector<std::string> argv = { SCSIM_CLI_PATH, "checkpoint",
                                          "--file", dir + "/" + leaf };
        if (verify)
            argv.push_back("--verify");
        return runSubprocess(argv, "", 30.0);
    };

    SubprocessResult ok = cli("good.snap", true);
    EXPECT_TRUE(ok.exitedCleanly()) << ok.stderrTail;

    for (const char *leaf : { "bad.snap", "truncated.snap" }) {
        SubprocessResult rej = cli(leaf, true);
        EXPECT_EQ(rej.termSignal, 0);
        EXPECT_NE(rej.exitCode, 0)
            << leaf << " must fail verification\n" << rej.stdoutText;
    }

    // Without --verify: the run cursor, decoded to `key value` text.
    SubprocessResult show = cli("good.snap", false);
    ASSERT_TRUE(show.exitedCleanly()) << show.stderrTail;
    std::istringstream text(stateText(state));
    std::string line;
    for (const char *key : { "run.concurrent ", "run.kernelIdx ",
                             "run.kernelStart ", "run.now ",
                             "run.lastProgress " }) {
        ASSERT_TRUE(std::getline(text, line));
        EXPECT_EQ(line.rfind(key, 0), 0u) << line;
        EXPECT_NE(show.stdoutText.find("  " + line + "\n"),
                  std::string::npos)
            << show.stdoutText;
    }
}

} // namespace
} // namespace scsim
