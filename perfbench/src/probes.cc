/**
 * @file
 * Per-layer probes for the traced run.
 *
 * Each probe times calls into one layer's public functions on the
 * workload's probe jobs, every call inside a Span, and reports the
 * median.  The simulated counts (issue, RF, cache behaviour) come from
 * the stats of the jobs the timed phase ran; they are deterministic and
 * say which property a hot-loop gain could depend on.
 */

#include <algorithm>

#include "bench.hh"
#include "runner/design.hh"
#include "runner/isolated_run.hh"
#include "runner/job_key.hh"
#include "runner/journal.hh"
#include "runner/result_cache.hh"
#include "runner/wire.hh"
#include "sim/engine.hh"
#include "trace.hh"
#include "workloads/suite.hh"
#include "workloads_internal.hh"

namespace perfbench {

namespace {

using scsim::SimStats;
using scsim::runner::JobResult;
using scsim::runner::SimJob;

/** Median milliseconds of @p reps calls of @p fn, each in a Span. */
template <class Fn>
double
timeMs(const char *span, int reps, Fn fn)
{
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        Span s(span);
        fn(i);
        ms.push_back(s.elapsedMs());
    }
    return median(ms);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

struct JobProbe
{
    double buildAppMs = 0, engineInitMs = 0, runMs = 0, nsPerInst = 0;
    double ckptSaveMs = 0, ckptPayloadBytes = 0, ckptSnapshots = 0;
    double resumeMs = 0, fingerprintUs = 0, jobKeyUs = 0, wireUs = 0;
    double frameMs = 0, decodeMs = 0, snapshotBytes = 0;
    double lookupUs = 0, storeMs = 0, appendMs = 0;
    double isolatedMs = 0;
};

JobProbe
probeJob(const PlannedJob &p, std::uint64_t id, const Options &opts,
         const std::string &dir, std::vector<CheckFailure> &failures,
         std::uint64_t &attempted)
{
    const SimJob &job = p.job;
    const int fastReps = opts.tiny ? 5 : 50;
    const int ioReps = opts.tiny ? 2 : 10;
    JobProbe jp;
    Span jobSpan("bench.probe_job", id);
    auto check = [&](bool ok, const std::string &what) {
        ++attempted;
        if (!ok)
            failures.push_back({ job.tag + ": " + what });
    };

    jp.buildAppMs = timeMs("workloads.buildApp", 3, [&](int) {
        scsim::Application app = scsim::buildApp(job.app, job.salt);
        (void)app;
    });
    jp.engineInitMs = timeMs("sim.SimEngine::SimEngine", 3, [&](int) {
        scsim::sim::SimEngine e(job.cfg);
    });

    SimStats stats;
    jp.runMs = timeMs("sim.SimEngine::runApp", 3, [&](int) {
        scsim::sim::SimEngine e(job.cfg);
        stats = e.runApp(job.app, job.salt, job.concurrent);
    });
    jp.nsPerInst = ratio(jp.runMs * 1e6,
                         static_cast<double>(stats.instructions));
    std::string fp;
    jp.fingerprintUs = 1e3 * timeMs("stats.statsFingerprintHex", fastReps,
                                    [&](int) {
                                        fp = scsim::sim::statsFingerprintHex(
                                            stats);
                                    });
    std::uint64_t key = 0;
    jp.jobKeyUs = 1e3 * timeMs("runner.jobKey", fastReps, [&](int) {
        key = scsim::runner::jobKey(job);
    });

    JobResult result;
    result.key = key;
    result.stats = stats;
    result.status = scsim::runner::JobStatus::Ok;
    result.wallMs = jp.runMs;
    jp.wireUs = 1e3 * timeMs("runner.wire_roundtrip", fastReps, [&](int) {
        SimJob j;
        JobResult r;
        bool ok = scsim::runner::parseJob(scsim::runner::serializeJob(job), j)
                == scsim::runner::WireDecode::Ok
            && scsim::runner::decodeJobResult(
                   scsim::runner::serializeJobResult(result), r)
                == scsim::runner::WireDecode::Ok;
        if (!ok)
            failures.push_back({ job.tag + ": wire round trip failed" });
    });

    // Checkpointing: the same run with snapshots every kCheckpointCycles;
    // the per-snapshot cost is the difference over the snapshot count.
    std::uint64_t snapshots = 0, payloadBytes = 0;
    std::string mid;
    SimStats ckStats;
    double ckMs = timeMs("sim.SimEngine::runApp+checkpoint", 1, [&](int) {
        scsim::sim::SimEngine e(job.cfg);
        scsim::sim::EngineObserver obs;
        obs.onCheckpoint = [&](const std::string &payload, scsim::Cycle now) {
            ++snapshots;
            payloadBytes += payload.size();
            if (mid.empty() && now >= stats.cycles / 2)
                mid = payload;
        };
        e.addObserver(obs);
        e.setCheckpointInterval(kCheckpointCycles);
        ckStats = e.runApp(job.app, job.salt, job.concurrent);
    });
    check(scsim::sim::statsFingerprintHex(ckStats) == fp,
          "checkpointing changed the stats fingerprint");
    jp.ckptSnapshots = static_cast<double>(snapshots);
    jp.ckptPayloadBytes = ratio(static_cast<double>(payloadBytes),
                                static_cast<double>(snapshots));
    jp.ckptSaveMs = ratio(ckMs - jp.runMs, static_cast<double>(snapshots));

    if (!mid.empty()) {
        SimStats resumed;
        jp.resumeMs = timeMs("sim.SimEngine::resumeApp", 1, [&](int) {
            scsim::sim::SimEngine e(job.cfg);
            resumed = e.resumeApp(job.app, job.salt, mid);
        });
        check(scsim::sim::statsFingerprintHex(resumed) == fp,
              "resume from the midpoint snapshot changed the fingerprint");

        std::string framed;
        jp.frameMs = timeMs("runner.serializeSnapshot", 3, [&](int) {
            framed = scsim::runner::serializeSnapshot(key, mid);
        });
        jp.snapshotBytes = static_cast<double>(framed.size());
        jp.decodeMs = timeMs("runner.decodeSnapshot", 3, [&](int) {
            std::uint64_t k = 0;
            std::string state;
            if (scsim::runner::decodeSnapshot(framed, k, state)
                    != scsim::runner::WireDecode::Ok
                || k != key)
                failures.push_back({ job.tag + ": snapshot decode failed" });
        });
    }

    {
        std::string cacheDir = dir + "/cache";
        scsim::runner::ResultCache writer(cacheDir);
        jp.storeMs = timeMs("runner.ResultCache::store", ioReps, [&](int i) {
            writer.store(key + static_cast<std::uint64_t>(i), stats);
        });
        scsim::runner::ResultCache reader(cacheDir);
        jp.lookupUs = 1e3 * timeMs("runner.ResultCache::lookup", ioReps,
                                   [&](int i) {
                                       SimStats s;
                                       if (!reader.lookup(
                                               key
                                                   + static_cast<
                                                       std::uint64_t>(i),
                                               s))
                                           failures.push_back(
                                               { job.tag
                                                 + ": cache lookup missed" });
                                   });
    }
    {
        scsim::runner::JournalWriter journal(
            dir + "/probe.journal", key, static_cast<std::uint64_t>(ioReps),
            true);
        jp.appendMs = timeMs("runner.JournalWriter::append", ioReps,
                             [&](int i) {
                                 journal.append(static_cast<std::size_t>(i),
                                                job.tag, result);
                             });
    }

    scsim::runner::IsolatedRunOptions io;
    io.selfExe = opts.cliPath;
    JobResult iso;
    iso.key = key;
    jp.isolatedMs = timeMs("runner.runJobIsolated", 3, [&](int) {
        scsim::runner::runJobIsolated(job, io, iso);
    });
    check(iso.ok() && scsim::sim::statsFingerprintHex(iso.stats) == fp,
          "isolated run disagrees with the in-process run");
    return jp;
}

/** A job of a few tens of milliseconds (pb-sgemm, scale 0.05, 2 SMs). */
SimJob
shortJob(scsim::runner::Design d)
{
    SimJob job;
    job.tag = std::string("short/") + scsim::runner::toString(d);
    job.cfg = scsim::GpuConfig::volta();
    job.cfg.numSms = 2;
    job.cfg = scsim::runner::applyDesign(job.cfg, d);
    job.app = scsim::findApp("pb-sgemm", 0.05);
    return job;
}

/**
 * Isolation cost: the same short job run in-process and through
 * runJobIsolated, in alternating pairs so host drift cancels; the
 * median of the pairwise differences.  A short job keeps the
 * simulation's own noise below the spawn cost being measured.
 */
double
probeSpawnOverhead(const Options &opts)
{
    SimJob job = shortJob(scsim::runner::Design::Baseline);
    scsim::runner::IsolatedRunOptions io;
    io.selfExe = opts.cliPath;
    std::vector<double> diffs;
    for (int i = 0; i < (opts.tiny ? 1 : 9); ++i) {
        double inProc = timeMs("sim.SimEngine::runApp", 1, [&](int) {
            scsim::sim::SimEngine e(job.cfg);
            e.runApp(job.app, job.salt, job.concurrent);
        });
        JobResult r;
        r.key = scsim::runner::jobKey(job);
        double isolated = timeMs("runner.runJobIsolated", 1, [&](int) {
            scsim::runner::runJobIsolated(job, io, r);
        });
        diffs.push_back(isolated - inProc);
    }
    return median(diffs);
}

/**
 * Farm entry points on a probe daemon with two workers: connect, a
 * detached submit of the probe jobs plus two short ones, the same sweep
 * attached from the second client (its jobs coalesce or hit the cache)
 * and once more from the first (every job a cache hit), and status.
 */
void
probeFarm(const Plan &plan, const Options &opts, LayerMetrics &m,
          bool farmCounts)
{
    const int reps = opts.tiny ? 2 : 5;
    FarmSession farm;
    farm.start(opts, "probe-farm", 2, 2);
    std::string sock = farm.dir.path() + "/farm.sock";
    m["farm.connect_ms"] = { timeMs("farm.FarmClient::connect", reps,
                                    [&](int) {
                                        auto c = scsim::farm::FarmClient::
                                            connectUnixSocket(sock);
                                        (void)c;
                                    }),
                             "ms" };
    scsim::runner::SweepSpec spec;
    for (const PlannedJob &p : plan.probeJobs)
        spec.jobs.push_back(p.job);
    for (auto d : { scsim::runner::Design::Baseline,
                    scsim::runner::Design::RBA })
        spec.jobs.push_back(shortJob(d));
    m["farm.accept_ms"] = {
        timeMs("farm.FarmClient::submitDetached", 1,
               [&](int) {
                   farm.clients[0]->submitDetached(spec, "probe-detached",
                                                   false);
               }),
        "ms"
    };
    scsim::farm::FarmStatus st = farm.clients[0]->status();
    std::uint64_t queueMax = st.queueDepth;
    {
        Span span("farm.FarmClient::submit");
        farm.clients[1]->submit(spec, "probe-attached", false);
    }
    {
        Span span("farm.FarmClient::submit");
        farm.clients[0]->submit(spec, "probe-cached", false);
    }
    m["farm.status_ms"] = { timeMs("farm.FarmClient::status", reps,
                                   [&](int) {
                                       st = farm.clients[0]->status();
                                   }),
                            "ms" };
    if (farmCounts) {
        // Every probe job is submitted three times.
        m["farm.dup_job_share"] = { 1.0, "share" };
        m["farm.coalesced"] = { static_cast<double>(st.jobsCoalesced),
                                "count" };
        m["farm.cache_hits"] = { static_cast<double>(st.cacheHits),
                                 "count" };
        m["farm.submits_rejected"] = {
            static_cast<double>(st.submitsRejected), "count"
        };
        m["farm.queue_depth_max"] = {
            static_cast<double>(std::max(queueMax, st.queueDepth)), "count"
        };
    }
}

} // namespace

LayerMetrics
probeLayers(const Plan &plan, const WorkloadRun &run, const Options &opts,
            std::vector<CheckFailure> &failures, std::uint64_t &attempted)
{
    LayerMetrics m;
    Span top("bench.probes");
    ScratchDir dir;
    dir.create(opts.workDir + "/probes");

    std::vector<JobProbe> probes;
    std::uint64_t id = 1000000;
    for (const PlannedJob &p : plan.probeJobs) {
        ScratchDir jobDir;
        jobDir.create(dir.path() + "/" + std::to_string(id));
        probes.push_back(probeJob(p, id++, opts, jobDir.path(), failures,
                                  attempted));
    }
    auto med = [&](double JobProbe::*field) {
        std::vector<double> v;
        for (const JobProbe &jp : probes)
            v.push_back(jp.*field);
        return median(v);
    };
    m["workloads.build_app_ms"] = { med(&JobProbe::buildAppMs), "ms" };
    m["sim.engine_init_ms"] = { med(&JobProbe::engineInitMs), "ms" };
    m["sim.run_ms"] = { med(&JobProbe::runMs), "ms" };
    m["sim.host_ns_per_inst"] = { med(&JobProbe::nsPerInst), "ns/inst" };
    m["sim.ckpt_save_ms"] = { med(&JobProbe::ckptSaveMs), "ms" };
    m["sim.ckpt_payload_bytes"] = { med(&JobProbe::ckptPayloadBytes),
                                    "bytes" };
    m["sim.ckpt_snapshots_per_job"] = { med(&JobProbe::ckptSnapshots),
                                        "snapshots/job" };
    m["sim.resume_ms"] = { med(&JobProbe::resumeMs), "ms" };
    m["stats.fingerprint_us"] = { med(&JobProbe::fingerprintUs), "us" };
    m["runner.job_key_us"] = { med(&JobProbe::jobKeyUs), "us" };
    m["runner.wire_roundtrip_us"] = { med(&JobProbe::wireUs), "us" };
    m["runner.snapshot_frame_ms"] = { med(&JobProbe::frameMs), "ms" };
    m["runner.snapshot_decode_ms"] = { med(&JobProbe::decodeMs), "ms" };
    m["runner.snapshot_bytes"] = { med(&JobProbe::snapshotBytes), "bytes" };
    m["runner.cache_lookup_us"] = { med(&JobProbe::lookupUs), "us" };
    m["runner.cache_store_ms"] = { med(&JobProbe::storeMs), "ms" };
    m["runner.journal_append_ms"] = { med(&JobProbe::appendMs), "ms" };
    m["runner.isolated_job_ms"] = { med(&JobProbe::isolatedMs), "ms" };
    m["runner.spawn_overhead_ms"] = { probeSpawnOverhead(opts), "ms" };
    m["runner.worker_busy_share"] = {
        ratio(run.busyMs, run.workers * run.timedWallS * 1e3), "share"
    };

    // Simulated counts over the distinct jobs of the timed phase.
    SimTotals t = simTotals(run);
    m["core.empty_issue_share"] = { 1.0 - ratio(t.issueSlots, t.schedCycles),
                                    "share" };
    m["core.rf_conflict_cycles_per_cycle"] = {
        ratio(t.rfConflictCycles, t.cycles), "cycles/cycle"
    };
    m["mem.l1_accesses_per_inst"] = { ratio(t.l1Accesses, t.insts),
                                      "accesses/inst" };
    m["mem.l2_accesses_per_inst"] = { ratio(t.l2Accesses, t.insts),
                                      "accesses/inst" };

    if (run.farmCounters) {
        m["farm.dup_job_share"] = { run.dupJobShare, "share" };
        m["farm.coalesced"] = { static_cast<double>(run.coalesced), "count" };
        m["farm.cache_hits"] = { static_cast<double>(run.cacheHits),
                                 "count" };
        m["farm.submits_rejected"] = {
            static_cast<double>(run.submitsRejected), "count"
        };
        m["farm.queue_depth_max"] = {
            static_cast<double>(run.queueDepthMax), "count"
        };
    }
    probeFarm(plan, opts, m, !run.farmCounters);
    return m;
}

} // namespace perfbench
