#include "runner/wire.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/text_escape.hh"
#include "runner/job_key.hh"
#include "stats/stats_io.hh"

namespace scsim::runner {

namespace {

constexpr const char *kStatsMagic = "scsim-result";
constexpr const char *kJobMagic = "scsim-job";
constexpr const char *kJobResMagic = "scsim-jobres";
constexpr const char *kSnapshotMagic = "scsim-snapshot";

void
putLine(std::string &out, const char *key, const std::string &value)
{
    out += key;
    out += ' ';
    out += value;
    out += '\n';
}

void
putU64(std::string &out, const char *key, std::uint64_t v)
{
    putLine(out, key, detail::format("%" PRIu64, v));
}

void
putInt(std::string &out, const char *key, int v)
{
    putLine(out, key, detail::format("%d", v));
}

void
putDouble(std::string &out, const char *key, double v)
{
    putLine(out, key, detail::format("%.17g", v));
}

/** Rest-of-line value after @p ls's current position, sans one
 *  leading separator space. */
std::string
restOfLine(std::istringstream &ls)
{
    std::string rest;
    std::getline(ls, rest);
    if (!rest.empty() && rest.front() == ' ')
        rest.erase(0, 1);
    return rest;
}

/** Every GpuConfig field as a `cfg <key> <value>` line.  The key set
 *  mirrors canonicalText(GpuConfig) and must stay in lockstep with
 *  it: both enumerate "everything that determines a result". */
void
putConfig(std::string &out, const GpuConfig &cfg)
{
    auto put = [&](const char *key, const std::string &v) {
        out += "cfg ";
        out += key;
        out += ' ';
        out += v;
        out += '\n';
    };
    auto putI = [&](const char *key, int v) {
        put(key, detail::format("%d", v));
    };
    auto putU = [&](const char *key, std::uint64_t v) {
        put(key, detail::format("%" PRIu64, v));
    };
    auto putB = [&](const char *key, bool v) { put(key, v ? "1" : "0"); };
    auto putD = [&](const char *key, double v) {
        put(key, detail::format("%.17g", v));
    };

    putI("numSms", cfg.numSms);
    putI("schedulersPerSm", cfg.schedulersPerSm);
    putI("subCores", cfg.subCores);
    putI("rfBanksPerSm", cfg.rfBanksPerSm);
    putI("collectorUnitsPerSm", cfg.collectorUnitsPerSm);
    putI("maxWarpsPerSm", cfg.maxWarpsPerSm);
    putI("maxWarpsPerScheduler", cfg.maxWarpsPerScheduler);
    putI("maxBlocksPerSm", cfg.maxBlocksPerSm);
    putU("regFileBytesPerSm", cfg.regFileBytesPerSm);
    putU("smemBytesPerSm", cfg.smemBytesPerSm);
    put("scheduler", toString(cfg.scheduler));
    put("assign", toString(cfg.assign));
    putI("hashTableEntries", cfg.hashTableEntries);
    putI("rbaScoreLatency", cfg.rbaScoreLatency);
    putB("bankStealing", cfg.bankStealing);
    putB("idealWarpMigration", cfg.idealWarpMigration);
    putI("issueWidthPerScheduler", cfg.issueWidthPerScheduler);
    putB("sharedWarpPool", cfg.sharedWarpPool);
    putI("spPipesPerScheduler", cfg.spPipesPerScheduler);
    putI("spInitiation", cfg.spInitiation);
    putI("spLatency", cfg.spLatency);
    putI("sfuPipesPerScheduler", cfg.sfuPipesPerScheduler);
    putI("sfuInitiation", cfg.sfuInitiation);
    putI("sfuLatency", cfg.sfuLatency);
    putI("tensorPipesPerScheduler", cfg.tensorPipesPerScheduler);
    putI("tensorInitiation", cfg.tensorInitiation);
    putI("tensorLatency", cfg.tensorLatency);
    putI("ldstPipesPerScheduler", cfg.ldstPipesPerScheduler);
    putI("ldstInitiation", cfg.ldstInitiation);
    putU("l1Bytes", cfg.l1Bytes);
    putI("l1Ways", cfg.l1Ways);
    putI("l1LineBytes", cfg.l1LineBytes);
    putI("l1HitLatency", cfg.l1HitLatency);
    putI("l1PortsPerSm", cfg.l1PortsPerSm);
    putU("l2Bytes", cfg.l2Bytes);
    putI("l2Ways", cfg.l2Ways);
    putI("l2HitLatency", cfg.l2HitLatency);
    putI("dramLatency", cfg.dramLatency);
    putD("l2SectorsPerCyclePerSm", cfg.l2SectorsPerCyclePerSm);
    putD("dramSectorsPerCyclePerSm", cfg.dramSectorsPerCyclePerSm);
    putI("smemLatency", cfg.smemLatency);
    putU("maxCycles", cfg.maxCycles);
    putU("hangWindowCycles", cfg.hangWindowCycles);
    putB("enableIdleSkip", cfg.enableIdleSkip);
    putU("seed", cfg.seed);
    putB("rfTraceEnable", cfg.rfTraceEnable);
    putU("rfTraceWindow", cfg.rfTraceWindow);
}

void
putApp(std::string &out, const AppSpec &app)
{
    putLine(out, "app.name", escapeLine(app.name));
    putLine(out, "app.suite", escapeLine(app.suite));
    putInt(out, "app.numBlocks", app.numBlocks);
    putInt(out, "app.warpsPerBlock", app.warpsPerBlock);
    putInt(out, "app.regsPerThread", app.regsPerThread);
    putU64(out, "app.smemBytesPerBlock", app.smemBytesPerBlock);
    putInt(out, "app.numKernels", app.numKernels);
    putInt(out, "app.baseInsts", app.baseInsts);
    putDouble(out, "app.fmaFrac", app.fmaFrac);
    putDouble(out, "app.sfuFrac", app.sfuFrac);
    putDouble(out, "app.tensorFrac", app.tensorFrac);
    putDouble(out, "app.memFrac", app.memFrac);
    putDouble(out, "app.storeFrac", app.storeFrac);
    putInt(out, "app.ilp", app.ilp);
    putInt(out, "app.regWindow", app.regWindow);
    putDouble(out, "app.conflictBias", app.conflictBias);
    putDouble(out, "app.hotRegFrac", app.hotRegFrac);
    {
        std::string pat = "app.divPattern";
        for (double d : app.divPattern)
            pat += detail::format(" %.17g", d);
        out += pat;
        out += '\n';
    }
    putDouble(out, "app.divNoise", app.divNoise);
    putDouble(out, "app.divKernelFrac", app.divKernelFrac);
    putInt(out, "app.sectors", app.sectors);
    putU64(out, "app.footprintMB", app.footprintMB);
    putLine(out, "app.randomMem", app.randomMem ? "1" : "0");
}

/** Parse one `app.<field> ...` line; Corrupt on a bad value. */
StatsLine
parseAppLine(const std::string &key, std::istringstream &ls, AppSpec &app)
{
    auto num = [&](auto &field) {
        return static_cast<bool>(ls >> field) ? StatsLine::Consumed
                                              : StatsLine::Corrupt;
    };
    if (key == "app.name") {
        app.name = unescapeLine(restOfLine(ls));
        return StatsLine::Consumed;
    }
    if (key == "app.suite") {
        app.suite = unescapeLine(restOfLine(ls));
        return StatsLine::Consumed;
    }
    if (key == "app.numBlocks") return num(app.numBlocks);
    if (key == "app.warpsPerBlock") return num(app.warpsPerBlock);
    if (key == "app.regsPerThread") return num(app.regsPerThread);
    if (key == "app.smemBytesPerBlock") return num(app.smemBytesPerBlock);
    if (key == "app.numKernels") return num(app.numKernels);
    if (key == "app.baseInsts") return num(app.baseInsts);
    if (key == "app.fmaFrac") return num(app.fmaFrac);
    if (key == "app.sfuFrac") return num(app.sfuFrac);
    if (key == "app.tensorFrac") return num(app.tensorFrac);
    if (key == "app.memFrac") return num(app.memFrac);
    if (key == "app.storeFrac") return num(app.storeFrac);
    if (key == "app.ilp") return num(app.ilp);
    if (key == "app.regWindow") return num(app.regWindow);
    if (key == "app.conflictBias") return num(app.conflictBias);
    if (key == "app.hotRegFrac") return num(app.hotRegFrac);
    if (key == "app.divPattern") {
        app.divPattern.clear();
        double d;
        while (ls >> d)
            app.divPattern.push_back(d);
        return StatsLine::Consumed;
    }
    if (key == "app.divNoise") return num(app.divNoise);
    if (key == "app.divKernelFrac") return num(app.divKernelFrac);
    if (key == "app.sectors") return num(app.sectors);
    if (key == "app.footprintMB") return num(app.footprintMB);
    if (key == "app.randomMem") {
        int b;
        if (!(ls >> b))
            return StatsLine::Corrupt;
        app.randomMem = b != 0;
        return StatsLine::Consumed;
    }
    return StatsLine::Unknown;
}

} // namespace

const char *
toString(JobStatus s)
{
    switch (s) {
      case JobStatus::Skipped: return "skipped";
      case JobStatus::Ok:      return "ok";
      case JobStatus::Cached:  return "cached";
      case JobStatus::Failed:  return "failed";
      case JobStatus::Hang:    return "hang";
      case JobStatus::Crashed: return "crashed";
    }
    return "?";
}

const char *
manifestStatus(JobStatus s)
{
    return s == JobStatus::Cached ? "ok" : toString(s);
}

bool
parseJobStatus(const std::string &name, JobStatus &out)
{
    for (JobStatus s : { JobStatus::Skipped, JobStatus::Ok,
                         JobStatus::Cached, JobStatus::Failed,
                         JobStatus::Hang, JobStatus::Crashed })
        if (name == toString(s)) {
            out = s;
            return true;
        }
    return false;
}

std::string
frameRecord(const char *magic, std::uint32_t version,
            const std::string &payload)
{
    char header[96];
    std::snprintf(header, sizeof header, "%s v%u fnv1a %s\n", magic,
                  version, keyToHex(hashString(payload)).c_str());
    return header + payload;
}

WireDecode
unframeRecord(const char *magic, std::uint32_t version,
              const std::string &text, std::string &payload)
{
    auto nl = text.find('\n');
    if (nl == std::string::npos)
        return WireDecode::Corrupt;
    std::istringstream hs(text.substr(0, nl));
    std::string gotMagic, gotVersion, algo, sum;
    if (!(hs >> gotMagic >> gotVersion) || gotMagic != magic)
        return WireDecode::Corrupt;
    if (gotVersion != detail::format("v%u", version))
        return WireDecode::VersionSkew;
    if (!(hs >> algo >> sum) || algo != "fnv1a")
        return WireDecode::Corrupt;

    std::string body = text.substr(nl + 1);
    if (keyToHex(hashString(body)) != sum)
        return WireDecode::Corrupt;
    payload = std::move(body);
    return WireDecode::Ok;
}

bool
peekFrameHeader(const std::string &text, FrameHeader &out)
{
    auto nl = text.find('\n');
    std::istringstream hs(text.substr(
        0, nl == std::string::npos ? text.size() : nl));
    std::string magic, version;
    if (!(hs >> magic >> version))
        return false;
    if (version.size() < 2 || version.front() != 'v')
        return false;
    char *end = nullptr;
    unsigned long v = std::strtoul(version.c_str() + 1, &end, 10);
    if (!end || *end != '\0')
        return false;
    out.magic = std::move(magic);
    out.version = static_cast<std::uint32_t>(v);
    return true;
}

std::string
envelopeFrame(const std::string &frame)
{
    return detail::format("frame %zu\n", frame.size()) + frame;
}

void
FrameAssembler::feed(const char *data, std::size_t n)
{
    if (!corrupt_)
        buf_.append(data, n);
}

void
FrameAssembler::poison()
{
    // A poisoned stream never yields another frame, so whatever is
    // buffered is garbage a hostile peer made us hold — free it now
    // rather than when the connection object dies.
    corrupt_ = true;
    buf_.clear();
    buf_.shrink_to_fit();
}

bool
FrameAssembler::next(std::string &frame)
{
    if (corrupt_)
        return false;

    // Envelope line: `frame <byte-count>\n`.  Longest legal line is
    // "frame " + 20 digits; anything longer without a newline is
    // already garbage — don't wait for one that may never come.
    auto nl = buf_.find('\n');
    if (nl == std::string::npos) {
        if (buf_.size() > 32)
            poison();
        return false;
    }

    std::istringstream hs(buf_.substr(0, nl));
    std::string kw;
    std::uint64_t nbytes = 0;
    std::string trailing;
    if (!(hs >> kw >> nbytes) || kw != "frame" || (hs >> trailing)
        || nbytes > maxFrameBytes_) {
        poison();
        return false;
    }

    if (buf_.size() - (nl + 1) < nbytes)
        return false;  // body still in flight

    frame = buf_.substr(nl + 1, nbytes);
    buf_.erase(0, nl + 1 + nbytes);
    return true;
}

std::string
serializeStats(const SimStats &stats)
{
    return frameRecord(kStatsMagic, kResultFormatVersion,
                       serializeStatsPayload(stats));
}

StatsDecode
decodeStats(const std::string &text, SimStats &out)
{
    std::string payload;
    WireDecode d = unframeRecord(kStatsMagic, kResultFormatVersion,
                                 text, payload);
    if (d != WireDecode::Ok)
        return d;
    return parseStatsPayload(payload, out) ? WireDecode::Ok
                                           : WireDecode::Corrupt;
}

bool
deserializeStats(const std::string &text, SimStats &out)
{
    return decodeStats(text, out) == StatsDecode::Ok;
}

std::string
serializeJob(const SimJob &job)
{
    std::string payload;
    putLine(payload, "tag", escapeLine(job.tag));
    putU64(payload, "salt", job.salt);
    putLine(payload, "concurrent", job.concurrent ? "1" : "0");
    putConfig(payload, job.cfg);
    putApp(payload, job.app);
    return frameRecord(kJobMagic, kJobWireVersion, payload);
}

WireDecode
parseJob(const std::string &text, SimJob &out)
{
    std::string payload;
    WireDecode d = unframeRecord(kJobMagic, kJobWireVersion, text,
                                 payload);
    if (d != WireDecode::Ok)
        return d;

    SimJob job;
    std::istringstream in(payload);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key))
            continue;
        if (key == "tag") {
            job.tag = unescapeLine(restOfLine(ls));
        } else if (key == "salt") {
            if (!(ls >> job.salt))
                return WireDecode::Corrupt;
        } else if (key == "concurrent") {
            int b;
            if (!(ls >> b))
                return WireDecode::Corrupt;
            job.concurrent = b != 0;
        } else if (key == "cfg") {
            std::string cfgKey, cfgValue;
            if (!(ls >> cfgKey >> cfgValue))
                return WireDecode::Corrupt;
            job.cfg.set(cfgKey, cfgValue);  // may throw ConfigError
        } else if (parseAppLine(key, ls, job.app)
                   == StatsLine::Corrupt) {
            return WireDecode::Corrupt;
        }
        // Unknown keys are skipped: forward-compatible within a
        // format version bump.
    }
    out = std::move(job);
    return WireDecode::Ok;
}

std::string
serializeJobResult(const JobResult &r)
{
    std::string payload;
    putLine(payload, "key", keyToHex(r.key));
    putLine(payload, "status", toString(r.status));
    putLine(payload, "error", escapeLine(r.error));
    putDouble(payload, "wallMs", r.wallMs);
    putLine(payload, "cached", r.cached ? "1" : "0");
    putInt(payload, "exitCode", r.exitCode);
    putInt(payload, "termSignal", r.termSignal);
    putInt(payload, "attempts", r.attempts);
    payload += serializeStatsPayload(r.stats);
    return frameRecord(kJobResMagic, kJobWireVersion, payload);
}

WireDecode
decodeJobResult(const std::string &text, JobResult &out)
{
    std::string payload;
    WireDecode d = unframeRecord(kJobResMagic, kJobWireVersion, text,
                                 payload);
    if (d != WireDecode::Ok)
        return d;

    JobResult r;
    std::istringstream in(payload);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key))
            continue;
        if (key == "key") {
            std::string hex;
            if (!(ls >> hex))
                return WireDecode::Corrupt;
            char *end = nullptr;
            r.key = std::strtoull(hex.c_str(), &end, 16);
            if (!end || *end != '\0')
                return WireDecode::Corrupt;
        } else if (key == "status") {
            std::string name;
            if (!(ls >> name) || !parseJobStatus(name, r.status))
                return WireDecode::Corrupt;
        } else if (key == "error") {
            r.error = unescapeLine(restOfLine(ls));
        } else if (key == "wallMs") {
            if (!(ls >> r.wallMs))
                return WireDecode::Corrupt;
        } else if (key == "cached") {
            int b;
            if (!(ls >> b))
                return WireDecode::Corrupt;
            r.cached = b != 0;
        } else if (key == "exitCode") {
            if (!(ls >> r.exitCode))
                return WireDecode::Corrupt;
        } else if (key == "termSignal") {
            if (!(ls >> r.termSignal))
                return WireDecode::Corrupt;
        } else if (key == "attempts") {
            if (!(ls >> r.attempts))
                return WireDecode::Corrupt;
        } else if (parseStatsLine(line, r.stats) == StatsLine::Corrupt) {
            return WireDecode::Corrupt;
        }
    }
    out = std::move(r);
    return WireDecode::Ok;
}

std::string
serializeSnapshot(std::uint64_t jobKey, const std::string &simState)
{
    // First payload line pins the job key; the simulator state (a
    // binary StateWriter payload) follows verbatim, so the record
    // round-trips to the byte.
    std::string payload;
    putLine(payload, "key", keyToHex(jobKey));
    payload += simState;
    return frameRecord(kSnapshotMagic, kSnapshotVersion, payload);
}

WireDecode
decodeSnapshot(const std::string &text, std::uint64_t &jobKey,
               std::string &simState)
{
    std::string payload;
    WireDecode d = unframeRecord(kSnapshotMagic, kSnapshotVersion, text,
                                 payload);
    if (d != WireDecode::Ok)
        return d;

    auto nl = payload.find('\n');
    if (nl == std::string::npos)
        return WireDecode::Corrupt;
    std::istringstream ls(payload.substr(0, nl));
    std::string kw, hex;
    std::string trailing;
    if (!(ls >> kw >> hex) || kw != "key" || (ls >> trailing))
        return WireDecode::Corrupt;
    char *end = nullptr;
    std::uint64_t key = std::strtoull(hex.c_str(), &end, 16);
    if (!end || *end != '\0')
        return WireDecode::Corrupt;

    jobKey = key;
    simState = payload.substr(nl + 1);
    return WireDecode::Ok;
}

} // namespace scsim::runner
