/**
 * @file
 * Correctness gate: every job result the benchmark times is checked.
 *
 * At any seed the accounting identities of tests/test_properties.cc
 * must hold (all launched work completes, one issue slot per warp
 * instruction).  At the default seed each job's stats fingerprint must
 * also equal the one pinned in perfbench/pinned_fingerprints.txt,
 * which `perfbench --write-pins` generated from the simulator.
 */

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "runner/sweep_engine.hh"
#include "sim/engine.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

/** What buildApp says a job must complete. */
struct Expected
{
    std::uint64_t instructions = 0;
    std::uint64_t blocks = 0;
    std::uint64_t warps = 0;
};

Expected
expectedFor(const scsim::runner::SimJob &job)
{
    scsim::Application app = scsim::buildApp(job.app, job.salt);
    Expected e;
    e.instructions = app.totalWarpInstructions();
    for (const auto &k : app.kernels) {
        e.blocks += static_cast<std::uint64_t>(k.numBlocks);
        e.warps += static_cast<std::uint64_t>(k.numBlocks)
            * static_cast<std::uint64_t>(k.warpsPerBlock);
    }
    return e;
}

std::string
mismatch(const char *what, std::uint64_t got, std::uint64_t want)
{
    std::ostringstream os;
    os << what << " " << got << " != " << want;
    return os.str();
}

} // namespace

PinTable
loadPins(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        throw std::runtime_error("cannot read pin table " + path);
    PinTable pins;
    std::string line;
    int lineNo = 0;
    while (std::getline(f, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string workload, tag, fp, extra;
        if (!(ls >> workload >> tag >> fp) || (ls >> extra)
            || fp.size() != 16)
            throw std::runtime_error(path + ":" + std::to_string(lineNo)
                                     + ": malformed pin line");
        pins[workload][tag] = fp;
    }
    return pins;
}

std::uint64_t
checkOutcomes(const std::string &workload,
              const std::vector<JobOutcome> &outcomes,
              const std::map<std::string, std::string> *pins,
              std::vector<CheckFailure> &failures)
{
    std::uint64_t failed = 0;
    // Rounds repeat the same jobs: synthesize each (tag, salt) once.
    std::map<std::pair<std::string, std::uint64_t>, Expected> expected;
    for (const JobOutcome &o : outcomes) {
        const scsim::runner::JobResult &r = o.result;
        const scsim::SimStats &s = r.stats;
        std::vector<std::string> problems;
        if (!r.ok()) {
            problems.push_back(std::string("status ")
                               + scsim::runner::toString(r.status) + ": "
                               + r.error);
        } else {
            auto key = std::make_pair(o.job.tag, o.job.salt);
            auto found = expected.find(key);
            if (found == expected.end())
                found = expected.emplace(key, expectedFor(o.job)).first;
            const Expected &e = found->second;
            if (s.instructions != e.instructions)
                problems.push_back(mismatch("instructions", s.instructions,
                                            e.instructions));
            if (s.issueSlotsUsed != s.instructions)
                problems.push_back(mismatch("issueSlotsUsed",
                                            s.issueSlotsUsed,
                                            s.instructions));
            if (s.blocksCompleted != e.blocks)
                problems.push_back(mismatch("blocksCompleted",
                                            s.blocksCompleted, e.blocks));
            if (s.warpsCompleted != e.warps)
                problems.push_back(mismatch("warpsCompleted",
                                            s.warpsCompleted, e.warps));
            if (pins) {
                std::string fp = scsim::sim::statsFingerprintHex(s);
                auto it = pins->find(o.job.tag);
                if (it == pins->end())
                    problems.push_back("no pinned fingerprint");
                else if (it->second != fp)
                    problems.push_back("fingerprint " + fp
                                       + " != pinned " + it->second);
            }
        }
        for (const std::string &p : problems)
            failures.push_back({ workload + " " + o.job.tag + ": " + p });
        if (!problems.empty())
            ++failed;
    }
    return failed;
}

void
writePins(const std::string &path)
{
    std::ostringstream out;
    out << "# perfbench pinned stats fingerprints at seed " << kDefaultSeed
        << ": <workload> <job tag> <statsFingerprintHex>\n"
        << "# Regenerate with `perfbench --write-pins FILE`; a change "
           "that moves one is a behaviour change.\n";
    for (const std::string &w : workloadNames()) {
        std::vector<PlannedJob> jobs =
            distinctJobs(makePlan(w, kDefaultSeed, false));
        scsim::runner::SweepSpec spec;
        for (const PlannedJob &p : jobs)
            spec.jobs.push_back(p.job);
        scsim::runner::SweepOptions o;
        o.jobs = static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()));
        scsim::runner::SweepEngine engine(o);
        scsim::runner::SweepResult res = engine.run(spec);
        if (!res.allOk())
            throw std::runtime_error("a pinned job failed in " + w);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            out << w << " " << spec.jobs[i].tag << " "
                << scsim::sim::statsFingerprintHex(res.results[i].stats)
                << "\n";
    }
    std::ofstream f(path);
    if (!(f << out.str()) || !f.flush())
        throw std::runtime_error("cannot write pin table " + path);
}

} // namespace perfbench
