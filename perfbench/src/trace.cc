#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <atomic>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t job = 0;
    int lane = 0;
    const char *name = "";
    Clock::time_point start;
    Clock::time_point end;
};

std::atomic<bool> g_enabled{ false };
std::atomic<std::uint64_t> g_nextId{ 1 };
const Clock::time_point g_epoch = Clock::now();

std::mutex g_mutex;
std::vector<SpanRecord> g_spans;              // guarded by g_mutex
std::map<int, std::string> g_laneNames{ { 0, "main" } };  // ditto

thread_local int t_lane = 0;
/** Open spans on this thread, innermost last: (span id, job id). */
thread_local std::vector<std::pair<std::uint64_t, std::uint64_t>> t_open;

double
usSinceEpoch(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

void
enableTracing(bool on)
{
    g_enabled = on;
}

bool
tracingEnabled()
{
    return g_enabled;
}

void
setLane(int lane, const std::string &name)
{
    t_lane = lane;
    std::lock_guard lock(g_mutex);
    g_laneNames[lane] = name;
}

Span::Span(const char *name, std::uint64_t job)
    : name_(name), job_(job), start_(Clock::now())
{
    if (!g_enabled)
        return;
    id_ = g_nextId++;
    if (!t_open.empty()) {
        parent_ = t_open.back().first;
        if (job_ == 0)
            job_ = t_open.back().second;
    }
    t_open.push_back({ id_, job_ });
}

Span::~Span()
{
    if (id_ == 0)
        return;
    Clock::time_point end = Clock::now();
    t_open.pop_back();
    std::lock_guard lock(g_mutex);
    g_spans.push_back(
        SpanRecord{ id_, parent_, job_, t_lane, name_, start_, end });
}

void
recordSpan(const char *name, std::uint64_t job, Clock::time_point start,
           Clock::time_point end)
{
    if (!g_enabled)
        return;
    std::uint64_t parent = t_open.empty() ? 0 : t_open.back().first;
    std::uint64_t id = g_nextId++;
    std::lock_guard lock(g_mutex);
    g_spans.push_back(SpanRecord{ id, parent, job, t_lane, name, start, end });
}

std::map<std::string, SelfTime>
selfTimes()
{
    std::vector<SpanRecord> spans;
    {
        std::lock_guard lock(g_mutex);
        spans = g_spans;
    }
    // Children of each span, as intervals; children of one parent
    // never overlap on a thread, but merge them anyway so a parent
    // with children on several threads is not over-subtracted.
    std::map<std::uint64_t, std::vector<std::pair<Clock::time_point,
                                                  Clock::time_point>>>
        children;
    for (const SpanRecord &s : spans)
        if (s.parent)
            children[s.parent].push_back({ s.start, s.end });

    std::map<std::string, SelfTime> out;
    for (const SpanRecord &s : spans) {
        double total =
            std::chrono::duration<double, std::milli>(s.end - s.start)
                .count();
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            Clock::time_point curStart{}, curEnd{};
            bool open = false;
            for (auto [a, b] : iv) {
                a = std::max(a, s.start);
                b = std::min(b, s.end);
                if (b <= a)
                    continue;
                if (open && a <= curEnd) {
                    curEnd = std::max(curEnd, b);
                    continue;
                }
                if (open)
                    covered += std::chrono::duration<double, std::milli>(
                                   curEnd - curStart)
                                   .count();
                curStart = a;
                curEnd = b;
                open = true;
            }
            if (open)
                covered += std::chrono::duration<double, std::milli>(
                               curEnd - curStart)
                               .count();
        }
        SelfTime &t = out[s.name];
        ++t.count;
        t.totalMs += total;
        t.selfMs += total - covered;
    }
    return out;
}

void
writeChromeTrace(const std::string &path)
{
    std::vector<SpanRecord> spans;
    std::map<int, std::string> lanes;
    {
        std::lock_guard lock(g_mutex);
        spans = g_spans;
        lanes = g_laneNames;
    }
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.start < b.start;
              });

    std::ofstream f(path);
    if (!f)
        throw std::runtime_error("cannot write trace file " + path);
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (const auto &[lane, name] : lanes) {
        f << (first ? "" : ",\n")
          << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":"
          << lane << ",\"args\":{\"name\":\"" << jsonEscape(name)
          << "\"}}";
        first = false;
    }
    char buf[64];
    for (const SpanRecord &s : spans) {
        f << (first ? "" : ",\n") << "{\"ph\":\"X\",\"cat\":\"perfbench\""
          << ",\"name\":\"" << jsonEscape(s.name) << "\",\"pid\":1"
          << ",\"tid\":" << s.lane;
        std::snprintf(buf, sizeof buf, "%.3f", usSinceEpoch(s.start));
        f << ",\"ts\":" << buf;
        std::snprintf(buf, sizeof buf, "%.3f",
                      std::chrono::duration<double, std::micro>(s.end
                                                                - s.start)
                          .count());
        f << ",\"dur\":" << buf << ",\"args\":{\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"job\":" << s.job << "}}";
        first = false;
    }
    f << "\n]}\n";
    if (!f.flush())
        throw std::runtime_error("cannot write trace file " + path);
}

} // namespace perfbench
