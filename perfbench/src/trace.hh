/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A Span is opened by the benchmark's own code around a call into one
 * layer's public API; spans nest per thread (the innermost open span
 * is the parent) and spans of one job carry the job's id.  Nothing is
 * written until the run ends: writeChromeTrace() emits Chrome
 * trace-event JSON (one lane per thread, which Perfetto opens) and
 * selfTimes() folds the spans into per-name self time.  With tracing
 * off a Span records nothing.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>

#include "bench.hh"

namespace perfbench {

/** Turn span recording on or off (off by default). */
void enableTracing(bool on);
bool tracingEnabled();

/** Name the calling thread's lane in the trace (e.g. "client-1"). */
void setLane(int lane, const std::string &name);

/** RAII span: records [construction, destruction) when tracing is on. */
class Span
{
  public:
    explicit Span(const char *name, std::uint64_t job = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Milliseconds since construction (valid with tracing off too). */
    double elapsedMs() const { return msSince(start_); }

  private:
    const char *name_;
    std::uint64_t job_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    Clock::time_point start_;
};

/**
 * Record a span whose interval was measured elsewhere (e.g. a farm
 * job from submit() to its jobdone callback); its parent is the
 * innermost open Span on the calling thread.
 */
void recordSpan(const char *name, std::uint64_t job, Clock::time_point start,
                Clock::time_point end);

/** Per-name totals over every recorded span. */
struct SelfTime
{
    std::uint64_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;  //!< total minus time covered by child spans
};

std::map<std::string, SelfTime> selfTimes();

/** Write every recorded span to @p path; throws on I/O failure. */
void writeChromeTrace(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
