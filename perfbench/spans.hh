/**
 * @file
 * Span recorder for the benchmark's traced run. A span is one call
 * into a layer, timed from the benchmark's side of the call: its name,
 * start, end, parent span and job id, plus counts recorded when it
 * closes. Spans stay in memory and are written as one Chrome trace
 * (chrome://tracing, Perfetto) when the run ends.
 */

#ifndef REGLESS_PERFBENCH_SPANS_HH
#define REGLESS_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Adds the seconds between construction and destruction to @a sink. */
class Stopwatch
{
  public:
    explicit Stopwatch(double &sink) : _sink(sink), _start(Clock::now())
    {
    }
    ~Stopwatch() { _sink += secondsBetween(_start, Clock::now()); }
    Stopwatch(const Stopwatch &) = delete;
    Stopwatch &operator=(const Stopwatch &) = delete;

  private:
    double &_sink;
    Clock::time_point _start;
};

/** In-memory span tree of one traced run (single-threaded). */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0; ///< seconds since the recorder started
        double end = 0.0;
        int parent = -1; ///< index of the enclosing span, -1 at the root
        std::uint64_t job = 0; ///< shared by a job's spans; 0 = none
        std::string args; ///< extra JSON members ("k":v,...) or empty
    };

    Spans() : _origin(Clock::now()) {}

    /** Open a span nested in the innermost open one. A zero @a job
     *  inherits the parent's job id. */
    int
    open(std::string name, std::uint64_t job, std::string args)
    {
        Span span;
        span.name = std::move(name);
        span.start = secondsBetween(_origin, Clock::now());
        span.parent = _open.empty() ? -1 : _open.back();
        span.job = job || span.parent < 0 ? job : _spans[span.parent].job;
        span.args = std::move(args);
        _spans.push_back(std::move(span));
        _open.push_back(static_cast<int>(_spans.size() - 1));
        return _open.back();
    }

    /** Close the innermost span, appending @a args (counts). */
    void
    close(const std::string &args)
    {
        Span &span = _spans[_open.back()];
        _open.pop_back();
        span.end = secondsBetween(_origin, Clock::now());
        if (!args.empty())
            span.args += (span.args.empty() ? "" : ",") + args;
    }

    const std::vector<Span> &spans() const { return _spans; }

    /** Self time per span name: each span's duration minus the part
     *  covered by its direct children, summed by name. */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::vector<double> self(_spans.size());
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            self[i] += _spans[i].end - _spans[i].start;
            if (_spans[i].parent >= 0)
                self[_spans[i].parent] -= _spans[i].end - _spans[i].start;
        }
        std::map<std::string, double> by_name;
        for (std::size_t i = 0; i < _spans.size(); ++i)
            by_name[_spans[i].name] += self[i];
        return by_name;
    }

    /** Write every span as a Chrome-trace complete ("X") event. */
    void
    writeChrome(std::ostream &os) const
    {
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
               << static_cast<std::uint64_t>(s.start * 1e6)
               << ",\"dur\":"
               << static_cast<std::uint64_t>((s.end - s.start) * 1e6)
               << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
               << ",\"job\":" << s.job
               << (s.args.empty() ? "" : ",") << s.args << "}}";
        }
        os << "\n]}\n";
    }

  private:
    std::vector<Span> _spans;
    std::vector<int> _open;
    Clock::time_point _origin;
};

/**
 * RAII span: open on construction, close on destruction. Inert when
 * the recorder is null, so the untraced run takes the same code path
 * without recording anything.
 */
class Scope
{
  public:
    Scope(Spans *spans, std::string name, std::uint64_t job = 0,
          std::string args = {})
        : _spans(spans)
    {
        if (_spans)
            _spans->open(std::move(name), job, std::move(args));
    }
    ~Scope()
    {
        if (_spans)
            _spans->close(_counts);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Counts to record on the span when it closes. */
    void setCounts(std::string counts) { _counts = std::move(counts); }

  private:
    Spans *_spans;
    std::string _counts;
};

} // namespace perfbench

#endif // REGLESS_PERFBENCH_SPANS_HH
