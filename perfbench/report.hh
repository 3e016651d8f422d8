/**
 * @file
 * The benchmark's own bookkeeping: order statistics over passes, the
 * span recorder behind the traced run (Chrome trace-event output and
 * self-time folding) and the printed metric rows and result line.
 */

#ifndef NOVA_PERFBENCH_REPORT_HH
#define NOVA_PERFBENCH_REPORT_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

/** Median of a non-empty sample (mean of the two middle values if even). */
double median(std::vector<double> v);

/**
 * First quartile, median and third quartile of a non-empty sample, by the
 * same rule as Python's statistics.quantiles(v, n=4) (the default
 * "exclusive" method). A single sample is its own three quartiles.
 */
std::array<double, 3> quartiles(std::vector<double> v);

/** One timed region of the benchmark's own code. */
struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Index of the enclosing span, or noParent. */
    std::size_t parent = 0;
    /** Pass the span belongs to; setup spans carry their pass's id. */
    std::uint32_t pass = 0;
};

constexpr std::size_t noParent = static_cast<std::size_t>(-1);

/**
 * In-memory span log. Spans are a handful per pass, so the log is kept
 * on every run: it is also where the benchmark reads its call timings.
 * Only the traced run writes it out.
 */
class Tracer
{
  public:
    /** Open a span now; returns its id. */
    std::size_t open(std::string name, std::size_t parent,
                     std::uint32_t pass);

    /** Close span `id` now; returns its duration in seconds. */
    double close(std::size_t id);

    /** Duration of a closed span in seconds. */
    double seconds(std::size_t id) const;

    const std::vector<Span> &spans() const { return log; }

  private:
    std::vector<Span> log;
};

/** Closes its span when it leaves scope (or earlier, via close()). */
class SpanScope
{
  public:
    SpanScope(Tracer &t, std::string name, std::size_t parent,
              std::uint32_t pass)
        : tracer(t), spanId(t.open(std::move(name), parent, pass))
    {
    }

    ~SpanScope()
    {
        if (!closed)
            tracer.close(spanId);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::size_t id() const { return spanId; }

    /** Close now; returns the duration in seconds. */
    double
    close()
    {
        closed = true;
        return tracer.close(spanId);
    }

  private:
    Tracer &tracer;
    std::size_t spanId;
    bool closed = false;
};

/**
 * Self time per span name in seconds, summed over all spans: each span's
 * duration minus the part of its interval that its children cover.
 * Overlapping children are subtracted once, and a child reaching outside
 * its parent only counts inside it.
 */
std::map<std::string, double> selfSeconds(const std::vector<Span> &spans);

/**
 * Write spans as a Chrome trace-event file (complete "X" events, times
 * in microseconds from the first span), readable by Perfetto.
 */
void writeChromeTrace(std::ostream &os, const std::vector<Span> &spans);

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Shortest decimal text that reads back as exactly `v`. */
std::string formatNumber(double v);

/**
 * A human-readable metric row: "metric <name> <value> <unit> [note]".
 * check_output.py parses these back.
 */
std::string metricLine(const Metric &m, const std::string &note = "");

/** The final result line: one JSON object. */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // NOVA_PERFBENCH_REPORT_HH
