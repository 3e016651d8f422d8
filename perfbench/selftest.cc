/**
 * @file
 * Unit tests of the benchmark's own helpers: order statistics, span
 * self-time folding, heap accounting and the printed rows. Exit code 0
 * when all pass.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "heap.hh"
#include "report.hh"

namespace
{

int failures = 0;

void
expectNear(double got, double want, const char *what)
{
    if (std::abs(got - want) > 1e-12) {
        std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
        ++failures;
    }
}

void
expectTrue(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL %s\n", what);
        ++failures;
    }
}

using perfbench::Span;

Span
span(const char *name, std::uint64_t start, std::uint64_t end,
     std::size_t parent)
{
    Span s;
    s.name = name;
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    return s;
}

void
testMedianAndQuartiles()
{
    using perfbench::median;
    using perfbench::quartiles;
    expectNear(median({3, 1, 2}), 2, "median odd");
    expectNear(median({4, 1, 3, 2}), 2.5, "median even");
    expectNear(median({7}), 7, "median one sample");

    // Expected values are Python's statistics.quantiles(data, n=4).
    const auto odd = quartiles({5, 1, 4, 2, 3});
    expectNear(odd[0], 1.5, "quartiles odd q1");
    expectNear(odd[1], 3, "quartiles odd q2");
    expectNear(odd[2], 4.5, "quartiles odd q3");
    const auto even = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    expectNear(even[0], 2.75, "quartiles even q1");
    expectNear(even[1], 5.5, "quartiles even q2");
    expectNear(even[2], 8.25, "quartiles even q3");
    const auto two = quartiles({1, 2});
    expectNear(two[0], 0.75, "quartiles two q1");
    expectNear(two[2], 2.25, "quartiles two q3");
    const auto one = quartiles({4});
    expectTrue(one[0] == 4 && one[1] == 4 && one[2] == 4,
               "quartiles one sample");

    bool threw = false;
    try {
        median({});
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    expectTrue(threw, "median of nothing throws");
}

void
testSelfTime()
{
    constexpr std::size_t none = perfbench::noParent;
    // pass [0,100): children [10,30) and [50,60); grandchild [12,20).
    std::vector<Span> spans = {
        span("pass", 0, 100, none), span("core.run", 10, 30, 0),
        span("check", 50, 60, 0), span("inner", 12, 20, 1)};
    auto self = perfbench::selfSeconds(spans);
    expectNear(self["pass"], 70e-9, "pass self = 100 - 20 - 10");
    expectNear(self["core.run"], 12e-9, "child self = 20 - 8");
    expectNear(self["check"], 10e-9, "leaf self = duration");

    // Overlapping children [10,40) and [30,50) cover [10,50) once; a
    // child reaching past its parent only counts inside it.
    spans = {span("root", 0, 100, none), span("a", 10, 40, 0),
             span("b", 30, 50, 0), span("c", 90, 120, 0)};
    self = perfbench::selfSeconds(spans);
    expectNear(self["root"], 50e-9, "overlap subtracted once, clipped");

    // Same-name spans sum.
    spans = {span("pass", 0, 10, none), span("pass", 20, 25, none)};
    self = perfbench::selfSeconds(spans);
    expectNear(self["pass"], 15e-9, "same-name spans sum");
}

void
testOutput()
{
    using perfbench::Metric;
    expectTrue(perfbench::formatNumber(0.1) == "0.1", "shortest digits");
    expectTrue(perfbench::formatNumber(2.0) == "2", "whole number");
    const std::string line =
        perfbench::metricLine({"wall_s", 1.25, "s"}, "median of 3 passes");
    std::istringstream is(line);
    std::string tag, name, value, unit;
    is >> tag >> name >> value >> unit;
    expectTrue(tag == "metric" && name == "wall_s" && value == "1.25" &&
                   unit == "s",
               "metric row reads back");
    const std::string json = perfbench::resultJson(
        true, 6, 0, {{"wall_s", 1.25, "s"}, {"setup_s", 0.5, "s"}});
    expectTrue(json == "{\"correct\": true, \"attempted\": 6, \"failed\": 0,"
                       " \"metrics\": {\"wall_s\": {\"value\": 1.25, "
                       "\"unit\": \"s\"}, \"setup_s\": {\"value\": 0.5, "
                       "\"unit\": \"s\"}}}",
               "result line");

    std::vector<Span> spans = {span("setup", 1000, 3000, perfbench::noParent),
                               span("graph.build", 1500, 2500, 0)};
    std::ostringstream os;
    perfbench::writeChromeTrace(os, spans);
    const std::string trace = os.str();
    expectTrue(trace.find("\"traceEvents\"") != std::string::npos &&
                   trace.find("\"name\": \"graph.build\"") !=
                       std::string::npos &&
                   trace.find("\"ts\": 0.5, \"dur\": 1") !=
                       std::string::npos &&
                   trace.find("\"parent\": 0") != std::string::npos,
               "chrome trace events");
}

} // namespace

void
testHeap()
{
    namespace heap = perfbench::heap;
    constexpr std::size_t kBlock = 1 << 20;
    const std::size_t before = heap::liveBytes();
    heap::resetPeak();
    expectTrue(heap::peakBytes() == before, "heap: reset peak is live");
    {
        auto block = std::make_unique<char[]>(kBlock);
        block[0] = 1;
        expectTrue(heap::liveBytes() >= before + kBlock,
                   "heap: a live block is counted");
    }
    expectTrue(heap::liveBytes() == before, "heap: a freed block is not");
    expectTrue(heap::peakBytes() >= before + kBlock,
               "heap: the peak keeps the freed block");
    heap::resetPeak();
    expectTrue(heap::peakBytes() == before, "heap: reset drops the peak");
}

int
main()
{
    testMedianAndQuartiles();
    testSelfTime();
    testHeap();
    testOutput();
    if (failures == 0)
        std::printf("perfbench self-test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
