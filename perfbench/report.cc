#include "report.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "sim/profile.hh"

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of an empty sample");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::array<double, 3>
quartiles(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("quartiles of an empty sample");
    std::sort(v.begin(), v.end());
    const std::size_t ld = v.size();
    if (ld == 1)
        return {v[0], v[0], v[0]};
    // statistics.quantiles(method="exclusive"): the i-th cut point sits
    // at rank i * (n + 1) / 4, interpolated in exact integer steps.
    constexpr std::size_t n = 4;
    const std::size_t m = ld + 1;
    std::array<double, 3> out{};
    for (std::size_t i = 1; i < n; ++i) {
        std::size_t j = i * m / n;
        j = std::clamp<std::size_t>(j, 1, ld - 1);
        const double delta = static_cast<double>(i * m) -
                             static_cast<double>(j * n);
        out[i - 1] = (v[j - 1] * (static_cast<double>(n) - delta) +
                      v[j] * delta) /
                     static_cast<double>(n);
    }
    return out;
}

std::size_t
Tracer::open(std::string name, std::size_t parent, std::uint32_t pass)
{
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.pass = pass;
    s.startNs = nova::sim::profile::hostNow();
    log.push_back(std::move(s));
    return log.size() - 1;
}

double
Tracer::close(std::size_t id)
{
    log.at(id).endNs = nova::sim::profile::hostNow();
    return seconds(id);
}

double
Tracer::seconds(std::size_t id) const
{
    const Span &s = log.at(id);
    return static_cast<double>(s.endNs - s.startNs) / 1e9;
}

std::map<std::string, double>
selfSeconds(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent != noParent)
            children.at(spans[i].parent).push_back(i);

    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        // Child intervals clipped to the parent, merged, then subtracted.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
        for (std::size_t c : children[i]) {
            const std::uint64_t lo = std::max(spans[c].startNs, s.startNs);
            const std::uint64_t hi = std::min(spans[c].endNs, s.endNs);
            if (lo < hi)
                iv.emplace_back(lo, hi);
        }
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0, reach = s.startNs;
        for (const auto &[lo, hi] : iv) {
            const std::uint64_t from = std::max(lo, reach);
            if (hi > from)
                covered += hi - from;
            reach = std::max(reach, hi);
        }
        out[s.name] +=
            static_cast<double>(s.endNs - s.startNs - covered) / 1e9;
    }
    return out;
}

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

void
writeChromeTrace(std::ostream &os, const std::vector<Span> &spans)
{
    std::uint64_t origin = spans.empty() ? 0 : spans.front().startNs;
    for (const Span &s : spans)
        origin = std::min(origin, s.startNs);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"name\": " << jsonString(s.name)
           << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
              "\"tid\": 1, \"ts\": "
           << formatNumber(static_cast<double>(s.startNs - origin) / 1e3)
           << ", \"dur\": "
           << formatNumber(static_cast<double>(s.endNs - s.startNs) / 1e3)
           << ", \"args\": {\"span\": " << i << ", \"parent\": "
           << (s.parent == noParent ? std::string("null")
                                    : std::to_string(s.parent))
           << ", \"pass\": " << s.pass << "}}";
    }
    os << "\n]}\n";
}

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        throw std::invalid_argument("metric value is not finite");
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
metricLine(const Metric &m, const std::string &note)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "metric %-26s %-22s %-6s", m.name.c_str(),
                  formatNumber(m.value).c_str(), m.unit.c_str());
    std::string line = buf;
    if (!note.empty())
        line += " " + note;
    while (!line.empty() && line.back() == ' ')
        line.pop_back();
    return line;
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? ", " : "") + jsonString(m.name) +
               ": {\"value\": " + formatNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return out + "}}";
}

} // namespace perfbench
