#include "sim/stats.hh"

#include <algorithm>
#include <iomanip>

namespace nova::sim::stats
{

Histogram::Histogram(double lo_, double hi_, std::size_t num_buckets)
    : lo(lo_), hi(hi_), bins(num_buckets, 0)
{
    NOVA_ASSERT(hi > lo && num_buckets > 0, "bad histogram range");
}

void
Histogram::sample(double v)
{
    if (n == 0) {
        minV = maxV = v;
    } else {
        minV = std::min(minV, v);
        maxV = std::max(maxV, v);
    }
    ++n;
    sum += v;

    double frac = (v - lo) / (hi - lo);
    frac = std::clamp(frac, 0.0, 1.0);
    auto idx = static_cast<std::size_t>(frac * static_cast<double>(
        bins.size()));
    if (idx >= bins.size())
        idx = bins.size() - 1;
    ++bins[idx];
}

void
Histogram::reset()
{
    std::fill(bins.begin(), bins.end(), 0);
    n = 0;
    sum = 0;
    minV = maxV = 0;
}

void
Group::addScalar(const std::string &stat_name, Scalar *s)
{
    NOVA_ASSERT(s != nullptr);
    scalars.emplace_back(stat_name, s);
}

void
Group::addHistogram(const std::string &stat_name, Histogram *h)
{
    NOVA_ASSERT(h != nullptr);
    histograms.emplace_back(stat_name, h);
}

void
Group::addChild(Group *child)
{
    NOVA_ASSERT(child != nullptr);
    children.push_back(child);
}

void
Group::collect(std::map<std::string, double> &out,
               const std::string &prefix) const
{
    const std::string base =
        prefix.empty() ? name : (name.empty() ? prefix : prefix + "." + name);
    for (const auto &[stat_name, scalar] : scalars) {
        const std::string full =
            base.empty() ? stat_name : base + "." + stat_name;
        out[full] = scalar->value();
    }
    for (const Group *child : children)
        child->collect(out, base);
}

double
Group::get(const std::string &path) const
{
    std::map<std::string, double> all;
    collect(all);
    // Accept both the fully-qualified path and a path relative to this
    // group's own name.
    auto it = all.find(path);
    if (it == all.end() && !name.empty())
        it = all.find(name + "." + path);
    if (it == all.end())
        panic("unknown stat '", path, "' in group '", name, "'");
    return it->second;
}

bool
Group::has(const std::string &path) const
{
    std::map<std::string, double> all;
    collect(all);
    return all.count(path) > 0 ||
           (!name.empty() && all.count(name + "." + path) > 0);
}

void
Group::dump(std::ostream &os) const
{
    std::map<std::string, double> all;
    collect(all);
    for (const auto &[stat_name, value] : all) {
        os << std::left << std::setw(56) << stat_name << " "
           << std::setprecision(12) << value << "\n";
    }
}

} // namespace nova::sim::stats
