/**
 * @file
 * Lightweight statistics registry in the spirit of gem5's stats package.
 *
 * Components own Scalar/Histogram objects and register them with a Group.
 * Benchmarks and tests read stats by name or through the typed objects.
 */

#ifndef NOVA_SIM_STATS_HH
#define NOVA_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace nova::sim::stats
{

/** A single named scalar statistic (a counter or a gauge). */
class Scalar
{
  public:
    Scalar() = default;

    double value() const { return val; }
    void set(double v) { val = v; }
    void reset() { val = 0; }

    Scalar &operator+=(double v) { val += v; return *this; }
    Scalar &operator-=(double v) { val -= v; return *this; }
    Scalar &operator++() { val += 1; return *this; }

  private:
    double val = 0;
};

/** A fixed-bucket histogram over a linear range. */
class Histogram
{
  public:
    /** @param num_buckets number of equal-width buckets over [lo, hi). */
    Histogram(double lo = 0, double hi = 1, std::size_t num_buckets = 16);

    /** Record one sample; out-of-range samples clamp to end buckets. */
    void sample(double v);

    std::uint64_t count() const { return n; }
    double mean() const { return n ? sum / static_cast<double>(n) : 0; }
    double min() const { return n ? minV : 0; }
    double max() const { return n ? maxV : 0; }
    const std::vector<std::uint64_t> &buckets() const { return bins; }
    void reset();

  private:
    double lo, hi;
    std::vector<std::uint64_t> bins;
    std::uint64_t n = 0;
    double sum = 0;
    double minV = 0;
    double maxV = 0;
};

/**
 * A named collection of statistics, hierarchically composable.
 *
 * Groups do not own the registered statistics; the registering component
 * does. All registered objects must outlive the group.
 */
class Group
{
  public:
    explicit Group(std::string group_name = "") : name(std::move(group_name))
    {
    }

    // Rule-of-five: groups are registered by pointer (addChild) and hold
    // non-owning pointers to member stats; a copy would alias both sides
    // of the registry. Keep them pinned.
    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    /** Register a scalar under this group. */
    void addScalar(const std::string &stat_name, Scalar *s);

    /** Register a histogram under this group. */
    void addHistogram(const std::string &stat_name, Histogram *h);

    /** Attach a child group (e.g., a sub-component). */
    void addChild(Group *child);

    /** Look up a scalar by dotted path; panics if absent. */
    double get(const std::string &path) const;

    /** True when a scalar with the given dotted path exists. */
    bool has(const std::string &path) const;

    /** Flatten all scalars into `out` with dotted names. */
    void collect(std::map<std::string, double> &out,
                 const std::string &prefix = "") const;

    /** Pretty-print all statistics. */
    void dump(std::ostream &os) const;

    const std::string &groupName() const { return name; }

  private:
    std::string name;
    std::vector<std::pair<std::string, Scalar *>> scalars;
    std::vector<std::pair<std::string, Histogram *>> histograms;
    std::vector<Group *> children;
};

} // namespace nova::sim::stats

#endif // NOVA_SIM_STATS_HH
