/**
 * @file
 * The five evaluation workloads of the paper (Sec. V): BFS, SSSP and CC
 * in asynchronous mode; PageRank (delta-based) and Betweenness
 * Centrality (two-phase) in bulk-synchronous mode.
 */

#ifndef NOVA_WORKLOADS_PROGRAMS_HH
#define NOVA_WORKLOADS_PROGRAMS_HH

#include <bit>
#include <limits>
#include <memory>
#include <vector>

#include "sim/logging.hh"
#include "workloads/vertex_program.hh"

namespace nova::workloads
{

/** The "unreached" property for distance-style workloads. */
constexpr std::uint64_t infProp = ~std::uint64_t(0);

/** @{ @name 64-bit payload packing helpers */

inline std::uint64_t
packDouble(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

inline double
unpackDouble(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

/** BC: [level:16][sigma:48] packing of the forward state. */
inline std::uint64_t
packLevelSigma(std::uint32_t level, std::uint64_t sigma)
{
    return (std::uint64_t(level) << 48) |
           (sigma & ((std::uint64_t(1) << 48) - 1));
}

inline std::uint32_t
unpackLevel(std::uint64_t bits)
{
    return static_cast<std::uint32_t>(bits >> 48);
}

inline std::uint64_t
unpackSigma(std::uint64_t bits)
{
    return bits & ((std::uint64_t(1) << 48) - 1);
}

/**
 * BC backward messages: a double whose 16 low mantissa bits carry the
 * sender's level (the precision loss is ~1e-9 relative).
 */
inline std::uint64_t
packValueLevel(double value, std::uint32_t level)
{
    return (packDouble(value) & ~std::uint64_t(0xFFFF)) | (level & 0xFFFF);
}

inline double
unpackValue(std::uint64_t bits)
{
    return unpackDouble(bits & ~std::uint64_t(0xFFFF));
}

inline std::uint32_t
unpackValueLevel(std::uint64_t bits)
{
    return static_cast<std::uint32_t>(bits & 0xFFFF);
}

/** @} */

/** Breadth-first search from a source (asynchronous, data-driven). */
class BfsProgram : public VertexProgram
{
  public:
    explicit BfsProgram(graph::VertexId source) : src(source) {}

    std::string name() const override { return "bfs"; }
    ExecMode mode() const override { return ExecMode::Async; }

    std::uint64_t
    initialProp(graph::VertexId v) const override
    {
        return v == src ? 0 : infProp;
    }

    std::vector<graph::VertexId>
    initialActive() const override
    {
        return {src};
    }

    std::uint64_t
    reduce(std::uint64_t state, std::uint64_t update,
           std::uint64_t) const override
    {
        return std::min(state, update);
    }

    std::uint64_t
    propagate(std::uint64_t value, graph::Weight) const override
    {
        return value + 1;
    }

  private:
    graph::VertexId src;
};

/** Single-source shortest path (asynchronous; Algorithm 1). */
class SsspProgram : public VertexProgram
{
  public:
    explicit SsspProgram(graph::VertexId source) : src(source) {}

    std::string name() const override { return "sssp"; }
    ExecMode mode() const override { return ExecMode::Async; }

    std::uint64_t
    initialProp(graph::VertexId v) const override
    {
        return v == src ? 0 : infProp;
    }

    std::vector<graph::VertexId>
    initialActive() const override
    {
        return {src};
    }

    std::uint64_t
    reduce(std::uint64_t state, std::uint64_t update,
           std::uint64_t) const override
    {
        return std::min(state, update);
    }

    std::uint64_t
    propagate(std::uint64_t value, graph::Weight w) const override
    {
        return value + w;
    }

  private:
    graph::VertexId src;
};

/**
 * Connected components by min-label propagation (asynchronous). Run on
 * a symmetrized graph for weakly connected components.
 */
class CcProgram : public VertexProgram
{
  public:
    std::string name() const override { return "cc"; }
    ExecMode mode() const override { return ExecMode::Async; }

    std::uint64_t
    initialProp(graph::VertexId v) const override
    {
        return v;
    }

    std::vector<graph::VertexId>
    initialActive() const override
    {
        std::vector<graph::VertexId> all(graph().numVertices());
        for (graph::VertexId v = 0; v < graph().numVertices(); ++v)
            all[v] = v;
        return all;
    }

    std::uint64_t
    reduce(std::uint64_t state, std::uint64_t update,
           std::uint64_t) const override
    {
        return std::min(state, update);
    }

    std::uint64_t
    propagate(std::uint64_t value, graph::Weight) const override
    {
        return value;
    }
};

/**
 * Delta-based PageRank executed in BSP mode (Sec. V explains why the
 * paper runs PR synchronously). rank() holds the result; the per-vertex
 * property carries the iteration's delta.
 */
class PageRankProgram : public VertexProgram
{
  public:
    PageRankProgram(double damping = 0.85, double tolerance = 1e-9,
                    std::uint64_t max_iterations = 20)
        : d(damping), tol(tolerance), maxIters(max_iterations)
    {
    }

    std::string name() const override { return "pr"; }
    ExecMode mode() const override { return ExecMode::Bsp; }

    void
    bind(const graph::Csr &g) override
    {
        VertexProgram::bind(g);
        rankVec.assign(g.numVertices(), base());
    }

    std::uint64_t
    initialProp(graph::VertexId) const override
    {
        return packDouble(base());
    }

    std::uint64_t initialAcc(graph::VertexId) const override
    {
        return packDouble(0.0);
    }

    std::vector<graph::VertexId> initialActive() const override
    {
        return {};
    }

    std::int64_t
    scheduledActivation(graph::VertexId) const override
    {
        return 0;
    }

    std::uint64_t
    reduce(std::uint64_t state, std::uint64_t update,
           std::uint64_t) const override
    {
        return packDouble(unpackDouble(state) + unpackDouble(update));
    }

    std::uint64_t
    propagateValue(std::uint64_t cur, graph::VertexId v) const override
    {
        const auto deg = static_cast<double>(graph().degree(v));
        const double delta = unpackDouble(cur);
        return packDouble(deg > 0 ? d * delta / deg : 0.0);
    }

    std::uint64_t
    propagate(std::uint64_t value, graph::Weight) const override
    {
        return value;
    }

    BarrierOutcome
    bspApply(std::uint64_t, std::uint64_t acc, graph::VertexId v) override
    {
        const double delta = unpackDouble(acc);
        rankVec[v] += delta;
        BarrierOutcome out;
        out.newCur = packDouble(delta);
        out.newAcc = packDouble(0.0);
        out.active = delta > tol;
        return out;
    }

    std::uint64_t maxIterations() const override { return maxIters; }

    /** The converged (or budget-limited) PageRank vector. */
    const std::vector<double> &rank() const { return rankVec; }

  private:
    double
    base() const
    {
        return (1.0 - d) / static_cast<double>(graph().numVertices());
    }

    double d;
    double tol;
    std::uint64_t maxIters;
    std::vector<double> rankVec;
};

/**
 * Betweenness centrality, forward phase: level-synchronous BFS counting
 * shortest paths (sigma). The final property packs [level, sigma].
 */
class BcForwardProgram : public VertexProgram
{
  public:
    explicit BcForwardProgram(graph::VertexId source) : src(source) {}

    static constexpr std::uint32_t unreachedLevel = 0xFFFF;

    std::string name() const override { return "bc_fwd"; }
    ExecMode mode() const override { return ExecMode::Bsp; }

    std::uint64_t
    initialProp(graph::VertexId v) const override
    {
        return v == src ? packLevelSigma(0, 1)
                        : packLevelSigma(unreachedLevel, 0);
    }

    std::uint64_t
    initialAcc(graph::VertexId) const override
    {
        return packLevelSigma(unreachedLevel, 0);
    }

    std::vector<graph::VertexId>
    initialActive() const override
    {
        return {src};
    }

    std::uint64_t
    reduce(std::uint64_t state, std::uint64_t update,
           std::uint64_t) const override
    {
        const std::uint32_t ls = unpackLevel(state);
        const std::uint32_t lu = unpackLevel(update);
        if (lu < ls)
            return update;
        if (lu == ls && lu != unreachedLevel) {
            const std::uint64_t sigma =
                unpackSigma(state) + unpackSigma(update);
            if (sigma >> 48)
                sim::fatal("BC shortest-path count at BFS level ", ls,
                           " exceeds the 48-bit sigma field of the packed "
                           "[level:16][sigma:48] forward state; the graph "
                           "has too many equal-length shortest paths from "
                           "the source for this BC model");
            return packLevelSigma(ls, sigma);
        }
        return state;
    }

    std::uint64_t
    propagate(std::uint64_t value, graph::Weight) const override
    {
        return packLevelSigma(unpackLevel(value) + 1, unpackSigma(value));
    }

    BarrierOutcome
    bspApply(std::uint64_t cur, std::uint64_t acc,
             graph::VertexId) override
    {
        BarrierOutcome out;
        out.newAcc = packLevelSigma(unreachedLevel, 0);
        if (unpackLevel(acc) < unpackLevel(cur)) {
            out.newCur = acc;
            out.active = true;
        } else {
            out.newCur = cur;
            out.active = false;
        }
        return out;
    }

  private:
    graph::VertexId src;
};

/**
 * Betweenness centrality, backward phase: dependency accumulation by
 * descending BFS level (Brandes). Activation follows the level schedule
 * (scheduledActivation), not messages. delta() holds the result.
 */
class BcBackwardProgram : public VertexProgram
{
  public:
    /**
     * @param levels  per-vertex BFS level from the forward phase.
     * @param sigmas  per-vertex shortest-path counts.
     * @param max_level deepest reached level D.
     */
    BcBackwardProgram(std::vector<std::uint32_t> levels,
                      std::vector<std::uint64_t> sigmas,
                      std::uint32_t max_level)
        : level(std::move(levels)), sigma(std::move(sigmas)),
          maxLevel(max_level)
    {
    }

    std::string name() const override { return "bc_bwd"; }
    ExecMode mode() const override { return ExecMode::Bsp; }

    void
    bind(const graph::Csr &g) override
    {
        VertexProgram::bind(g);
        deltaVec.assign(g.numVertices(), 0.0);
    }

    std::uint64_t
    initialProp(graph::VertexId v) const override
    {
        return packLevelSigma(level[v], sigma[v]);
    }

    std::uint64_t
    initialAcc(graph::VertexId) const override
    {
        return packDouble(0.0);
    }

    std::vector<graph::VertexId> initialActive() const override
    {
        return {};
    }

    std::int64_t
    scheduledActivation(graph::VertexId v) const override
    {
        if (level[v] == BcForwardProgram::unreachedLevel)
            return -1;
        return static_cast<std::int64_t>(maxLevel - level[v]);
    }

    std::uint64_t
    reduce(std::uint64_t state, std::uint64_t update,
           std::uint64_t cur) const override
    {
        const std::uint32_t my_level = unpackLevel(cur);
        if (unpackValueLevel(update) != my_level + 1)
            return state;
        return packDouble(unpackDouble(state) + unpackValue(update));
    }

    std::uint64_t
    propagateValue(std::uint64_t cur, graph::VertexId v) const override
    {
        const auto s = static_cast<double>(unpackSigma(cur));
        const double value = s > 0 ? (1.0 + deltaVec[v]) / s : 0.0;
        return packValueLevel(value, unpackLevel(cur));
    }

    std::uint64_t
    propagate(std::uint64_t value, graph::Weight) const override
    {
        return value;
    }

    BarrierOutcome
    bspApply(std::uint64_t cur, std::uint64_t acc,
             graph::VertexId v) override
    {
        deltaVec[v] += static_cast<double>(sigma[v]) * unpackDouble(acc);
        BarrierOutcome out;
        out.newCur = cur;
        out.newAcc = packDouble(0.0);
        out.active = false;
        return out;
    }

    /** Per-vertex dependency (the BC contribution of this source). */
    const std::vector<double> &delta() const { return deltaVec; }

  private:
    std::vector<std::uint32_t> level;
    std::vector<std::uint64_t> sigma;
    std::uint32_t maxLevel;
    std::vector<double> deltaVec;
};

} // namespace nova::workloads

#endif // NOVA_WORKLOADS_PROGRAMS_HH
