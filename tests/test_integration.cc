/**
 * @file
 * Cross-engine integration sweep: every engine (NOVA in several
 * configurations, PolyGraph, Ligra) must produce reference-equal
 * results for every workload over a matrix of random graphs — the
 * repository's broadest correctness net.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "baselines/ligra.hh"
#include "baselines/polygraph.hh"
#include "core/system.hh"
#include "graph/generators.hh"
#include "graph/graph_stats.hh"
#include "graph/partition.hh"
#include "workloads/bc.hh"
#include "workloads/programs.hh"
#include "workloads/reference.hh"

using namespace nova;
using graph::VertexId;

namespace
{

// 64-bit so that Case (below) has no padding: gtest puts the raw bytes
// of each Case into its test's name, and uninitialised padding bytes
// made those names differ from build to build.
enum class EngineKind : std::uint64_t
{
    NovaSmall,
    NovaMultiGpn,
    NovaEventCount,
    PolyGraphSliced,
    Ligra,
};

const char *
engineName(EngineKind k)
{
    switch (k) {
      case EngineKind::NovaSmall:
        return "nova1gpn";
      case EngineKind::NovaMultiGpn:
        return "nova2gpn";
      case EngineKind::NovaEventCount:
        return "novaEventCount";
      case EngineKind::PolyGraphSliced:
        return "pgSliced";
      case EngineKind::Ligra:
        return "ligra";
    }
    return "?";
}

std::unique_ptr<workloads::GraphEngine>
makeEngine(EngineKind k)
{
    switch (k) {
      case EngineKind::NovaSmall: {
        core::NovaConfig cfg;
        cfg.pesPerGpn = 4;
        cfg.cacheBytesPerPe = 512;
        cfg.activeBufferEntries = 16;
        return std::make_unique<core::NovaSystem>(cfg);
      }
      case EngineKind::NovaMultiGpn: {
        core::NovaConfig cfg;
        cfg.numGpns = 2;
        cfg.pesPerGpn = 4;
        cfg.cacheBytesPerPe = 512;
        return std::make_unique<core::NovaSystem>(cfg);
      }
      case EngineKind::NovaEventCount: {
        core::NovaConfig cfg;
        cfg.pesPerGpn = 4;
        cfg.cacheBytesPerPe = 512;
        cfg.tracker = core::TrackerPolicy::EventCount;
        cfg.activeBufferEntries = 8;
        return std::make_unique<core::NovaSystem>(cfg);
      }
      case EngineKind::PolyGraphSliced: {
        baselines::PolyGraphConfig cfg;
        cfg.onChipBytes = 1024; // forces several slices
        return std::make_unique<baselines::PolyGraphModel>(cfg);
      }
      case EngineKind::Ligra:
        return std::make_unique<baselines::LigraEngine>();
    }
    sim::panic("bad engine kind");
}

std::uint32_t
partsFor(EngineKind k)
{
    switch (k) {
      case EngineKind::NovaSmall:
      case EngineKind::NovaEventCount:
        return 4;
      case EngineKind::NovaMultiGpn:
        return 8;
      default:
        return 1;
    }
}

struct Case
{
    EngineKind engine;
    std::uint64_t seed;
};

} // namespace

class IntegrationSweep : public ::testing::TestWithParam<Case>
{
  protected:
    graph::Csr
    makeGraph(bool weighted) const
    {
        graph::RmatParams p;
        p.numVertices = 384;
        p.numEdges = 3072;
        p.seed = GetParam().seed;
        p.maxWeight = weighted ? 31 : 1;
        return graph::generateRmat(p);
    }

    graph::VertexMapping
    mapFor(const graph::Csr &g) const
    {
        return graph::randomMapping(g.numVertices(),
                                    partsFor(GetParam().engine),
                                    GetParam().seed + 1);
    }
};

TEST_P(IntegrationSweep, Bfs)
{
    const auto g = makeGraph(false);
    const VertexId src = graph::highestDegreeVertex(g);
    auto engine = makeEngine(GetParam().engine);
    workloads::BfsProgram prog(src);
    const auto r = engine->run(prog, g, mapFor(g));
    EXPECT_EQ(r.props, workloads::reference::bfsDepths(g, src));
}

TEST_P(IntegrationSweep, Sssp)
{
    const auto g = makeGraph(true);
    const VertexId src = graph::highestDegreeVertex(g);
    auto engine = makeEngine(GetParam().engine);
    workloads::SsspProgram prog(src);
    const auto r = engine->run(prog, g, mapFor(g));
    EXPECT_EQ(r.props, workloads::reference::ssspDistances(g, src));
}

TEST_P(IntegrationSweep, Cc)
{
    const auto g = graph::symmetrize(makeGraph(false));
    auto engine = makeEngine(GetParam().engine);
    workloads::CcProgram prog;
    const auto r = engine->run(prog, g, mapFor(g));
    EXPECT_EQ(r.props, workloads::reference::ccLabels(g));
}

TEST_P(IntegrationSweep, PageRank)
{
    const auto g = makeGraph(false);
    auto engine = makeEngine(GetParam().engine);
    workloads::PageRankProgram prog(0.85, 1e-11, 8);
    engine->run(prog, g, mapFor(g));
    const auto ref =
        workloads::reference::pagerankDelta(g, 0.85, 1e-11, 8);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        ASSERT_NEAR(prog.rank()[v], ref[v], 1e-9 + 1e-6 * ref[v])
            << "vertex " << v;
}

TEST_P(IntegrationSweep, Bc)
{
    const auto g = graph::symmetrize(makeGraph(false));
    const VertexId src = graph::highestDegreeVertex(g);
    auto engine = makeEngine(GetParam().engine);
    const auto bc = workloads::runBc(*engine, g, mapFor(g), src);
    const auto ref = workloads::reference::bcDependencies(g, src);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        ASSERT_NEAR(bc.centrality[v], ref[v],
                    1e-6 + 1e-4 * std::abs(ref[v]))
            << "vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, IntegrationSweep,
    ::testing::Values(
        Case{EngineKind::NovaSmall, 1}, Case{EngineKind::NovaSmall, 2},
        Case{EngineKind::NovaSmall, 3},
        Case{EngineKind::NovaMultiGpn, 1},
        Case{EngineKind::NovaMultiGpn, 2},
        Case{EngineKind::NovaEventCount, 1},
        Case{EngineKind::NovaEventCount, 2},
        Case{EngineKind::PolyGraphSliced, 1},
        Case{EngineKind::PolyGraphSliced, 2},
        Case{EngineKind::Ligra, 1}, Case{EngineKind::Ligra, 2}),
    [](const auto &info) {
        return std::string(engineName(info.param.engine)) + "_seed" +
               std::to_string(info.param.seed);
    });

TEST(IntegrationMisc, HighDiameterGraphAllEngines)
{
    // A weighted grid exercises deep frontiers and the prefetcher's
    // sparse-frontier path on every engine.
    graph::RoadGridParams p;
    p.width = 24;
    p.height = 24;
    p.seed = 6;
    p.maxWeight = 15;
    const auto g = graph::generateRoadGrid(p);
    const VertexId src = 0;
    const auto ref = workloads::reference::ssspDistances(g, src);
    for (const auto kind :
         {EngineKind::NovaSmall, EngineKind::PolyGraphSliced,
          EngineKind::Ligra}) {
        auto engine = makeEngine(kind);
        workloads::SsspProgram prog(src);
        const auto map = graph::randomMapping(g.numVertices(),
                                              partsFor(kind), 9);
        const auto r = engine->run(prog, g, map);
        EXPECT_EQ(r.props, ref) << engineName(kind);
    }
}
