/**
 * @file
 * Tests of the differential fuzzing and replay harness: fuzzer
 * determinism and coverage, clean differential sweeps, injected-fault
 * detection on every engine, token round-trips and bit-exact engine
 * replay.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/system.hh"
#include "graph/partition.hh"
#include "verify/differential.hh"
#include "verify/fuzz.hh"
#include "verify/replay.hh"
#include "workloads/programs.hh"

using namespace nova;
using verify::Algo;
using verify::CaseOutcome;
using verify::DiffOptions;
using verify::EngineKind;
using verify::FuzzedGraph;
using verify::ReplayCase;

TEST(Fuzzer, RandomAccessDeterminism)
{
    for (std::uint64_t i : {0ull, 1ull, 7ull, 42ull, 199ull}) {
        const FuzzedGraph a = verify::fuzzCase(5, i);
        const FuzzedGraph b = verify::fuzzCase(5, i);
        EXPECT_EQ(a.description, b.description);
        EXPECT_EQ(a.source, b.source);
        EXPECT_EQ(a.graph.rowPtr(), b.graph.rowPtr());
        EXPECT_EQ(a.graph.dests(), b.graph.dests());
        EXPECT_EQ(a.graph.weights(), b.graph.weights());
    }
}

TEST(Fuzzer, SeedsAndIndicesDecorrelate)
{
    const FuzzedGraph base = verify::fuzzCase(5, 3);
    const FuzzedGraph other_seed = verify::fuzzCase(6, 3);
    const FuzzedGraph other_index = verify::fuzzCase(5, 4);
    EXPECT_TRUE(base.description != other_seed.description ||
                base.graph.dests() != other_seed.graph.dests());
    EXPECT_TRUE(base.description != other_index.description ||
                base.graph.dests() != other_index.graph.dests());
}

TEST(Fuzzer, CoversEveryFamily)
{
    std::set<verify::GraphFamily> seen;
    for (std::uint64_t i = 0; i < 400; ++i)
        seen.insert(verify::fuzzCase(11, i).family);
    EXPECT_EQ(seen.size(), verify::numGraphFamilies)
        << "some structural family was never sampled";
}

TEST(Fuzzer, RespectsBounds)
{
    verify::FuzzerConfig cfg;
    cfg.maxVertices = 64;
    cfg.maxEdges = 256;
    for (std::uint64_t i = 0; i < 100; ++i) {
        const FuzzedGraph f = verify::fuzzCase(13, i, cfg);
        ASSERT_GE(f.graph.numVertices(), 1u) << f.description;
        ASSERT_LE(f.graph.numVertices(), cfg.maxVertices)
            << f.description;
        ASSERT_LE(f.graph.numEdges(), 552u) << f.description;
        if (f.graph.numVertices() > 0) {
            ASSERT_LT(f.source, f.graph.numVertices()) << f.description;
        }
    }
}

TEST(Fuzzer, ProducesDegenerateShapes)
{
    bool saw_edgeless = false, saw_self_loop = false;
    bool saw_zero_weight = false;
    for (std::uint64_t i = 0; i < 300; ++i) {
        const FuzzedGraph f = verify::fuzzCase(17, i);
        const graph::Csr &g = f.graph;
        saw_edgeless = saw_edgeless || g.numEdges() == 0;
        for (graph::VertexId v = 0; v < g.numVertices(); ++v)
            for (graph::EdgeId e = g.edgeBegin(v); e < g.edgeEnd(v); ++e) {
                saw_self_loop = saw_self_loop || g.edgeDest(e) == v;
                saw_zero_weight =
                    saw_zero_weight || g.edgeWeight(e) == 0;
            }
    }
    EXPECT_TRUE(saw_edgeless);
    EXPECT_TRUE(saw_self_loop);
    EXPECT_TRUE(saw_zero_weight);
}

TEST(Differential, CleanSweepAllEnginesAgree)
{
    const verify::FuzzSummary summary = verify::runFuzz(3, 8, {});
    EXPECT_EQ(summary.casesRun, 8u);
    EXPECT_EQ(summary.runsExecuted, 8u * 4 * 3);
    for (const CaseOutcome &fail : summary.failures)
        ADD_FAILURE() << "case #" << fail.index << " ("
                      << fail.graphDescription << "): "
                      << fail.divergences.front().detail;
}

TEST(Differential, CaseRerunIsDeterministic)
{
    DiffOptions opt;
    const CaseOutcome a = verify::runCase(9, 4, opt);
    const CaseOutcome b = verify::runCase(9, 4, opt);
    EXPECT_EQ(a.graphDescription, b.graphDescription);
    EXPECT_EQ(a.divergences.size(), b.divergences.size());
    EXPECT_EQ(a.runsExecuted, b.runsExecuted);
}

TEST(Differential, InjectedFaultIsDetectedAndReplaysExactly)
{
    DiffOptions opt;
    opt.algos = {Algo::Sssp};
    opt.engines = {EngineKind::Nova};
    opt.fault.enabled = true;
    opt.fault.afterReduces = 0;
    opt.fault.xorMask = ~std::uint64_t(0);

    // A corrupted reduction can be masked by later updates (min-style
    // reduce), so scan a few cases; the fault must surface quickly.
    bool found = false;
    for (std::uint64_t index = 0; index < 20 && !found; ++index) {
        const CaseOutcome outcome = verify::runCase(21, index, opt);
        if (outcome.ok())
            continue;
        found = true;
        ASSERT_EQ(outcome.divergences.size(), 1u);
        const verify::Divergence &d = outcome.divergences.front();
        EXPECT_EQ(d.algo, Algo::Sssp);
        EXPECT_EQ(d.engine, EngineKind::Nova);
        EXPECT_FALSE(d.detail.empty());

        // The emitted token must reproduce the identical divergence.
        ReplayCase c;
        ASSERT_TRUE(verify::parseReplayToken(d.replayToken, c))
            << d.replayToken;
        EXPECT_EQ(c.seed, 21u);
        EXPECT_EQ(c.index, index);
        EXPECT_TRUE(c.fault.enabled);
        const CaseOutcome replayed = verify::replayCase(c);
        EXPECT_EQ(replayed.graphDescription, outcome.graphDescription);
        ASSERT_EQ(replayed.divergences.size(), 1u);
        EXPECT_EQ(replayed.divergences.front().detail, d.detail);
        EXPECT_EQ(replayed.divergences.front().replayToken,
                  d.replayToken);
    }
    EXPECT_TRUE(found)
        << "no injected fault surfaced in 20 fuzz cases";
}

TEST(EngineFaultMatrix, UnrecoveredFaultStillDetected)
{
    // The harness must keep catching corruption on an engine without
    // an event-driven hardware model too.
    DiffOptions opt;
    opt.algos = {Algo::Sssp};
    opt.engines = {EngineKind::Ligra};
    opt.fault.enabled = true;
    opt.fault.afterReduces = 3;
    const CaseOutcome outcome = verify::runCase(5, 0, opt);
    EXPECT_FALSE(outcome.ok());
}

TEST(Differential, FaultFreeReplayOfCleanCasePasses)
{
    ReplayCase c;
    c.seed = 3;
    c.index = 2;
    c.algo = Algo::Bfs;
    c.engine = EngineKind::Ligra;
    const CaseOutcome outcome = verify::replayCase(c);
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.runsExecuted, 1u);
}

TEST(Replay, TokenRoundTrip)
{
    ReplayCase c;
    c.seed = 0xdeadbeef12345ULL;
    c.index = 321;
    c.algo = Algo::Cc;
    c.engine = EngineKind::PolyGraph;
    c.fuzzer.maxVertices = 128;
    c.fuzzer.maxEdges = 999;
    c.fault.enabled = true;
    c.fault.afterReduces = 17;
    c.fault.xorMask = 0xff00ff00ULL;

    const std::string token = verify::encodeReplayToken(c);
    ReplayCase parsed;
    ASSERT_TRUE(verify::parseReplayToken(token, parsed)) << token;
    EXPECT_EQ(parsed.seed, c.seed);
    EXPECT_EQ(parsed.index, c.index);
    EXPECT_EQ(parsed.algo, c.algo);
    EXPECT_EQ(parsed.engine, c.engine);
    EXPECT_EQ(parsed.fuzzer.maxVertices, c.fuzzer.maxVertices);
    EXPECT_EQ(parsed.fuzzer.maxEdges, c.fuzzer.maxEdges);
    EXPECT_TRUE(parsed.fault.enabled);
    EXPECT_EQ(parsed.fault.afterReduces, c.fault.afterReduces);
    EXPECT_EQ(parsed.fault.xorMask, c.fault.xorMask);

    // Fault-free tokens omit the trailing fault field.
    c.fault.enabled = false;
    const std::string clean = verify::encodeReplayToken(c);
    EXPECT_EQ(clean.find(".f"), std::string::npos);
    ASSERT_TRUE(verify::parseReplayToken(clean, parsed));
    EXPECT_FALSE(parsed.fault.enabled);
}

TEST(Replay, MalformedTokensRejected)
{
    ReplayCase c;
    for (const char *bad :
         {"", "NV1", "garbage", "NV2.s1.i0.bfs.nova.v256.e2048",
          "NV1.s1.i0.quux.nova.v256.e2048",
          "NV1.s1.i0.bfs.gpu.v256.e2048",
          "NV1.sZZ.i0.bfs.nova.v256.e2048",
          "NV1.s1.i0.bfs.nova.v256",
          "NV1.s1.i0.bfs.nova.v256.e2048.fnope",
          "NV1.s1.i0.bfs.nova.v256.e2048.f1x2.extra"})
        EXPECT_FALSE(verify::parseReplayToken(bad, c)) << bad;
}

TEST(ReplayToken, LegacyUnrecoveredFormStillParses)
{
    ReplayCase parsed;
    ASSERT_TRUE(verify::parseReplayToken(
        "NV1.s1.i12.sssp.nova.v256.e2048.f3xff", parsed));
    EXPECT_TRUE(parsed.fault.enabled);
    EXPECT_EQ(parsed.fault.afterReduces, 3u);
    EXPECT_EQ(parsed.fault.xorMask, 0xffu);
}

TEST(ReplayToken, BadScheduleSuffixRejected)
{
    // Tokens carry no recovered-fault field and no hardware fault
    // schedule.
    ReplayCase parsed;
    for (const char *bad :
         {"NV1.s1.i12.sssp.nova.v256.e2048.Sbogus.kind:n=1",
          "NV1.s1.i12.sssp.nova.v256.e2048.S",
          "NV1.s1.i12.sssp.nova.v256.e2048.r3xff",
          "NV1.s1.i12.sssp.nova.v256.e2048.Sdram.bitflip:n=1"})
        EXPECT_FALSE(verify::parseReplayToken(bad, parsed)) << bad;
}

TEST(Replay, CommandContainsToken)
{
    ReplayCase c;
    c.seed = 7;
    const std::string cmd = verify::replayCommand(c);
    EXPECT_NE(cmd.find("nova_cli verify --replay="), std::string::npos);
    EXPECT_NE(cmd.find(verify::encodeReplayToken(c)), std::string::npos);
}

TEST(Replay, NovaRunsAreBitExactAcrossRepeats)
{
    // The full stack (generators, mapping, event queue, DRAM, NoC) must
    // be schedule-deterministic: two identical runs end with the same
    // tick count, properties, event count and event-order fingerprint.
    const FuzzedGraph f = verify::fuzzCase(31, 6);
    core::NovaConfig cfg;
    cfg.pesPerGpn = 4;
    cfg.cacheBytesPerPe = 512;
    const auto map =
        graph::randomMapping(f.graph.numVertices(), cfg.totalPes(), 2);

    auto run_once = [&] {
        core::NovaSystem nova(cfg);
        workloads::BfsProgram prog(f.source);
        return nova.run(prog, f.graph, map);
    };
    const workloads::RunResult a = run_once();
    const workloads::RunResult b = run_once();
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.props, b.props);
    EXPECT_EQ(a.extra.at("sim.events"), b.extra.at("sim.events"));
    EXPECT_EQ(a.extra.at("sim.fingerprint"),
              b.extra.at("sim.fingerprint"));
}
