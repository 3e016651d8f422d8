/**
 * @file
 * The multi-tenant serving layer (core/serving.hh): deterministic
 * arrival generation, the re-entrant query programs, report
 * bit-identity across host thread counts and queue backends, tenant
 * fairness accounting, overload shedding, quota/batch enforcement, and
 * campaign checkpoint/resume equivalence with an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/serving.hh"
#include "core/system.hh"
#include "graph/generators.hh"
#include "graph/partition.hh"
#include "sim/arrivals.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "workloads/queries.hh"
#include "workloads/reference.hh"

using namespace nova;
using graph::VertexId;

namespace
{

graph::Csr
servingGraph(VertexId vertices = 64, std::uint64_t edges = 256)
{
    graph::RmatParams p;
    p.numVertices = vertices;
    p.numEdges = edges;
    p.maxWeight = 32;
    p.seed = 17;
    return graph::generateRmat(p);
}

/** A small, fast campaign configuration over the test graph. */
core::ServingConfig
smallCampaign()
{
    core::ServingConfig cfg;
    cfg.graphSpec = "test:rmat:64:256";
    cfg.arrivals = sim::ArrivalSpec::parse("poisson:200000");
    cfg.seed = 5;
    cfg.tenants = 3;
    cfg.duration = 8'000'000;
    cfg.groups = 2;
    cfg.batchWindow = 400'000;
    cfg.scale = 100;
    return cfg;
}

std::string
runCampaign(const core::ServingConfig &cfg, const graph::Csr &g,
            std::uint32_t threads, sim::EventQueue::Impl impl)
{
    sim::EventQueue::ScopedDefaultImpl forced(impl);
    core::ServingConfig c = cfg;
    c.threads = threads;
    core::ServingSystem sys(c, g);
    return sys.run().json;
}

TEST(ServingQuantiles, NearestRankPercentiles)
{
    sim::stats::Quantiles q;
    EXPECT_EQ(q.count(), 0u);
    EXPECT_EQ(q.percentile(99), 0u);
    EXPECT_EQ(q.mean(), 0u);
    for (std::uint64_t v : {30, 10, 50, 20, 40})
        q.sample(v);
    EXPECT_EQ(q.count(), 5u);
    EXPECT_EQ(q.mean(), 30u);
    EXPECT_EQ(q.max(), 50u);
    // Nearest rank over {10,20,30,40,50}: p50 -> 3rd, p95/p99 -> 5th.
    EXPECT_EQ(q.percentile(50), 30u);
    EXPECT_EQ(q.percentile(95), 50u);
    EXPECT_EQ(q.percentile(99), 50u);
    EXPECT_EQ(q.percentile(1), 10u);
    EXPECT_EQ(q.percentile(100), 50u);
    // Sampling after a percentile query resorts lazily.
    q.sample(5);
    EXPECT_EQ(q.percentile(1), 5u);
}

TEST(ServingQuantiles, CheckpointRoundTrip)
{
    sim::stats::Quantiles a;
    for (std::uint64_t v : {7, 3, 9, 1})
        a.sample(v);
    sim::stats::Quantiles b;
    b.setSamples(a.samples());
    EXPECT_EQ(b.count(), 4u);
    EXPECT_EQ(b.percentile(50), 3u);
    EXPECT_EQ(b.samples(), a.samples());
}

TEST(ServingArrivals, PoissonDeterministicAndOrdered)
{
    const auto spec = sim::ArrivalSpec::parse("poisson:5000");
    EXPECT_EQ(spec.kind, sim::ArrivalSpec::Kind::Poisson);
    EXPECT_EQ(spec.meanGap, 5000u);
    const auto a = sim::generateArrivals(spec, 42, 4, 3, 400'000);
    const auto b = sim::generateArrivals(spec, 42, 4, 3, 400'000);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].paramA, b[i].paramA);
        EXPECT_LT(a[i].tenant, 4u);
        EXPECT_LT(a[i].kind, 3u);
        EXPECT_LE(a[i].at, 400'000u);
        if (i > 0) {
            EXPECT_GT(a[i].at, a[i - 1].at); // gaps are >= 1 tick
        }
    }
    // A different seed draws a different stream.
    const auto c = sim::generateArrivals(spec, 43, 4, 3, 400'000);
    bool same = c.size() == a.size();
    for (std::size_t i = 0; same && i < a.size(); ++i)
        same = c[i].at == a[i].at && c[i].paramA == a[i].paramA;
    EXPECT_FALSE(same);
}

TEST(ServingArrivals, TraceParsing)
{
    const std::string path = "serving_trace_test.txt";
    {
        std::ofstream os(path, std::ios::trunc);
        os << "# comment line\n"
           << "1000 2 msbfs 42 7\n"
           << "500 0 ppr 11\n" // out of order: sorted by tick
           << "9000 1 2 5 6\n"
           << "999999999 0 p2p 1 2\n"; // beyond horizon: dropped
    }
    const auto spec = sim::ArrivalSpec::parse("trace:" + path);
    const auto a = sim::generateArrivals(spec, 7, 3, 3, 10'000);
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a[0].at, 500u);
    EXPECT_EQ(a[0].tenant, 0u);
    EXPECT_EQ(a[0].kind, 1u); // "ppr"
    EXPECT_EQ(a[0].paramA, 11u);
    EXPECT_EQ(a[1].at, 1000u);
    EXPECT_EQ(a[1].kind, 0u); // "msbfs"
    EXPECT_EQ(a[1].paramA, 42u);
    EXPECT_EQ(a[1].paramB, 7u);
    EXPECT_EQ(a[2].at, 9000u);
    EXPECT_EQ(a[2].kind, 2u); // numeric kind token
    std::remove(path.c_str());
}

TEST(ServingArrivals, RejectsMalformedSpecs)
{
    EXPECT_THROW(sim::ArrivalSpec::parse("poisson:zero"),
                 sim::FatalError);
    EXPECT_THROW(sim::ArrivalSpec::parse("bursts:10"),
                 sim::FatalError);
    const std::string path = "serving_trace_bad.txt";
    {
        std::ofstream os(path, std::ios::trunc);
        os << "1000 0 msbfs 1 2 3 junk\n";
    }
    EXPECT_THROW(sim::generateArrivals(
                     sim::ArrivalSpec::parse("trace:" + path), 1, 2, 3,
                     10'000),
                 sim::FatalError);
    std::remove(path.c_str());
}

TEST(ServingQueries, MultiSourceBfsMatchesReference)
{
    const graph::Csr g = servingGraph();
    const std::vector<VertexId> seeds = {3, 17, 40};
    workloads::MultiSourceBfsProgram prog(seeds);
    core::NovaConfig cfg = core::NovaConfig{}.scaled(100);
    core::NovaSystem sys(cfg);
    const auto map =
        graph::VertexMapping::interleave(g.numVertices(), 8);
    const auto r = sys.run(prog, g, map);

    namespace ref = workloads::reference;
    std::vector<std::uint64_t> want(g.numVertices(), ~0ULL);
    for (const VertexId s : seeds) {
        const auto d = ref::bfsDepths(g, s);
        for (VertexId v = 0; v < g.numVertices(); ++v)
            want[v] = std::min(want[v], d[v]);
    }
    EXPECT_EQ(r.props, want);
}

TEST(ServingQueries, PointToPointSsspMatchesReference)
{
    const graph::Csr g = servingGraph();
    workloads::PointToPointSsspProgram prog(2, 55);
    EXPECT_EQ(prog.target(), 55u);
    core::NovaConfig cfg = core::NovaConfig{}.scaled(100);
    core::NovaSystem sys(cfg);
    const auto map =
        graph::VertexMapping::interleave(g.numVertices(), 8);
    const auto r = sys.run(prog, g, map);
    EXPECT_EQ(r.props, workloads::reference::ssspDistances(g, 2));
}

TEST(ServingQueries, PersonalizedPageRankConcentratesAtSource)
{
    const graph::Csr g = servingGraph();
    const VertexId src = 9;
    workloads::PersonalizedPageRankProgram prog(src, 0.85, 1e-9, 10);
    core::NovaConfig cfg = core::NovaConfig{}.scaled(100);
    core::NovaSystem sys(cfg);
    const auto map =
        graph::VertexMapping::interleave(g.numVertices(), 8);
    sys.run(prog, g, map);
    ASSERT_EQ(prog.rank().size(), g.numVertices());
    double total = 0;
    VertexId argmax = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        EXPECT_GE(prog.rank()[v], 0.0);
        total += prog.rank()[v];
        if (prog.rank()[v] > prog.rank()[argmax])
            argmax = v;
    }
    // The restart mass stays at the source; teleportation elsewhere
    // is zero, so nobody can outrank it.
    EXPECT_GE(prog.rank()[src], 0.15 - 1e-12);
    EXPECT_EQ(argmax, src);
    EXPECT_LE(total, 1.0 + 1e-6);
}

TEST(ServingSystem, ReportBitIdenticalAcrossThreadsAndBackends)
{
    const graph::Csr g = servingGraph();
    const core::ServingConfig cfg = smallCampaign();
    const std::string base =
        runCampaign(cfg, g, 1, sim::EventQueue::Impl::LegacyHeap);
    EXPECT_NE(base.find("\"schema\": \"nova-serving-1\""),
              std::string::npos);
    EXPECT_EQ(base, runCampaign(cfg, g, 1,
                                sim::EventQueue::Impl::Calendar));
    EXPECT_EQ(base, runCampaign(cfg, g, 2,
                                sim::EventQueue::Impl::LegacyHeap));
    EXPECT_EQ(base, runCampaign(cfg, g, 2,
                                sim::EventQueue::Impl::Calendar));
}

TEST(ServingSystem, AccountingBalancesAcrossTenants)
{
    const graph::Csr g = servingGraph();
    core::ServingSystem sys(smallCampaign(), g);
    const core::ServingReport rep = sys.run();
    ASSERT_GT(rep.served, 0u);
    EXPECT_EQ(rep.offered,
              rep.served + rep.shed + rep.pendingAtEnd);
    EXPECT_FALSE(rep.stopped);
    // The drained campaign leaves nothing behind.
    EXPECT_EQ(rep.pendingAtEnd, 0u);

    // The stats tree carries the same totals.
    const auto &st = sys.stats();
    EXPECT_EQ(st.get("serve.offered"),
              static_cast<double>(rep.offered));
    EXPECT_EQ(st.get("serve.served"),
              static_cast<double>(rep.served));
    EXPECT_EQ(st.get("serve.latency.count"),
              static_cast<double>(rep.served));
    double per_tenant_served = 0;
    for (std::uint32_t t = 0; t < sys.config().tenants; ++t)
        per_tenant_served += st.get(
            "serve.tenant" + std::to_string(t) + ".served");
    EXPECT_EQ(per_tenant_served, static_cast<double>(rep.served));
}

TEST(ServingSystem, OverloadShedsAndStaysBalanced)
{
    const graph::Csr g = servingGraph();
    core::ServingConfig cfg = smallCampaign();
    cfg.arrivals = sim::ArrivalSpec::parse("poisson:1000");
    cfg.queueCap = 2;
    cfg.groups = 1;
    cfg.duration = 4'000'000;
    core::ServingSystem sys(cfg, g);
    const core::ServingReport rep = sys.run();
    EXPECT_GT(rep.shed, 0u);
    EXPECT_GT(rep.served, 0u);
    EXPECT_EQ(rep.offered,
              rep.served + rep.shed + rep.pendingAtEnd);
    // Every shed query left a record flagged as such.
    std::uint64_t shed_records = 0;
    for (const core::QueryRecord &r : sys.records())
        shed_records += r.shed ? 1 : 0;
    EXPECT_EQ(shed_records, rep.shed);
}

TEST(ServingSystem, QuotaAndBatchLimitsHold)
{
    const graph::Csr g = servingGraph();
    core::ServingConfig cfg = smallCampaign();
    cfg.arrivals = sim::ArrivalSpec::parse("poisson:50000");
    cfg.quotaPerTenant = 3;
    cfg.batchMax = 2;
    cfg.duration = 6'000'000;
    core::ServingSystem sys(cfg, g);
    sys.run();

    // Replay the lifecycle intervals: per tenant, the number of
    // queries simultaneously dispatched never exceeds the quota.
    std::map<std::uint32_t,
             std::vector<std::pair<sim::Tick, sim::Tick>>> spans;
    for (const core::QueryRecord &r : sys.records()) {
        if (r.shed)
            continue;
        EXPECT_LE(r.batchSize, cfg.batchMax);
        EXPECT_LE(r.arrivedAt, r.startedAt);
        EXPECT_LT(r.startedAt, r.finishedAt);
        spans[r.tenant].emplace_back(r.startedAt, r.finishedAt);
    }
    ASSERT_FALSE(spans.empty());
    for (const auto &[tenant, intervals] : spans) {
        for (const auto &[start, finish] : intervals) {
            std::uint32_t overlap = 0;
            for (const auto &[s2, f2] : intervals)
                overlap += (s2 < finish && f2 > start) ? 1 : 0;
            EXPECT_LE(overlap, cfg.quotaPerTenant)
                << "tenant " << tenant;
        }
    }
}

TEST(ServingSystem, ResumeMatchesUninterruptedRun)
{
    const graph::Csr g = servingGraph();
    core::ServingConfig cfg = smallCampaign();
    const std::string ckpt = "serving_test.ckpt";
    std::remove(ckpt.c_str());

    core::ServingSystem full(cfg, g);
    const core::ServingReport want = full.run();
    ASSERT_GT(want.served, 8u);

    core::ServingConfig stop_cfg = cfg;
    stop_cfg.stopAfter = want.served / 2;
    stop_cfg.ckptPath = ckpt;
    core::ServingSystem stopped(stop_cfg, g);
    const core::ServingReport part = stopped.run();
    EXPECT_TRUE(part.stopped);
    EXPECT_GE(part.served, stop_cfg.stopAfter);
    EXPECT_LT(part.served, want.served);

    core::ServingConfig resume_cfg = cfg;
    resume_cfg.resumePath = ckpt;
    core::ServingSystem resumed(resume_cfg, g);
    const core::ServingReport rep = resumed.run();
    EXPECT_EQ(rep.json, want.json);
    EXPECT_EQ(rep.fingerprint, want.fingerprint);
    std::remove(ckpt.c_str());
}

TEST(ServingSystem, ResumeRejectsMismatchedCampaign)
{
    const graph::Csr g = servingGraph();
    core::ServingConfig cfg = smallCampaign();
    const std::string ckpt = "serving_test_mismatch.ckpt";
    std::remove(ckpt.c_str());
    cfg.stopAfter = 4;
    cfg.ckptPath = ckpt;
    core::ServingSystem stopped(cfg, g);
    stopped.run();

    core::ServingConfig other = smallCampaign();
    other.resumePath = ckpt;
    other.seed = cfg.seed + 1; // different arrival stream
    core::ServingSystem sys(other, g);
    EXPECT_THROW(sys.run(), sim::FatalError);
    std::remove(ckpt.c_str());
}

TEST(ServingSystem, RejectsBadConfigurations)
{
    const graph::Csr g = servingGraph();
    core::ServingConfig cfg = smallCampaign();
    cfg.tenants = 0;
    EXPECT_THROW(core::ServingSystem(cfg, g), sim::FatalError);
    cfg = smallCampaign();
    cfg.groups = 0;
    EXPECT_THROW(core::ServingSystem(cfg, g), sim::FatalError);
    cfg = smallCampaign();
    cfg.batchMax = cfg.quotaPerTenant + 1;
    EXPECT_THROW(core::ServingSystem(cfg, g), sim::FatalError);
    cfg = smallCampaign();
    cfg.queueCap = 0;
    EXPECT_THROW(core::ServingSystem(cfg, g), sim::FatalError);
}

} // namespace
