/**
 * @file
 * Golden exact counts of the NOVA model.
 *
 * A fixed matrix of fault-free runs — BFS, SSSP and CC on the Twitter
 * preset, PageRank and BC on the road preset, each on 1 GPN serial,
 * 4 GPNs serial and 4 GPNs sharded over 2 host threads — built exactly
 * as `nova_cli run` builds them (scaled default config, random mapping
 * with seed 1, highest-out-degree source). Every engine run of every
 * cell must reproduce its pinned tick count, event count, message
 * counts, coalesced updates, supersteps and 52-bit event-order
 * fingerprint. A change that is meant to alter simulated behaviour
 * updates the table; the failure message prints the new rows.
 *
 * GoldenLegacyHeap runs the same cells with every event queue on the
 * LegacyHeap reference backend and must reproduce the same table, which
 * compares the calendar queue with the reference on the full model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "core/system.hh"
#include "graph/graph_stats.hh"
#include "graph/partition.hh"
#include "graph/presets.hh"
#include "sim/event_queue.hh"
#include "workloads/bc.hh"
#include "workloads/programs.hh"

using namespace nova;

namespace
{

/** The pinned counts of one NovaSystem::run call. */
struct Counts
{
    std::uint64_t ticks;
    std::uint64_t events;
    std::uint64_t generated;
    std::uint64_t processed;
    std::uint64_t coalesced;
    std::uint64_t supersteps;
    std::uint64_t fingerprint;

    bool operator==(const Counts &) const = default;
};

/** Records the counts of every run it forwards to a NovaSystem. */
class RecordingEngine : public workloads::GraphEngine
{
  public:
    explicit RecordingEngine(core::NovaConfig cfg) : system(std::move(cfg))
    {
    }

    std::string name() const override { return system.name(); }

    workloads::RunResult
    run(workloads::VertexProgram &program, const graph::Csr &g,
        const graph::VertexMapping &map) override
    {
        workloads::RunResult r = system.run(program, g, map);
        runs.push_back(Counts{
            r.ticks,
            static_cast<std::uint64_t>(r.extra.at("sim.events")),
            r.messagesGenerated, r.messagesProcessed, r.coalescedUpdates,
            r.bspIterations,
            static_cast<std::uint64_t>(r.extra.at("sim.fingerprint"))});
        return r;
    }

    std::vector<Counts> runs;

  private:
    core::NovaSystem system;
};

struct Cell
{
    const char *workload; ///< bfs, sssp, cc, pr or bc
    std::uint32_t gpns;
    std::uint32_t threads; ///< 0 = serial scheduler
    std::vector<Counts> want;
};

std::vector<Counts>
runCell(const Cell &c)
{
    const std::string w = c.workload;
    const bool road = w == "pr" || w == "bc";
    const double scale = road ? 8000 : 32000;
    graph::Csr g = road ? graph::makeRoadUsa(scale, 1).graph
                        : graph::makeTwitter(scale, 1).graph;
    if (w == "cc" || w == "bc")
        g = graph::symmetrize(g);
    const graph::VertexId src = graph::highestDegreeVertex(g);

    core::NovaConfig cfg = core::NovaConfig{}.scaled(scale);
    cfg.numGpns = c.gpns;
    cfg.threads = c.threads;
    const graph::VertexMapping map =
        graph::randomMapping(g.numVertices(), c.gpns * cfg.pesPerGpn, 1);

    RecordingEngine eng(cfg);
    if (w == "bfs") {
        workloads::BfsProgram prog(src);
        eng.run(prog, g, map);
    } else if (w == "sssp") {
        workloads::SsspProgram prog(src);
        eng.run(prog, g, map);
    } else if (w == "cc") {
        workloads::CcProgram prog;
        eng.run(prog, g, map);
    } else if (w == "pr") {
        workloads::PageRankProgram prog(0.85, 1e-9, 10);
        eng.run(prog, g, map);
    } else {
        workloads::runBc(eng, g, map, src);
    }
    return eng.runs;
}

std::string
describe(const std::vector<Counts> &runs)
{
    std::string out;
    char line[256];
    for (const Counts &r : runs) {
        std::snprintf(line, sizeof(line),
                      "{%llu, %llu, %llu, %llu, %llu, %llu, 0x%llx},\n",
                      static_cast<unsigned long long>(r.ticks),
                      static_cast<unsigned long long>(r.events),
                      static_cast<unsigned long long>(r.generated),
                      static_cast<unsigned long long>(r.processed),
                      static_cast<unsigned long long>(r.coalesced),
                      static_cast<unsigned long long>(r.supersteps),
                      static_cast<unsigned long long>(r.fingerprint));
        out += line;
    }
    return out;
}

// {ticks, events, generated, processed, coalesced, supersteps,
//  fingerprint}; BC cells pin the forward then the backward pass.
const std::vector<Cell> kGolden = {
    {"bfs", 1, 0,
     {{29314500, 410473, 78409, 78409, 132, 0, 0x7388d2212717}}},
    {"bfs", 4, 0,
     {{10136000, 704397, 71229, 71229, 0, 0, 0x78ec0af859817}}},
    {"bfs", 4, 2,
     {{15931501, 1132888, 81415, 81415, 1, 0, 0x105fa4318fb33}}},
    {"sssp", 1, 0,
     {{58743500, 825892, 155102, 155102, 1662, 0, 0xa11674a2bcbc3}}},
    {"sssp", 4, 0,
     {{25843000, 1860081, 190178, 190178, 125, 0, 0xee83fed7bb445}}},
    {"sssp", 4, 2,
     {{47617001, 3517266, 242571, 242571, 611, 0, 0x3fc3ec497041f}}},
    {"cc", 1, 0,
     {{41538000, 535762, 100414, 100414, 2997, 0, 0xf1a982943c34}}},
    {"cc", 4, 0,
     {{32790500, 1725248, 263307, 263307, 1702, 0, 0xb19ad84c9d0d7}}},
    {"cc", 4, 2,
     {{43813001, 3884347, 271174, 271174, 1672, 0, 0x8f4f2063c0b}}},
    {"pr", 1, 0,
     {{177583000, 663388, 69940, 69940, 41540, 10, 0xa1734fcf73f4e}}},
    {"pr", 4, 0,
     {{68624500, 698648, 69940, 69940, 41540, 10, 0x1214a3beda18f}}},
    {"pr", 4, 2,
     {{69647001, 750745, 69940, 69940, 41540, 10, 0x98c2966f03392}}},
    {"bc", 1, 0,
     {{35645500, 55284, 6870, 6870, 1910, 82, 0xca77420298668},
      {35316500, 55783, 6870, 6870, 1910, 82, 0x2f1e8477b4351}}},
    {"bc", 4, 0,
     {{32620000, 58761, 6870, 6870, 1910, 82, 0xc5c5dbcd4b8e6},
      {31931500, 58814, 6870, 6870, 1910, 82, 0x16760500da6ac}}},
    {"bc", 4, 2,
     {{39060000, 63928, 6870, 6870, 1910, 82, 0x216450d081544},
      {39038501, 63988, 6870, 6870, 1910, 82, 0xb4b290874a50b}}},
};

void
PrintTo(const Cell &c, std::ostream *os)
{
    *os << c.workload << " on " << c.gpns << " GPN(s), " << c.threads
        << " thread(s)";
}

class Golden : public testing::TestWithParam<Cell>
{
};

TEST_P(Golden, ExactCounts)
{
    const Cell &c = GetParam();
    const std::vector<Counts> got = runCell(c);
    EXPECT_TRUE(got == c.want) << "actual rows:\n" << describe(got);
}

std::string
cellName(const testing::TestParamInfo<Cell> &info)
{
    const Cell &c = info.param;
    return std::string(c.workload) + "_" + std::to_string(c.gpns) +
           "gpn_" +
           (c.threads ? std::to_string(c.threads) + "threads"
                      : std::string("serial"));
}

INSTANTIATE_TEST_SUITE_P(Matrix, Golden, testing::ValuesIn(kGolden),
                         cellName);

class GoldenLegacyHeap : public testing::TestWithParam<Cell>
{
};

TEST_P(GoldenLegacyHeap, ExactCounts)
{
    const Cell &c = GetParam();
    const sim::EventQueue::ScopedDefaultImpl legacy(
        sim::EventQueue::Impl::LegacyHeap);
    const std::vector<Counts> got = runCell(c);
    EXPECT_TRUE(got == c.want) << "actual rows:\n" << describe(got);
}

INSTANTIATE_TEST_SUITE_P(Matrix, GoldenLegacyHeap,
                         testing::ValuesIn(kGolden), cellName);

} // namespace
