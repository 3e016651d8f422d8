/**
 * @file
 * The fault-injection & recovery matrix: every injection point fires
 * and is recovered on the NOVA model (results still reference-equal,
 * the matching recovery stat advances, and the run replays bit-exactly
 * from its seed); the engine-agnostic recovered-reduce path does the
 * same for PolyGraph and Ligra. Plus: schedule-grammar validation,
 * watchdog deadlock/livelock detection, event-queue runaway guards,
 * replay tokens carrying fault schedules, crash bundles, and the
 * zero-overhead guarantee for fault-free runs.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/system.hh"
#include "graph/generators.hh"
#include "graph/partition.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "verify/differential.hh"
#include "verify/replay.hh"
#include "workloads/programs.hh"
#include "workloads/reference.hh"

using namespace nova;
using graph::VertexId;

namespace
{

graph::Csr
testGraph(std::uint64_t seed = 11)
{
    graph::UniformParams p;
    p.numVertices = 240;
    p.numEdges = 1500;
    p.maxWeight = 64;
    p.seed = seed;
    return graph::generateUniform(p);
}

core::NovaConfig
smallConfig()
{
    core::NovaConfig cfg;
    cfg.pesPerGpn = 4;
    cfg.cacheBytesPerPe = 512;
    cfg.activeBufferEntries = 8; // tiny: forces VMU spills
    return cfg;
}

struct FaultedRun
{
    workloads::RunResult result;
    bool valid = false; ///< props match the sequential reference
};

/** Run SSSP on the NOVA model under `schedule`; validate vs reference. */
FaultedRun
runSsspUnder(const std::string &schedule, std::uint64_t fault_seed = 5)
{
    const graph::Csr g = testGraph();
    core::NovaConfig cfg = smallConfig();
    cfg.faultSchedule = schedule;
    cfg.faultSeed = fault_seed;
    core::NovaSystem sys(cfg);
    const auto map = graph::randomMapping(g.numVertices(), 4, 7);
    workloads::SsspProgram prog(0);
    FaultedRun r;
    r.result = sys.run(prog, g, map);
    r.valid = r.result.props == workloads::reference::ssspDistances(g, 0);
    return r;
}

double
extraOr(const workloads::RunResult &r, const std::string &key,
        double fallback = -1)
{
    const auto it = r.extra.find(key);
    return it == r.extra.end() ? fallback : it->second;
}

} // namespace

// ---------------------------------------------------------------------
// Schedule grammar
// ---------------------------------------------------------------------

TEST(FaultSchedule, ValidSchedulesParse)
{
    using sim::FaultInjector;
    EXPECT_EQ(FaultInjector::validateSchedule("dram.bitflip:n=3"), "");
    EXPECT_EQ(FaultInjector::validateSchedule(
                  "noc.drop:every=10:mask=ff+cache.ecc:p=0.5"),
              "");
    EXPECT_EQ(FaultInjector::validateSchedule(
                  "spill.corrupt@gpn0.pe1:n=2:mask=deadbeef"),
              "");
    EXPECT_EQ(FaultInjector::validateSchedule(
                  "reduce.bitflip:every=7+dram.txn:p=0.01+noc.dup:n=1"),
              "");
}

TEST(FaultSchedule, MalformedSchedulesRejected)
{
    using sim::FaultInjector;
    EXPECT_NE(FaultInjector::validateSchedule("bogus.kind:n=1"), "");
    EXPECT_NE(FaultInjector::validateSchedule("dram.bitflip"), "");
    EXPECT_NE(FaultInjector::validateSchedule("dram.bitflip:often=1"), "");
    EXPECT_NE(FaultInjector::validateSchedule("dram.bitflip:n=zero"), "");
    EXPECT_NE(FaultInjector::validateSchedule("dram.bitflip:p=2"), "");
    EXPECT_NE(FaultInjector::validateSchedule(
                  "dram.bitflip:n=1:mask=nothex"),
              "");
    EXPECT_NE(FaultInjector::validateSchedule("+"), "");
    // The grammar is transient-only: no permanent-failure kinds and no
    // simulated-time trigger.
    EXPECT_NE(FaultInjector::validateSchedule("gpn.dead@gpn1:tick=5"), "");
    EXPECT_NE(FaultInjector::validateSchedule("dram.bitflip:tick=5"), "");
}

TEST(FaultSchedule, ConfigureRejectsBadInputByFatal)
{
    sim::FaultInjector inj(1);
    EXPECT_THROW(inj.configure("nope:n=1"), sim::FatalError);
}

// ---------------------------------------------------------------------
// The injection-point matrix on the NOVA model. Each kind must fire,
// recover, and leave a reference-equal result.
// ---------------------------------------------------------------------

/** An injection point and the recovery stat its firing must advance. */
struct FaultKind
{
    const char *point;
    const char *stat; ///< extra[] key whose value must be positive
};

const FaultKind faultKinds[] = {
    {"dram.bitflip", "fault.dram.eccCorrected"},
    {"dram.txn", "fault.dram.txnRetries"},
    {"cache.ecc", "fault.cache.eccCorrected"},
    {"noc.drop", "fault.net.retries"},
    {"noc.corrupt", "fault.net.flitsCorrupted"},
    {"noc.dup", "fault.net.duplicatesDiscarded"},
    {"spill.corrupt", "fault.vmu.spillScrubs"},
    {"reduce.bitflip", "fault.mpu.reduceRecomputes"},
};

/**
 * One matrix cell: faultKinds[kind] firing on every `every`-th
 * opportunity. gtest puts the raw bytes of a parameter into its test's
 * name, so the cell holds plain integers: a pointer would put an
 * address that moves from build to build into the name.
 */
struct KindCase
{
    std::uint64_t kind;
    std::uint64_t every;

    const FaultKind &info() const { return faultKinds[kind]; }

    std::string
    schedule() const
    {
        return std::string(info().point) + ":every=" +
               std::to_string(every);
    }
};

class FaultMatrix : public ::testing::TestWithParam<KindCase>
{
};

TEST_P(FaultMatrix, FiresRecoversAndStaysCorrect)
{
    const std::string schedule = GetParam().schedule();
    const char *stat = GetParam().info().stat;
    const FaultedRun r = runSsspUnder(schedule);
    EXPECT_TRUE(r.valid) << "results diverged under " << schedule;
    EXPECT_GT(extraOr(r.result, "fault.injected"), 0)
        << schedule << " never fired";
    EXPECT_GT(extraOr(r.result, stat), 0)
        << "recovery stat " << stat << " did not advance";
    EXPECT_GT(extraOr(r.result, "fault.recoveries"), 0);
}

TEST_P(FaultMatrix, ReplaysBitExactly)
{
    const std::string schedule = GetParam().schedule();
    const FaultedRun a = runSsspUnder(schedule);
    const FaultedRun b = runSsspUnder(schedule);
    EXPECT_EQ(a.result.props, b.result.props);
    EXPECT_EQ(extraOr(a.result, "sim.fingerprint"),
              extraOr(b.result, "sim.fingerprint"));
    EXPECT_EQ(extraOr(a.result, "fault.injected"),
              extraOr(b.result, "fault.injected"));
    EXPECT_EQ(extraOr(a.result, "fault.recoveries"),
              extraOr(b.result, "fault.recoveries"));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FaultMatrix,
    ::testing::Values(KindCase{0, 40}, KindCase{1, 50}, KindCase{2, 30},
                      KindCase{3, 25}, KindCase{4, 25}, KindCase{5, 25},
                      KindCase{6, 3}, KindCase{7, 20}),
    [](const ::testing::TestParamInfo<KindCase> &info) {
        std::string name = info.param.schedule();
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(FaultMatrix, DifferentFaultSeedsDiverge)
{
    // Probabilistic schedules must consume the per-point seeded stream:
    // two different fault seeds give different firing patterns.
    const FaultedRun a = runSsspUnder("noc.drop:p=0.02", 1);
    const FaultedRun b = runSsspUnder("noc.drop:p=0.02", 2);
    EXPECT_TRUE(a.valid);
    EXPECT_TRUE(b.valid);
    EXPECT_NE(extraOr(a.result, "sim.fingerprint"),
              extraOr(b.result, "sim.fingerprint"));
}

TEST(FaultMatrix, CombinedScheduleRecoversEverything)
{
    const FaultedRun r = runSsspUnder(
        "dram.bitflip:every=60+noc.drop:every=45+cache.ecc:every=35+"
        "reduce.bitflip:every=25+noc.dup:every=55");
    EXPECT_TRUE(r.valid);
    EXPECT_GT(extraOr(r.result, "fault.recoveries"), 0);
}

// ---------------------------------------------------------------------
// Zero overhead when disabled
// ---------------------------------------------------------------------

TEST(FaultFree, NoFaultKeysAndDeterministic)
{
    const FaultedRun a = runSsspUnder("");
    const FaultedRun b = runSsspUnder("");
    EXPECT_TRUE(a.valid);
    EXPECT_EQ(a.result.extra.count("fault.injected"), 0u)
        << "fault stats must not appear in a fault-free run";
    EXPECT_EQ(a.result.extra.count("fault.recoveries"), 0u);
    EXPECT_EQ(extraOr(a.result, "sim.fingerprint"),
              extraOr(b.result, "sim.fingerprint"));
    EXPECT_EQ(a.result.props, b.result.props);
}

// ---------------------------------------------------------------------
// Engine-agnostic recovered faults: every engine of the differential
// harness detects and recovers the corrupted reduce, with no divergence.
// ---------------------------------------------------------------------

TEST(EngineFaultMatrix, RecoveredReduceOnEveryEngine)
{
    verify::DiffOptions opt;
    opt.fault.enabled = true;
    opt.fault.afterReduces = 4;
    opt.fault.xorMask = 0xff;
    opt.fault.recover = true;
    // Case (5, 1) is a dense RMAT graph: every algorithm on every
    // engine performs well over `afterReduces` reductions.
    const verify::CaseOutcome outcome = verify::runCase(5, 1, opt);
    EXPECT_TRUE(outcome.ok()) << "recovered faults must not diverge";
    ASSERT_FALSE(outcome.runs.empty());
    bool saw[3] = {false, false, false};
    for (const verify::RunRecord &rec : outcome.runs) {
        EXPECT_GT(rec.recoveries, 0u)
            << verify::engineKindName(rec.engine) << " on "
            << verify::algoName(rec.algo) << " recovered nothing";
        saw[static_cast<std::uint32_t>(rec.engine)] = true;
    }
    EXPECT_TRUE(saw[0] && saw[1] && saw[2])
        << "some engine was never exercised";
}

TEST(EngineFaultMatrix, HardwareScheduleInsideDifferentialHarness)
{
    verify::DiffOptions opt;
    opt.faultSchedule = "dram.bitflip:every=50+noc.drop:every=40";
    const verify::CaseOutcome a = verify::runCase(23, 1, opt);
    EXPECT_TRUE(a.ok())
        << "hardware faults under recovery must not diverge";
    bool nova_recovered = false;
    for (const verify::RunRecord &rec : a.runs)
        if (rec.engine == verify::EngineKind::Nova && rec.recoveries > 0)
            nova_recovered = true;
    EXPECT_TRUE(nova_recovered);

    // Bit-exact across a repeat of the same case.
    const verify::CaseOutcome b = verify::runCase(23, 1, opt);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].fingerprint, b.runs[i].fingerprint);
        EXPECT_EQ(a.runs[i].recoveries, b.runs[i].recoveries);
    }
}

TEST(EngineFaultMatrix, UnrecoveredFaultStillDetected)
{
    // The harness must keep catching *unrecovered* corruption.
    verify::DiffOptions opt;
    opt.algos = {verify::Algo::Sssp};
    opt.engines = {verify::EngineKind::Ligra};
    opt.fault.enabled = true;
    opt.fault.afterReduces = 3;
    const verify::CaseOutcome outcome = verify::runCase(5, 0, opt);
    EXPECT_FALSE(outcome.ok());
}

// ---------------------------------------------------------------------
// Replay tokens with fault schedules
// ---------------------------------------------------------------------

TEST(ReplayToken, RoundTripsRecoveredFaultAndSchedule)
{
    verify::ReplayCase c;
    c.seed = 0xabc;
    c.index = 17;
    c.algo = verify::Algo::Pr;
    c.engine = verify::EngineKind::Nova;
    c.fault.enabled = true;
    c.fault.afterReduces = 9;
    c.fault.xorMask = 0x1f;
    c.fault.recover = true;
    c.faultSchedule = "dram.bitflip:every=64:mask=3+noc.drop:n=5";

    const std::string token = verify::encodeReplayToken(c);
    EXPECT_NE(token.find(".r9x1f"), std::string::npos);
    EXPECT_NE(token.find(".Sdram.bitflip"), std::string::npos);

    verify::ReplayCase parsed;
    ASSERT_TRUE(verify::parseReplayToken(token, parsed));
    EXPECT_EQ(parsed.seed, c.seed);
    EXPECT_EQ(parsed.index, c.index);
    EXPECT_EQ(parsed.algo, c.algo);
    EXPECT_EQ(parsed.engine, c.engine);
    EXPECT_TRUE(parsed.fault.enabled);
    EXPECT_TRUE(parsed.fault.recover);
    EXPECT_EQ(parsed.fault.afterReduces, 9u);
    EXPECT_EQ(parsed.fault.xorMask, 0x1fu);
    EXPECT_EQ(parsed.faultSchedule, c.faultSchedule);
}

TEST(ReplayToken, LegacyUnrecoveredFormStillParses)
{
    verify::ReplayCase parsed;
    ASSERT_TRUE(verify::parseReplayToken(
        "NV1.s1.i12.sssp.nova.v256.e2048.f3xff", parsed));
    EXPECT_TRUE(parsed.fault.enabled);
    EXPECT_FALSE(parsed.fault.recover);
    EXPECT_TRUE(parsed.faultSchedule.empty());
}

TEST(ReplayToken, BadScheduleSuffixRejected)
{
    verify::ReplayCase parsed;
    EXPECT_FALSE(verify::parseReplayToken(
        "NV1.s1.i12.sssp.nova.v256.e2048.Sbogus.kind:n=1", parsed));
    EXPECT_FALSE(verify::parseReplayToken(
        "NV1.s1.i12.sssp.nova.v256.e2048.S", parsed));
}

TEST(ReplayToken, ReplayOfRecoveredTokenReproducesRecoveries)
{
    verify::ReplayCase c;
    c.seed = 5;
    c.index = 1;
    c.algo = verify::Algo::Sssp;
    c.engine = verify::EngineKind::Nova;
    c.fault.enabled = true;
    c.fault.afterReduces = 3;
    c.fault.xorMask = 4;
    c.fault.recover = true;

    const verify::CaseOutcome a = verify::replayCase(c);
    const verify::CaseOutcome b = verify::replayCase(c);
    EXPECT_TRUE(a.ok());
    ASSERT_EQ(a.runs.size(), 1u);
    ASSERT_EQ(b.runs.size(), 1u);
    EXPECT_GT(a.runs[0].recoveries, 0u);
    EXPECT_EQ(a.runs[0].fingerprint, b.runs[0].fingerprint);
    EXPECT_EQ(a.runs[0].recoveries, b.runs[0].recoveries);
}

// ---------------------------------------------------------------------
// Watchdog and runaway guards
// ---------------------------------------------------------------------

TEST(Watchdog, LivelockDetected)
{
    sim::EventQueue eq;
    sim::Watchdog dog(eq, 16, 4);
    dog.addProgress("work", [] { return std::uint64_t(0); });
    dog.arm();

    // A self-perpetuating event chain that makes no progress.
    std::function<void()> spin = [&eq, &spin] {
        eq.scheduleIn(100, spin);
    };
    eq.scheduleIn(100, spin);
    EXPECT_THROW(eq.run(), sim::PanicError);
}

TEST(Watchdog, ProgressSuppressesLivelock)
{
    sim::EventQueue eq;
    std::uint64_t beats = 0;
    sim::Watchdog dog(eq, 16, 4);
    dog.addProgress("work", [&beats] { return beats; });
    dog.arm();

    std::uint64_t remaining = 500;
    std::function<void()> spin = [&] {
        ++beats; // every event advances the heartbeat
        if (--remaining > 0)
            eq.scheduleIn(100, spin);
    };
    eq.scheduleIn(100, spin);
    EXPECT_NO_THROW(eq.run());
    EXPECT_EQ(remaining, 0u);
}

TEST(Watchdog, DeadlockDetectedAtQuiescence)
{
    sim::EventQueue eq;
    sim::Watchdog dog(eq, 1000, 4);
    dog.addPending("stuck", [] { return std::uint64_t(3); });
    eq.run();
    EXPECT_THROW(dog.checkQuiescence(), sim::PanicError);
}

TEST(Watchdog, CleanQuiescencePasses)
{
    sim::EventQueue eq;
    sim::Watchdog dog(eq, 1000, 4);
    dog.addPending("ok", [] { return std::uint64_t(0); });
    eq.run();
    EXPECT_NO_THROW(dog.checkQuiescence());
}

TEST(EventQueueGuard, MaxEventsCeilingPanics)
{
    sim::EventQueue eq;
    eq.setGuard(0, 64);
    std::function<void()> spin = [&eq, &spin] {
        eq.scheduleIn(10, spin);
    };
    eq.scheduleIn(10, spin);
    EXPECT_THROW(eq.run(), sim::PanicError);
}

TEST(EventQueueGuard, MaxTickCeilingPanics)
{
    sim::EventQueue eq;
    eq.setGuard(5000, 0);
    std::function<void()> spin = [&eq, &spin] {
        eq.scheduleIn(100, spin);
    };
    eq.scheduleIn(100, spin);
    EXPECT_THROW(eq.run(), sim::PanicError);
}

TEST(EventQueueGuard, DisabledByDefault)
{
    sim::EventQueue eq;
    std::uint64_t remaining = 200;
    std::function<void()> spin = [&] {
        if (--remaining > 0)
            eq.scheduleIn(10, spin);
    };
    eq.scheduleIn(10, spin);
    EXPECT_NO_THROW(eq.run());
}

// ---------------------------------------------------------------------
// Crash bundles
// ---------------------------------------------------------------------

TEST(CrashBundle, GuardTripLeavesBundleWithReplayToken)
{
    const std::string path = "test_fault_crash_bundle.txt";
    std::remove(path.c_str());
    sim::crash::setBundlePath(path);
    sim::crash::setReplayToken("nova_test --replayable");

    const graph::Csr g = testGraph();
    core::NovaConfig cfg = smallConfig();
    cfg.maxEvents = 300; // far below what the run needs
    core::NovaSystem sys(cfg);
    const auto map = graph::randomMapping(g.numVertices(), 4, 7);
    workloads::SsspProgram prog(0);
    EXPECT_THROW(sys.run(prog, g, map), sim::PanicError);

    // run() writes the bundle while its components are still alive.
    EXPECT_EQ(sim::crash::lastBundle(), path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no crash bundle at " << path;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string bundle = buf.str();
    EXPECT_NE(bundle.find("NOVA crash bundle"), std::string::npos);
    EXPECT_NE(bundle.find("replay: nova_test --replayable"),
              std::string::npos);
    EXPECT_NE(bundle.find("recent-events"), std::string::npos);
    EXPECT_NE(bundle.find("stats:"), std::string::npos);

    std::remove(path.c_str());
    sim::crash::setBundlePath("");
    sim::crash::setReplayToken("");
}
