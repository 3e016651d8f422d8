/**
 * @file
 * nova_cli — run any workload on any engine from the command line.
 *
 *   nova_cli --engine=nova --workload=bfs --graph=twitter --scale=2000
 *   nova_cli --engine=polygraph --workload=pr --graph=rmat:16384:262144
 *   nova_cli --engine=nova --workload=sssp --graph=file:my.el --gpns=4
 *
 * Options (defaults in brackets):
 *   --engine=nova|polygraph|ligra            [nova]
 *   --workload=bfs|sssp|cc|pr|bc             [bfs]
 *   --graph=roadusa|twitter|friendster|host|urand
 *           |rmat:<V>:<E>|uniform:<V>:<E>|grid:<W>:<H>|file:<path>
 *           |bin:<path>  (binary CSR container, keeps isolated
 *                         vertices an edge list cannot express)
 *                                            [twitter]
 *   --scale=<S>      preset scale denominator          [1000]
 *   --gpns=<N>       NOVA GPN count                    [1]
 *   --cache=<bytes>  per-PE cache                      [scaled 64 KiB]
 *   --sbdim=<N>      tracker superblock dimension      [128]
 *   --buffer=<N>     active-buffer entries             [80]
 *   --fabric=hier|ideal|p2p                            [hier]
 *   --mapping=random|loadbalanced|locality|interleave  [random]
 *   --src=<v>        traversal source  [highest out-degree]
 *   --seed=<n>       mapping/graph seed                [1]
 *   --no-validate    skip the reference check
 *   --stats          dump all engine statistics (integral values
 *                    exactly, others with round-trip precision)
 *   --profile        arm the host-time profiler; print a sorted table
 *                    and profile.* extras after the run
 *   --queue-impl=calendar|legacy  event-queue backend (overrides the
 *                    NOVA_EQ_IMPL environment variable)   [calendar]
 *   --threads=<N>    shard the event queue per GPN and run the shards
 *                    on N host threads (nova engine only; 0 = the
 *                    serial single-queue scheduler)        [0]
 *   --deterministic-merge  with --threads, additionally merge the
 *                    per-shard event traces into one canonical order
 *                    and print its fingerprint (docs/PARALLEL.md)
 *
 * Resilience (nova engine only; see docs/RESILIENCE.md):
 *   --faults=<schedule>   fault schedule (sim/fault.hh grammar)
 *   --fault-seed=<n>      fault-probability RNG seed        [0]
 *   --max-ticks=<n>       abort if simulated time passes n  [off]
 *   --max-events=<n>      abort after n events              [off]
 *   --watchdog=<n>        progress check every n events     [off]
 *   --crash-bundle=<p>    crash-bundle path       [nova_crash.txt]
 *
 * Exit codes: 0 success, 1 user error (FatalError, bad flags,
 * validation mismatch), 2 simulator bug (PanicError; a crash bundle
 * with a replay line is left behind).
 *
 * Differential fuzzing subcommand (see docs/VERIFICATION.md):
 *
 *   nova_cli verify --fuzz=200 --seed=1
 *   nova_cli verify --fuzz=25 --seed=7 --algos=sssp --engines=nova
 *   nova_cli verify --replay=NV1.s1.i12.sssp.nova.v256.e2048
 *
 *   --fuzz=<N>       differential iterations           [100]
 *   --seed=<S>       fuzz stream seed                  [1]
 *   --algos=a,b      subset of bfs,sssp,cc,pr          [all]
 *   --engines=a,b    subset of nova,polygraph,ligra    [all]
 *   --max-v=<N>      fuzzer vertex bound               [256]
 *   --max-e=<N>      fuzzer edge bound                 [2048]
 *   --inject-fault=<AFTER>[:<MASK-hex>]  corrupt the AFTER-th reduce
 *   --inject-recovered=<AFTER>[:<MASK-hex>]  recovered variant (must
 *                    NOT diverge; counted as a recovery)
 *   --faults=<schedule>  hardware fault schedule inside NOVA runs
 *   --replay=<tok>   re-run one recorded failing case
 *   --cross-queue    run every NOVA case on both event-queue backends
 *                    and require bit-identical fingerprints
 *   --cross-sched[=N]  run every NOVA case on the sharded scheduler
 *                    with {heap, calendar} x {1, N} host threads under
 *                    --deterministic-merge and require all four run
 *                    records bit-identical and reference-correct [N=4]
 *   --verbose        print every case as it runs
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/ligra.hh"
#include "baselines/polygraph.hh"
#include "core/system.hh"
#include "graph/generators.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/profile.hh"
#include "graph/graph_stats.hh"
#include "graph/io.hh"
#include "graph/partition.hh"
#include "graph/presets.hh"
#include "verify/differential.hh"
#include "verify/fuzz.hh"
#include "verify/replay.hh"
#include "workloads/bc.hh"
#include "workloads/programs.hh"
#include "workloads/reference.hh"

using namespace nova;

namespace
{

/**
 * One `--stats` / `--profile` row. Integral values (event counts,
 * fingerprints) print as exact integers; others print the shortest
 * decimal that reads back as the same double, so diffing the output of
 * two builds shows any change, not only one in the first six digits.
 */
void
printStatRow(const std::string &key, double val)
{
    char buf[64];
    const bool integral = std::isfinite(val) && val == std::trunc(val);
    const auto res =
        integral ? std::to_chars(buf, buf + sizeof(buf), val,
                                 std::chars_format::fixed)
                 : std::to_chars(buf, buf + sizeof(buf), val);
    *res.ptr = '\0';
    std::printf("  %-42s %s\n", key.c_str(), buf);
}

struct CliOptions
{
    std::string engine = "nova";
    std::string workload = "bfs";
    std::string graphSpec = "twitter";
    std::string mapping = "random";
    std::string fabric = "hier";
    double scale = 1000;
    std::uint32_t gpns = 1;
    std::uint32_t cacheBytes = 0;
    std::uint32_t sbDim = 128;
    std::uint32_t bufferEntries = 80;
    std::int64_t src = -1;
    std::uint64_t seed = 1;
    bool validate = true;
    bool dumpStats = false;
    bool profile = false;
    std::string queueImpl;
    std::uint32_t threads = 0;
    bool deterministicMerge = false;

    // Resilience flags (nova engine only).
    std::string faultSchedule;
    std::uint64_t faultSeed = 0;
    std::uint64_t maxTicks = 0;
    std::uint64_t maxEvents = 0;
    std::uint64_t watchdogEvents = 0;
    std::string crashBundle;

    bool
    usesResilience() const
    {
        return !faultSchedule.empty() || maxTicks > 0 || maxEvents > 0 ||
               watchdogEvents > 0;
    }
};

bool
takeValue(const char *arg, const char *key, std::string &out)
{
    const std::size_t n = std::strlen(key);
    if (std::strncmp(arg, key, n) == 0) {
        out = arg + n;
        return true;
    }
    return false;
}

/** Parse a full numeric option value or die with a usage error. */
std::uint64_t
parseU64(const std::string &text, const char *what, int base = 10)
{
    std::uint64_t value = 0;
    const char *first = text.c_str();
    const char *last = first + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, value, base);
    if (ec != std::errc() || ptr != last || text.empty())
        sim::fatal("bad value '", text, "' for ", what);
    return value;
}

/** parseU64, additionally bounded to 32 bits. */
std::uint32_t
parseU32(const std::string &text, const char *what)
{
    const std::uint64_t value = parseU64(text, what);
    if (value > UINT32_MAX)
        sim::fatal("value '", text, "' for ", what, " is out of range");
    return static_cast<std::uint32_t>(value);
}

/** A full, finite, strictly positive decimal value or a usage error. */
double
parsePositive(const std::string &text, const char *what)
{
    double value = 0;
    const char *first = text.c_str();
    const char *last = first + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last || text.empty() ||
        !std::isfinite(value) || value <= 0)
        sim::fatal("bad value '", text, "' for ", what,
                   " (need a finite number > 0)");
    return value;
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions o;
    std::string v;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (takeValue(a, "--engine=", o.engine) ||
            takeValue(a, "--workload=", o.workload) ||
            takeValue(a, "--graph=", o.graphSpec) ||
            takeValue(a, "--mapping=", o.mapping) ||
            takeValue(a, "--fabric=", o.fabric))
            continue;
        if (takeValue(a, "--scale=", v))
            o.scale = parsePositive(v, "--scale");
        else if (takeValue(a, "--gpns=", v))
            o.gpns = parseU32(v, "--gpns");
        else if (takeValue(a, "--cache=", v))
            o.cacheBytes = parseU32(v, "--cache");
        else if (takeValue(a, "--sbdim=", v))
            o.sbDim = parseU32(v, "--sbdim");
        else if (takeValue(a, "--buffer=", v))
            o.bufferEntries = parseU32(v, "--buffer");
        else if (takeValue(a, "--src=", v))
            o.src = parseU32(v, "--src");
        else if (takeValue(a, "--seed=", v))
            o.seed = parseU64(v, "--seed");
        else if (takeValue(a, "--faults=", o.faultSchedule) ||
                 takeValue(a, "--crash-bundle=", o.crashBundle))
            continue;
        else if (takeValue(a, "--fault-seed=", v))
            o.faultSeed = parseU64(v, "--fault-seed");
        else if (takeValue(a, "--max-ticks=", v))
            o.maxTicks = parseU64(v, "--max-ticks");
        else if (takeValue(a, "--max-events=", v))
            o.maxEvents = parseU64(v, "--max-events");
        else if (takeValue(a, "--watchdog=", v))
            o.watchdogEvents = parseU64(v, "--watchdog");
        else if (std::strcmp(a, "--no-validate") == 0)
            o.validate = false;
        else if (std::strcmp(a, "--stats") == 0)
            o.dumpStats = true;
        else if (std::strcmp(a, "--profile") == 0)
            o.profile = true;
        else if (takeValue(a, "--queue-impl=", o.queueImpl))
            continue;
        else if (takeValue(a, "--threads=", v))
            o.threads = parseU32(v, "--threads");
        else if (std::strcmp(a, "--deterministic-merge") == 0)
            o.deterministicMerge = true;
        else
            sim::fatal("unknown option '", a,
                       "' (see the header of tools/nova_cli.cc)");
    }
    return o;
}

graph::Csr
makeGraph(const CliOptions &o)
{
    const std::string &s = o.graphSpec;
    if (s == "roadusa")
        return graph::makeRoadUsa(o.scale, o.seed).graph;
    if (s == "twitter")
        return graph::makeTwitter(o.scale, o.seed).graph;
    if (s == "friendster")
        return graph::makeFriendster(o.scale, o.seed).graph;
    if (s == "host")
        return graph::makeHost(o.scale, o.seed).graph;
    if (s == "urand")
        return graph::makeUrand(o.scale, o.seed).graph;

    const auto colon1 = s.find(':');
    const std::string kind = s.substr(0, colon1);
    if (kind == "file")
        return graph::loadEdgeListFile(s.substr(colon1 + 1));
    if (kind == "bin")
        return graph::loadBinaryFile(s.substr(colon1 + 1));
    const auto colon2 = s.find(':', colon1 + 1);
    if (colon1 == std::string::npos || colon2 == std::string::npos)
        sim::fatal("bad --graph spec '", s, "'");
    const std::uint32_t p1 =
        parseU32(s.substr(colon1 + 1, colon2 - colon1 - 1), "--graph");
    const std::uint64_t p2 = parseU64(s.substr(colon2 + 1), "--graph");
    if ((kind == "rmat" || kind == "uniform") && p1 < 2)
        sim::fatal("--graph=", kind, " needs at least 2 vertices");
    if (kind == "grid" && (p1 < 2 || p2 < 2 || p2 > UINT32_MAX ||
                           std::uint64_t(p1) * p2 > UINT32_MAX))
        sim::fatal("--graph=grid needs a width and height of at least 2 "
                   "and at most 2^32-1 vertices");
    if (kind == "rmat") {
        graph::RmatParams p;
        p.numVertices = p1;
        p.numEdges = p2;
        p.maxWeight = 255;
        p.seed = o.seed;
        return graph::generateRmat(p);
    }
    if (kind == "uniform") {
        graph::UniformParams p;
        p.numVertices = p1;
        p.numEdges = p2;
        p.maxWeight = 255;
        p.seed = o.seed;
        return graph::generateUniform(p);
    }
    if (kind == "grid") {
        graph::RoadGridParams p;
        p.width = p1;
        p.height = static_cast<graph::VertexId>(p2);
        p.maxWeight = 255;
        p.seed = o.seed;
        return graph::generateRoadGrid(p);
    }
    sim::fatal("bad --graph spec '", s, "'");
}

std::unique_ptr<workloads::GraphEngine>
makeEngine(const CliOptions &o)
{
    if (o.engine == "nova") {
        core::NovaConfig cfg = core::NovaConfig{}.scaled(o.scale);
        cfg.numGpns = o.gpns;
        if (o.cacheBytes)
            cfg.cacheBytesPerPe = o.cacheBytes;
        cfg.superblockDim = o.sbDim;
        cfg.activeBufferEntries = o.bufferEntries;
        if (o.fabric == "ideal")
            cfg.fabric = noc::FabricKind::Ideal;
        else if (o.fabric == "p2p")
            cfg.fabric = noc::FabricKind::PointToPoint;
        cfg.faultSchedule = o.faultSchedule;
        cfg.faultSeed = o.faultSeed;
        cfg.maxTicks = o.maxTicks;
        cfg.maxEvents = o.maxEvents;
        cfg.watchdogIntervalEvents = o.watchdogEvents;
        cfg.threads = o.threads;
        cfg.deterministicMerge = o.deterministicMerge;
        if (!o.faultSchedule.empty()) {
            const std::string err =
                sim::FaultInjector::validateSchedule(o.faultSchedule);
            if (!err.empty())
                sim::fatal("bad --faults schedule: ", err);
        }
        return std::make_unique<core::NovaSystem>(cfg);
    }
    if (o.usesResilience())
        sim::fatal("--faults/--watchdog/--max-* need --engine=nova");
    if (o.threads > 0 || o.deterministicMerge)
        sim::fatal("--threads/--deterministic-merge need --engine=nova");
    if (o.engine == "polygraph")
        return std::make_unique<baselines::PolyGraphModel>(
            baselines::PolyGraphConfig{}.scaled(o.scale));
    if (o.engine == "ligra")
        return std::make_unique<baselines::LigraEngine>();
    sim::fatal("unknown engine '", o.engine, "'");
}

graph::VertexMapping
makeMapping(const CliOptions &o, const graph::Csr &g,
            std::uint32_t parts)
{
    if (o.mapping == "random")
        return graph::randomMapping(g.numVertices(), parts, o.seed);
    if (o.mapping == "loadbalanced")
        return graph::loadBalancedMapping(g, parts);
    if (o.mapping == "locality")
        return graph::localityMapping(g, parts);
    if (o.mapping == "interleave")
        return graph::VertexMapping::interleave(g.numVertices(), parts);
    sim::fatal("unknown mapping '", o.mapping, "'");
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos) {
            out.push_back(s.substr(pos));
            break;
        }
        out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

void
printDivergences(const verify::CaseOutcome &outcome)
{
    std::printf("divergence in case #%llu (seed 0x%llx, %s)\n",
                static_cast<unsigned long long>(outcome.index),
                static_cast<unsigned long long>(outcome.seed),
                outcome.graphDescription.c_str());
    for (const auto &d : outcome.divergences) {
        std::printf("  %s on %s: %s\n", verify::algoName(d.algo),
                    verify::engineKindName(d.engine), d.detail.c_str());
        std::printf("  repro: nova_cli verify --replay=%s\n",
                    d.replayToken.c_str());
    }
}

int
verifyMain(int argc, char **argv)
{
    std::uint64_t iterations = 100;
    std::uint64_t seed = 1;
    std::string replay_token;
    bool verbose = false;
    verify::DiffOptions opt;

    std::string v;
    for (int i = 2; i < argc; ++i) {
        const char *a = argv[i];
        if (takeValue(a, "--fuzz=", v))
            iterations = parseU64(v, "--fuzz");
        else if (takeValue(a, "--seed=", v))
            seed = parseU64(v, "--seed");
        else if (takeValue(a, "--max-v=", v))
            opt.fuzzer.maxVertices =
                static_cast<graph::VertexId>(parseU64(v, "--max-v"));
        else if (takeValue(a, "--max-e=", v))
            opt.fuzzer.maxEdges =
                static_cast<graph::EdgeId>(parseU64(v, "--max-e"));
        else if (takeValue(a, "--algos=", v)) {
            opt.algos.clear();
            for (const std::string &name : splitCommas(v)) {
                verify::Algo algo;
                if (!verify::algoFromName(name, algo))
                    sim::fatal("unknown algorithm '", name, "'");
                opt.algos.push_back(algo);
            }
        } else if (takeValue(a, "--engines=", v)) {
            opt.engines.clear();
            for (const std::string &name : splitCommas(v)) {
                verify::EngineKind kind;
                if (!verify::engineKindFromName(name, kind))
                    sim::fatal("unknown engine '", name, "'");
                opt.engines.push_back(kind);
            }
        } else if (takeValue(a, "--inject-fault=", v) ||
                   takeValue(a, "--inject-recovered=", v)) {
            opt.fault.enabled = true;
            opt.fault.recover =
                std::strncmp(a, "--inject-recovered=", 19) == 0;
            opt.fault.xorMask = ~std::uint64_t(0);
            const std::size_t colon = v.find(':');
            opt.fault.afterReduces =
                parseU64(v.substr(0, colon), "--inject-fault");
            if (colon != std::string::npos)
                opt.fault.xorMask = parseU64(
                    v.substr(colon + 1), "--inject-fault mask", 16);
        } else if (takeValue(a, "--faults=", v)) {
            const std::string err =
                sim::FaultInjector::validateSchedule(v);
            if (!err.empty())
                sim::fatal("bad --faults schedule: ", err);
            opt.faultSchedule = v;
        } else if (takeValue(a, "--replay=", v))
            replay_token = v;
        else if (std::strcmp(a, "--cross-queue") == 0)
            opt.crossCheckQueueImpls = true;
        else if (std::strcmp(a, "--cross-sched") == 0)
            opt.crossCheckSchedThreads = 4;
        else if (takeValue(a, "--cross-sched=", v)) {
            opt.crossCheckSchedThreads = static_cast<std::uint32_t>(
                parseU64(v, "--cross-sched"));
            if (opt.crossCheckSchedThreads == 0)
                sim::fatal("--cross-sched needs a thread count >= 1");
        }
        else if (std::strcmp(a, "--verbose") == 0)
            verbose = true;
        else
            sim::fatal("unknown verify option '", a,
                       "' (see the header of tools/nova_cli.cc)");
    }
    if (opt.fuzzer.maxVertices < 8 || opt.fuzzer.maxEdges < 16)
        sim::fatal("fuzzer bounds too small: need --max-v >= 8 and "
                   "--max-e >= 16");

    if (!replay_token.empty()) {
        verify::ReplayCase c;
        if (!verify::parseReplayToken(replay_token, c))
            sim::fatal("malformed replay token '", replay_token, "'");
        std::printf("replay %s: case #%llu, %s on %s%s\n",
                    replay_token.c_str(),
                    static_cast<unsigned long long>(c.index),
                    verify::algoName(c.algo),
                    verify::engineKindName(c.engine),
                    c.fault.enabled ? " (with injected fault)" : "");
        const verify::CaseOutcome outcome = verify::replayCase(c);
        std::printf("graph: %s\n", outcome.graphDescription.c_str());
        for (const auto &rec : outcome.runs)
            std::printf("run %s on %s: fingerprint 0x%llx, "
                        "recoveries %llu\n",
                        verify::algoName(rec.algo),
                        verify::engineKindName(rec.engine),
                        static_cast<unsigned long long>(rec.fingerprint),
                        static_cast<unsigned long long>(rec.recoveries));
        if (outcome.ok()) {
            std::printf("replay: no divergence\n");
            return 0;
        }
        printDivergences(outcome);
        return 1;
    }

    const verify::FuzzSummary summary = verify::runFuzz(
        seed, iterations, opt, [verbose](const verify::CaseOutcome &outcome) {
            if (verbose)
                std::printf("case #%llu: %s: %s\n",
                            static_cast<unsigned long long>(outcome.index),
                            outcome.graphDescription.c_str(),
                            outcome.ok() ? "ok" : "DIVERGED");
            if (!outcome.ok())
                printDivergences(outcome);
        });

    std::printf("verify: %llu cases, %llu engine runs, %zu diverging "
                "cases [seed %llu]\n",
                static_cast<unsigned long long>(summary.casesRun),
                static_cast<unsigned long long>(summary.runsExecuted),
                summary.failures.size(),
                static_cast<unsigned long long>(seed));
    return summary.ok() ? 0 : 1;
}

/** The exact command line, quoted for the crash-bundle replay line. */
std::string
reconstructCommand(int argc, char **argv)
{
    std::string cmd = "nova_cli";
    for (int i = 1; i < argc; ++i) {
        cmd += ' ';
        cmd += argv[i];
    }
    return cmd;
}

int
cliMain(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "verify") == 0)
        return verifyMain(argc, argv);
    // "nova_cli run ..." is an accepted alias for the default mode.
    if (argc > 1 && std::strcmp(argv[1], "run") == 0) {
        --argc;
        ++argv;
    }
    const CliOptions o = parseArgs(argc, argv);
    if (!o.crashBundle.empty())
        sim::crash::setBundlePath(o.crashBundle);

    std::optional<sim::EventQueue::ScopedDefaultImpl> forced_impl;
    if (!o.queueImpl.empty()) {
        if (o.queueImpl == "calendar")
            forced_impl.emplace(sim::EventQueue::Impl::Calendar);
        else if (o.queueImpl == "legacy")
            forced_impl.emplace(sim::EventQueue::Impl::LegacyHeap);
        else
            sim::fatal("--queue-impl must be 'calendar' or 'legacy', not '",
                       o.queueImpl, "'");
    }
    if (o.profile)
        sim::profile::Registry::instance().arm();

    graph::Csr g = makeGraph(o);
    const bool needs_symmetric = o.workload == "cc" || o.workload == "bc";
    if (needs_symmetric)
        g = graph::symmetrize(g);
    if (o.src >= 0 && o.src >= g.numVertices())
        sim::fatal("--src=", o.src, " is out of range (the graph has ",
                   g.numVertices(), " vertices)");
    const graph::VertexId src =
        o.src >= 0 ? static_cast<graph::VertexId>(o.src)
                   : graph::highestDegreeVertex(g);

    auto engine = makeEngine(o);
    const std::uint32_t parts =
        o.engine == "nova" ? o.gpns * 8 : 1;
    const auto map = makeMapping(o, g, parts);

    std::printf("engine=%s workload=%s graph=%s (V=%u, E=%llu) src=%u\n",
                o.engine.c_str(), o.workload.c_str(),
                o.graphSpec.c_str(), g.numVertices(),
                static_cast<unsigned long long>(g.numEdges()), src);

    workloads::RunResult r;
    bool valid = true;
    namespace ref = workloads::reference;
    if (o.workload == "bfs") {
        workloads::BfsProgram prog(src);
        r = engine->run(prog, g, map);
        if (o.validate)
            valid = r.props == ref::bfsDepths(g, src);
    } else if (o.workload == "sssp") {
        workloads::SsspProgram prog(src);
        r = engine->run(prog, g, map);
        if (o.validate)
            valid = r.props == ref::ssspDistances(g, src);
    } else if (o.workload == "cc") {
        workloads::CcProgram prog;
        r = engine->run(prog, g, map);
        if (o.validate)
            valid = r.props == ref::ccLabels(g);
    } else if (o.workload == "pr") {
        workloads::PageRankProgram prog(0.85, 1e-9, 10);
        r = engine->run(prog, g, map);
        if (o.validate) {
            const auto want = ref::pagerankDelta(g, 0.85, 1e-9, 10);
            for (graph::VertexId v = 0; v < g.numVertices(); ++v)
                valid = valid && std::abs(prog.rank()[v] - want[v]) <=
                                     1e-9 + 1e-5 * want[v];
        }
    } else if (o.workload == "bc") {
        const auto bc = workloads::runBc(*engine, g, map, src);
        r = bc.forward;
        r.ticks = bc.totalTicks();
        r.messagesGenerated = bc.totalEdgesTraversed();
        if (o.validate) {
            const auto want = ref::bcDependencies(g, src);
            for (graph::VertexId v = 0; v < g.numVertices(); ++v)
                valid = valid &&
                        std::abs(bc.centrality[v] - want[v]) <=
                            1e-4 + 1e-2 * std::abs(want[v]);
        }
    } else {
        sim::fatal("unknown workload '", o.workload, "'");
    }

    std::printf("time: %.6f ms %s\n", r.seconds() * 1e3,
                o.engine == "ligra" ? "(wall)" : "(simulated)");
    std::printf("throughput: %.3f GTEPS over %llu traversed edges\n",
                r.gteps(),
                static_cast<unsigned long long>(r.messagesGenerated));
    std::printf("coalesced: %.2f%%; BSP supersteps: %llu\n",
                100 * r.coalescingRate(),
                static_cast<unsigned long long>(r.bspIterations));
    if (const auto fp = r.extra.find("sim.fingerprint");
        fp != r.extra.end())
        std::printf("fingerprint: 0x%llx\n",
                    static_cast<unsigned long long>(fp->second));
    if (const auto mfp = r.extra.find("sim.mergedFingerprint");
        mfp != r.extra.end())
        std::printf("merged fingerprint: 0x%llx over %llu shards\n",
                    static_cast<unsigned long long>(mfp->second),
                    static_cast<unsigned long long>(
                        r.extra.at("sim.shards")));
    if (const auto rec = r.extra.find("fault.recoveries");
        rec != r.extra.end())
        std::printf("faults: %llu injected, %llu recovered\n",
                    static_cast<unsigned long long>(
                        r.extra.at("fault.injected")),
                    static_cast<unsigned long long>(rec->second));
    if (o.validate)
        std::printf("validation: %s\n", valid ? "OK" : "MISMATCH");
    if (o.profile) {
        std::printf("%s",
                    sim::profile::Registry::instance().table().c_str());
        for (const auto &[k, val] : r.extra)
            if (k.rfind("profile.", 0) == 0)
                printStatRow(k, val);
    }
    // Under --profile the profile.* rows are already printed above.
    if (o.dumpStats)
        for (const auto &[k, val] : r.extra)
            if (!o.profile || k.rfind("profile.", 0) != 0)
                printStatRow(k, val);
    return valid ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::crash::setReplayToken(reconstructCommand(argc, argv));
    try {
        return cliMain(argc, argv);
    } catch (const sim::FatalError &e) {
        // User error: bad flags, bad input, unusable configuration.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    } catch (const sim::PanicError &e) {
        // Simulator bug. NovaSystem::run writes the bundle while its
        // components are still alive; write a minimal one only if that
        // didn't happen (e.g. a panic outside any run).
        std::fprintf(stderr, "simulator bug: %s\n", e.what());
        std::string bundle = sim::crash::lastBundle();
        if (bundle.empty())
            bundle = sim::crash::writeBundle(e.what());
        if (!bundle.empty())
            std::fprintf(stderr, "crash bundle: %s\n", bundle.c_str());
        if (!sim::crash::replayToken().empty())
            std::fprintf(stderr, "replay: %s\n",
                         sim::crash::replayToken().c_str());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "internal error: %s\n", e.what());
        return 2;
    }
}
