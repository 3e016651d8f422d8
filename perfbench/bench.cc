/**
 * @file
 * nova_perfbench — the host-performance benchmark of the NOVA simulator.
 *
 *   nova_perfbench --workload async-social --seed 1 --seconds 60 --trace 0
 *
 * Options:
 *   --workload async-social|bsp-road|sharded-4gpn   (required)
 *   --seed <n>        derives the preset-graph and mapping seeds  [1]
 *   --seconds <s>     time budget: start another pass only while it
 *                     should end within s seconds; a warm-up pass
 *                     and one pass of every variant always run    [60]
 *   --trace 0|1       1 = traced run: untraced and profiled passes
 *                     (plus 2-thread passes on the sharded
 *                     workload) interleaved, spans written to
 *                     --trace-out                                 [0]
 *   --trace-out <f>   Chrome trace-event file of the traced run
 *   --scale <S>       preset scale denominator (default per workload)
 *
 * Each pass rebuilds the workload's inputs (timed as setup), then runs
 * its fixed job list through core::NovaSystem::run one job after the
 * other (a closed loop with one client) and checks every result against
 * the sequential references. The first pass is a warm-up: its results
 * are checked, but no metric uses its timings. Every metric is printed
 * as a "metric" row with its unit; the last stdout line is one JSON
 * object with the keys correct, attempted, failed and metrics: the
 * end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. Exit code 0 when every job matched its reference, 1 when
 * one did not, 2 on bad usage. perfbench/README.md defines every metric.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "graph/csr.hh"
#include "graph/graph_stats.hh"
#include "graph/partition.hh"
#include "graph/presets.hh"
#include "heap.hh"
#include "probe.hh"
#include "report.hh"
#include "sim/profile.hh"
#include "workloads/bc.hh"
#include "workloads/programs.hh"
#include "workloads/reference.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace nova;

namespace perfbench
{
namespace
{

enum class Algo { Bfs, Sssp, Cc, Pr, Bc };

/** One benchmark workload: an input family and a fixed job list. */
struct Workload
{
    const char *name;
    const char *preset; ///< "twitter" or "roadusa"
    double scale;       ///< preset scale denominator
    std::uint32_t gpns;
    std::uint32_t threads; ///< sharded-scheduler host threads; 0 = serial
    /**
     * Independent graph instances per pass, each with its own graph and
     * mapping seed. Async work varies by several percent from one graph
     * to the next, so a pass sums over several to hold that variation
     * across seeds below the wall_s bound (README.md, "Noise").
     */
    std::uint32_t instances;
    std::vector<Algo> algos;
    std::uint32_t bcSources; ///< one BC job per source
};

// Why each workload exists and how it was sized: README.md, "Workloads".
// sharded-4gpn times its passes on one host thread: on a shared 4-vCPU
// host its 2-thread wall times spread by 28-45% across runs, against
// 14% at one thread (README.md, "Noise"). The traced run adds 2-thread
// passes for sim.sched_speedup.
const std::vector<Workload> kWorkloads = {
    {"async-social", "twitter", 8000, 1, 0, 3,
     {Algo::Bfs, Algo::Sssp, Algo::Cc}, 0},
    {"bsp-road", "roadusa", 1000, 1, 0, 1, {Algo::Pr, Algo::Bc}, 3},
    {"sharded-4gpn", "twitter", 4000, 4, 1, 3, {Algo::Bfs}, 0},
};

/** nova_cli's PageRank job: damping, tolerance, iteration cap. */
constexpr double kPrDamping = 0.85;
constexpr double kPrTolerance = 1e-9;
constexpr std::uint64_t kPrIterations = 10;

struct Job
{
    Algo algo;
    std::uint32_t bcIndex = 0; ///< which BC source
    std::string name;
};

std::vector<Job>
jobsOf(const Workload &w)
{
    std::vector<Job> jobs;
    for (Algo a : w.algos) {
        switch (a) {
        case Algo::Bfs: jobs.push_back({a, 0, "bfs"}); break;
        case Algo::Sssp: jobs.push_back({a, 0, "sssp"}); break;
        case Algo::Cc: jobs.push_back({a, 0, "cc"}); break;
        case Algo::Pr: jobs.push_back({a, 0, "pr"}); break;
        case Algo::Bc:
            for (std::uint32_t i = 0; i < w.bcSources; ++i)
                jobs.push_back({a, i, "bc" + std::to_string(i)});
            break;
        }
    }
    return jobs;
}

bool
needsSymmetric(const Workload &w)
{
    return std::any_of(w.algos.begin(), w.algos.end(), [](Algo a) {
        return a == Algo::Cc || a == Algo::Bc;
    });
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/**
 * Moves the calling thread round-robin over the CPUs the process may
 * use. On a shared host, neighbours slow one CPU at a time, for tens of
 * seconds and largely independently of the other CPUs (README.md,
 * "Noise"). Moving on before every instance set-up and every run call
 * spreads each pass over all CPUs, so one busy neighbour cannot set a
 * whole run's time.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&all);
        if (sched_getaffinity(0, sizeof all, &all) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &all))
                    cpus.push_back(c);
    }

    /** Pin the calling thread to the next CPU. */
    void
    next()
    {
        if (cpus.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[at++ % cpus.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

    /** Let the calling thread, and the threads it starts, use every CPU. */
    void
    release()
    {
        if (!cpus.empty())
            sched_setaffinity(0, sizeof all, &all);
    }

  private:
    cpu_set_t all;
    std::vector<int> cpus;
    std::size_t at = 0;
};

/** One graph instance with its job inputs and reference answers. */
struct Instance
{
    graph::Csr g;
    graph::Csr sym; ///< symmetric closure, for CC and BC
    graph::VertexMapping map;
    graph::VertexId src = 0; ///< BFS/SSSP source
    std::vector<graph::VertexId> bcSrcs;
    std::vector<std::uint64_t> bfsRef, ssspRef, ccRef;
    std::vector<double> prRef;
    std::vector<std::vector<double>> bcRef;
};

/** What one NovaSystem::run call reported. */
struct RunStats
{
    std::uint64_t ticks = 0;
    std::uint64_t generated = 0;
    std::uint64_t processed = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t supersteps = 0;
    std::map<std::string, double> extra;

    double
    get(const std::string &key) const
    {
        const auto it = extra.find(key);
        return it == extra.end() ? 0 : it->second;
    }
};

/** Host threads of the sharded workload's extra traced passes. */
constexpr std::uint32_t kScalingThreads = 2;

/**
 * Kinds of pass, all on the workload's own scheduler. Traced passes arm
 * the host profiler; Scaling passes rerun the sharded workload on
 * kScalingThreads host threads.
 */
enum class Variant { Untraced, Traced, Scaling };

const char *
variantName(Variant v)
{
    switch (v) {
    case Variant::Untraced: return "untraced";
    case Variant::Traced: return "traced";
    case Variant::Scaling: return "2-thread";
    }
    return "?";
}

std::uint32_t
threadsFor(const Workload &w, Variant v)
{
    return v == Variant::Scaling ? kScalingThreads : w.threads;
}

struct PassRecord
{
    Variant variant = Variant::Untraced;
    bool warmup = false; ///< checked, left out of every timing
    double probeMs = 0;
    double setupS = 0, buildS = 0, referenceS = 0;
    double wallS = 0, runS = 0, cpuS = 0;
    double heapMiB = 0; ///< most heap one NovaSystem::run call added
    std::uint32_t threads = 1; ///< host threads the scheduler ran on
    std::vector<RunStats> runs;
    std::uint64_t jobs = 0, failed = 0;
};

/** Build one instance; its graph.build and reference spans nest in setup. */
Instance
setUpInstance(const Workload &w, double scale, std::uint64_t graph_seed,
              std::uint64_t map_seed, Tracer &t, std::size_t parent,
              std::uint32_t pass, PassRecord &rec)
{
    namespace ref = workloads::reference;
    Instance in;
    {
        SpanScope span(t, "graph.build", parent, pass);
        in.g = std::strcmp(w.preset, "roadusa") == 0
                   ? graph::makeRoadUsa(scale, graph_seed).graph
                   : graph::makeTwitter(scale, graph_seed).graph;
        if (needsSymmetric(w))
            in.sym = graph::symmetrize(in.g);
        in.map = graph::randomMapping(in.g.numVertices(),
                                      w.gpns * core::NovaConfig{}.pesPerGpn,
                                      map_seed);
        rec.buildS += span.close();
    }
    in.src = graph::highestDegreeVertex(in.g);
    if (w.bcSources > 0) {
        // The highest-degree vertices, as runBcMultiSource picks them.
        std::vector<graph::VertexId> order(in.sym.numVertices());
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(),
                         [&](graph::VertexId a, graph::VertexId b) {
                             return in.sym.degree(a) > in.sym.degree(b);
                         });
        order.resize(std::min<std::size_t>(order.size(), w.bcSources));
        in.bcSrcs = std::move(order);
    }
    {
        SpanScope span(t, "workloads.reference", parent, pass);
        for (Algo a : w.algos) {
            switch (a) {
            case Algo::Bfs: in.bfsRef = ref::bfsDepths(in.g, in.src); break;
            case Algo::Sssp:
                in.ssspRef = ref::ssspDistances(in.g, in.src);
                break;
            case Algo::Cc: in.ccRef = ref::ccLabels(in.sym); break;
            case Algo::Pr:
                in.prRef = ref::pagerankDelta(in.g, kPrDamping, kPrTolerance,
                                              kPrIterations);
                break;
            case Algo::Bc:
                for (graph::VertexId s : in.bcSrcs)
                    in.bcRef.push_back(ref::bcDependencies(in.sym, s));
                break;
            }
        }
        rec.referenceS += span.close();
    }
    return in;
}

/**
 * All instances of a pass; instance i's seeds derive from (seed, i).
 * Each instance is built on the next CPU of `cpus`.
 */
std::vector<Instance>
setUp(const Workload &w, double scale, std::uint64_t seed, CpuRotation &cpus,
      Tracer &t, std::size_t parent, std::uint32_t pass, PassRecord &rec)
{
    std::vector<Instance> out;
    const std::uint64_t base = splitmix64(seed);
    for (std::uint32_t i = 0; i < w.instances; ++i) {
        cpus.next();
        out.push_back(setUpInstance(w, scale, splitmix64(base + 2 * i),
                                    splitmix64(base + 2 * i + 1), t, parent,
                                    pass, rec));
    }
    return out;
}

/**
 * The NOVA engine with a core.run span around every NovaSystem::run
 * call (BC makes two per source); keeps each call's statistics. A
 * single-threaded engine moves to the next CPU before every call; one
 * that starts worker threads leaves them every CPU.
 */
class TimedEngine : public workloads::GraphEngine
{
  public:
    TimedEngine(core::NovaConfig cfg, CpuRotation &cpus, Tracer &t,
                std::size_t parent, std::uint32_t pass,
                std::vector<RunStats> &out)
        : rotate(cfg.threads <= 1), system(std::move(cfg)), cpus(cpus),
          tracer(t), parentSpan(parent), passId(pass), stats(out)
    {
        if (!rotate)
            cpus.release();
    }

    std::string name() const override { return system.name(); }

    workloads::RunResult
    run(workloads::VertexProgram &program, const graph::Csr &g,
        const graph::VertexMapping &map) override
    {
        if (rotate)
            cpus.next();
        SpanScope span(tracer, "core.run", parentSpan, passId);
        const std::size_t held = heap::liveBytes();
        heap::resetPeak();
        workloads::RunResult r = system.run(program, g, map);
        runSeconds += span.close();
        heapBytes = std::max(heapBytes, heap::peakBytes() - held);
        stats.push_back({r.ticks, r.messagesGenerated, r.messagesProcessed,
                         r.coalescedUpdates, r.bspIterations, r.extra});
        return r;
    }

    double runSeconds = 0;
    /** Most heap one run call held above what was live before it. */
    std::size_t heapBytes = 0;

  private:
    bool rotate;
    core::NovaSystem system;
    CpuRotation &cpus;
    Tracer &tracer;
    std::size_t parentSpan;
    std::uint32_t passId;
    std::vector<RunStats> &stats;
};

bool
within(const std::vector<double> &got, const std::vector<double> &want,
       double abs_tol, double rel_tol)
{
    if (got.size() != want.size())
        return false;
    for (std::size_t v = 0; v < got.size(); ++v)
        if (!(std::abs(got[v] - want[v]) <=
              abs_tol + rel_tol * std::abs(want[v])))
            return false;
    return true;
}

/**
 * Run one job and check it with nova_cli's tolerances: exact for
 * BFS/SSSP/CC, PageRank within 1e-9 + 1e-5 * ref, BC within
 * 1e-4 + 1e-2 * |ref|.
 */
bool
runJob(const Job &job, workloads::GraphEngine &eng, const Instance &in,
       Tracer &t, std::size_t parent, std::uint32_t pass)
{
    switch (job.algo) {
    case Algo::Bfs: {
        workloads::BfsProgram prog(in.src);
        const auto r = eng.run(prog, in.g, in.map);
        SpanScope check(t, "check", parent, pass);
        return r.props == in.bfsRef;
    }
    case Algo::Sssp: {
        workloads::SsspProgram prog(in.src);
        const auto r = eng.run(prog, in.g, in.map);
        SpanScope check(t, "check", parent, pass);
        return r.props == in.ssspRef;
    }
    case Algo::Cc: {
        workloads::CcProgram prog;
        const auto r = eng.run(prog, in.sym, in.map);
        SpanScope check(t, "check", parent, pass);
        return r.props == in.ccRef;
    }
    case Algo::Pr: {
        workloads::PageRankProgram prog(kPrDamping, kPrTolerance,
                                        kPrIterations);
        eng.run(prog, in.g, in.map);
        SpanScope check(t, "check", parent, pass);
        return within(prog.rank(), in.prRef, 1e-9, 1e-5);
    }
    case Algo::Bc: {
        const auto bc =
            workloads::runBc(eng, in.sym, in.map, in.bcSrcs.at(job.bcIndex));
        SpanScope check(t, "check", parent, pass);
        return within(bc.centrality, in.bcRef.at(job.bcIndex), 1e-4, 1e-2);
    }
    }
    return false;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

void
runPass(const Workload &w, double scale,
        const std::vector<Instance> &instances, CpuRotation &cpus,
        Tracer &t, std::size_t parent, std::uint32_t pass, PassRecord &rec)
{
    core::NovaConfig cfg = core::NovaConfig{}.scaled(scale);
    cfg.numGpns = w.gpns;
    cfg.threads = threadsFor(w, rec.variant);
    rec.threads = std::max<std::uint32_t>(1, cfg.threads);
    TimedEngine eng(cfg, cpus, t, parent, pass, rec.runs);
    for (std::size_t i = 0; i < instances.size(); ++i) {
        for (const Job &job : jobsOf(w)) {
            ++rec.jobs;
            bool ok = false;
            try {
                ok = runJob(job, eng, instances[i], t, parent, pass);
                if (!ok)
                    std::fprintf(stderr, "pass %u instance %zu job %s: "
                                 "result differs from the reference\n",
                                 pass, i, job.name.c_str());
            } catch (const std::exception &e) {
                std::fprintf(stderr, "pass %u instance %zu job %s failed: "
                             "%s\n", pass, i, job.name.c_str(), e.what());
            }
            rec.failed += ok ? 0 : 1;
        }
    }
    rec.runS = eng.runSeconds;
    rec.heapMiB = static_cast<double>(eng.heapBytes) / (1 << 20);
}

/** Per-run-call (events, fingerprint): must repeat on every pass. */
std::vector<std::pair<double, double>>
signature(const PassRecord &rec)
{
    std::vector<std::pair<double, double>> sig;
    for (const RunStats &r : rec.runs)
        sig.emplace_back(r.get("sim.events"), r.get("sim.fingerprint"));
    return sig;
}

double
sum(const PassRecord &rec, const std::string &key)
{
    double s = 0;
    for (const RunStats &r : rec.runs)
        s += r.get(key);
    return s;
}

/** Profiler self seconds of the sites of one unit: kind `unit` or `unit.*`. */
double
profileSelfSeconds(const PassRecord &rec, const std::string &unit)
{
    const std::string head = "profile.";
    const std::string tail = ".self_ns";
    double ns = 0;
    for (const RunStats &r : rec.runs)
        for (const auto &[k, v] : r.extra) {
            if (k.size() <= head.size() + tail.size() ||
                k.compare(0, head.size(), head) != 0 ||
                k.compare(k.size() - tail.size(), tail.size(), tail) != 0)
                continue;
            const std::string kind = k.substr(
                head.size(), k.size() - head.size() - tail.size());
            if (kind == unit || kind.rfind(unit + ".", 0) == 0)
                ns += v;
        }
    return ns / 1e9;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::vector<double>
collect(const std::vector<const PassRecord *> &passes,
        double (*f)(const PassRecord &))
{
    std::vector<double> v;
    for (const PassRecord *p : passes)
        v.push_back(f(*p));
    return v;
}

std::string
spreadNote(const std::vector<double> &v, const char *what)
{
    const auto q = quartiles(v);
    char buf[128];
    std::snprintf(buf, sizeof buf, "median of %zu %s (q1 %.6g, q3 %.6g)",
                  v.size(), what, q[0], q[2]);
    return buf;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 60;
    bool trace = false;
    std::string traceOut;
    double scale = 0;
};

[[noreturn]] void
usage(const std::string &msg)
{
    throw std::invalid_argument(msg);
}

double
parseNumber(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(d) || d < 0)
        usage(flag + " needs a non-negative number, not '" + v + "'");
    return d;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        if (const auto eq = flag.find('='); eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage(flag + " needs a value");
        }
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed") {
            const double d = parseNumber(flag, value);
            if (d != std::floor(d) || d > 1e15)
                usage("--seed needs a whole number");
            o.seed = static_cast<std::uint64_t>(d);
        } else if (flag == "--seconds")
            o.seconds = parseNumber(flag, value);
        else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--trace-out")
            o.traceOut = value;
        else if (flag == "--scale") {
            o.scale = parseNumber(flag, value);
            if (o.scale < 1)
                usage("--scale must be at least 1");
        } else
            usage("unknown option '" + flag + "'");
    }
    if (o.trace && o.traceOut.empty())
        usage("--trace 1 needs --trace-out <file>");
    return o;
}

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return w;
    std::string known;
    for (const Workload &w : kWorkloads)
        known += std::string(known.empty() ? "" : ", ") + w.name;
    usage("--workload must be one of " + known + ", not '" + name + "'");
}

int
benchMain(const Options &o, MemProbe &probe)
{
    const Workload &w = findWorkload(o.workload);
    const double scale = o.scale > 0 ? o.scale : w.scale;
    const std::vector<Job> jobs = jobsOf(w);

    std::vector<Variant> variants{Variant::Untraced};
    if (o.trace) {
        variants.push_back(Variant::Traced);
        if (w.threads > 0)
            variants.push_back(Variant::Scaling);
    }

    std::printf("# nova-perfbench workload=%s seed=%llu seconds=%g "
                "trace=%d\n",
                w.name, static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0);
    std::printf("# host: nproc=%ld build=%s\n", sysconf(_SC_NPROCESSORS_ONLN),
                PERFBENCH_BUILD_TYPE);
    std::string job_names;
    for (const Job &j : jobs)
        job_names += " " + j.name;
    std::printf("# workload: preset=%s scale=%g gpns=%u scheduler=%s "
                "threads=%u instances=%u jobs/instance:%s\n",
                w.preset, scale, w.gpns, w.threads ? "sharded" : "serial",
                std::max<std::uint32_t>(1, w.threads), w.instances,
                job_names.c_str());
    std::fflush(stdout);

    auto &profiler = sim::profile::Registry::instance();
    Tracer tracer;
    CpuRotation cpus;
    std::vector<PassRecord> passes;
    auto since = [](std::uint64_t t0) {
        return static_cast<double>(sim::profile::hostNow() - t0) / 1e9;
    };
    const std::uint64_t start = sim::profile::hostNow();
    double longest_cycle = 0; // probe + setup + pass, in seconds
    std::uint32_t pass = 0;
    do {
        const std::uint64_t cycle_start = sim::profile::hostNow();
        PassRecord rec;
        // Pass 0 warms the caches and the allocator: checked, not reported.
        rec.warmup = pass == 0;
        rec.variant = rec.warmup ? Variant::Untraced
                                 : variants[(pass - 1) % variants.size()];
        rec.probeMs = probe.measureMs();
        std::vector<Instance> instances;
        {
            SpanScope setup(tracer, "setup", noParent, pass);
            instances = setUp(w, scale, o.seed, cpus, tracer, setup.id(),
                              pass, rec);
            rec.setupS = setup.close();
        }
        if (pass == 0)
            for (const Instance &in : instances)
                std::printf("# instance: V=%u E=%llu symE=%llu src=%u\n",
                            in.g.numVertices(),
                            static_cast<unsigned long long>(in.g.numEdges()),
                            static_cast<unsigned long long>(
                                in.sym.numEdges()),
                            in.src);
        if (rec.variant == Variant::Traced)
            profiler.arm();
        {
            SpanScope span(tracer, "pass", noParent, pass);
            const double cpu0 = cpuSeconds();
            runPass(w, scale, instances, cpus, tracer, span.id(), pass, rec);
            rec.cpuS = cpuSeconds() - cpu0;
            rec.wallS = span.close();
        }
        profiler.disarm();

        // Every pass must simulate the same events, profiled or not and
        // at any thread count.
        if (!passes.empty() && signature(rec) != signature(passes.front())) {
            std::fprintf(stderr, "pass %u: sim.events/sim.fingerprint "
                         "differ from the first pass\n", pass);
            rec.failed = rec.jobs;
        }
        std::printf("pass %u %-8s setup %.4f s  wall %.4f s  run %.4f s  "
                    "cpu %.3f s  probe %.2f ms  events %.0f  heap %.3f MiB  "
                    "failed %llu\n",
                    pass,
                    rec.warmup ? "warm-up" : variantName(rec.variant),
                    rec.setupS, rec.wallS,
                    rec.runS, rec.cpuS, rec.probeMs,
                    sum(rec, "sim.events"), rec.heapMiB,
                    static_cast<unsigned long long>(rec.failed));
        std::fflush(stdout);
        passes.push_back(std::move(rec));
        ++pass;
        longest_cycle = std::max(longest_cycle, since(cycle_start));
        // Start another pass only if it should end within the budget.
    } while (pass <= variants.size() ||
             since(start) + longest_cycle <= o.seconds);

    std::vector<const PassRecord *> untraced, traced, scaling, all;
    std::uint64_t attempted = 0, failed = 0;
    for (const PassRecord &p : passes) {
        all.push_back(&p);
        attempted += p.jobs;
        failed += p.failed;
        if (p.warmup)
            continue;
        switch (p.variant) {
        case Variant::Untraced: untraced.push_back(&p); break;
        case Variant::Traced: traced.push_back(&p); break;
        case Variant::Scaling: scaling.push_back(&p); break;
        }
    }

    const auto wall = collect(untraced, [](const PassRecord &p) {
        return p.wallS;
    });
    const auto setup = collect(untraced, [](const PassRecord &p) {
        return p.setupS;
    });
    const auto heap_mib = collect(untraced, [](const PassRecord &p) {
        return p.heapMiB;
    });
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    // Exact counters: every pass repeats them, so pass 0 speaks for all.
    const PassRecord &p0 = passes.front();
    const double events = sum(p0, "sim.events");
    double ticks = 0, generated = 0, processed = 0, coalesced = 0;
    double supersteps = 0;
    for (const RunStats &r : p0.runs) {
        ticks += static_cast<double>(r.ticks);
        generated += static_cast<double>(r.generated);
        processed += static_cast<double>(r.processed);
        coalesced += static_cast<double>(r.coalesced);
        supersteps += static_cast<double>(r.supersteps);
    }
    const double noc_msgs = sum(p0, "net.messages");
    const double rejects = sum(p0, "net.sendRejects");
    const double hits = sum(p0, "cache.hits");
    const double misses = sum(p0, "cache.misses");
    const double useful = sum(p0, "vertexMem.usefulPrefetchBytes");
    const double wasteful = sum(p0, "vertexMem.wastefulPrefetchBytes");

    struct Row
    {
        Metric m;
        std::string note;
        /**
         * In the JSON result line. The rows that only the sharded
         * workload moves are printed but left out, as BENCHMARK.json
         * gates only single-GPN, serial-scheduler workloads.
         */
        bool inResult = true;
    };
    std::vector<Row> e2e = {
        {{"wall_s", median(wall), "s"}, spreadNote(wall, "passes")},
        {{"setup_s", median(setup), "s"}, spreadNote(setup, "setups")},
        {{"peak_heap_mb", *std::max_element(heap_mib.begin(), heap_mib.end()),
          "MiB"},
         "most operator-new bytes one NovaSystem::run call held above its "
         "inputs"},
    };
    auto med = [&](const std::vector<const PassRecord *> &ps,
                   double (*f)(const PassRecord &)) {
        return median(collect(ps, f));
    };
    const auto &sched_passes = scaling.empty() ? untraced : scaling;
    const std::string sched_passes_note =
        scaling.empty() ? "" : std::to_string(kScalingThreads) +
                                   "-thread passes";
    std::vector<Row> layer = {
        {{"graph.build_s",
          med(untraced, [](const PassRecord &p) { return p.buildS; }), "s"},
         ""},
        {{"workloads.reference_s",
          med(untraced, [](const PassRecord &p) { return p.referenceS; }),
          "s"},
         ""},
        {{"core.run_s",
          med(untraced, [](const PassRecord &p) { return p.runS; }), "s"},
         ""},
        {{"core.sim_ticks", ticks, "ticks"}, "exact"},
        {{"core.messages", generated, "count"}, "exact"},
        {{"core.supersteps", supersteps, "count"}, "exact"},
        {{"core.coalesce_ratio", ratio(coalesced, processed), "ratio"},
         "exact"},
        {{"sim.events", events, "count"}, "exact"},
        {{"sim.ns_per_event",
          med(untraced,
              [](const PassRecord &p) {
                  return ratio(p.runS * 1e9, sum(p, "sim.events"));
              }),
          "ns"},
         ""},
        // On sharded-4gpn the traced run's 2-thread passes show the
        // scheduler's cross-thread waiting; untraced, it runs on one.
        {{"sim.sched_cpu_s",
          med(sched_passes, [](const PassRecord &p) { return p.cpuS; }), "s"},
         sched_passes_note},
        {{"sim.sched_busy_ratio",
          med(sched_passes,
              [](const PassRecord &p) {
                  return ratio(p.cpuS, p.wallS * p.threads);
              }),
          "ratio"},
         sched_passes_note},
        {{"noc.messages", noc_msgs, "count"}, "exact"},
        {{"noc.send_rejects", rejects, "count"}, "exact"},
        {{"noc.accept_ratio", ratio(noc_msgs, noc_msgs + rejects), "ratio"},
         "exact"},
        {{"noc.cross_gpn_messages", sum(p0, "net.crossGpnMessages"),
          "count"},
         "exact",
         false},
        {{"mem.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
         "exact"},
        {{"mem.vertex_bytes",
          sum(p0, "vertexMem.bytesRead") + sum(p0, "vertexMem.bytesWritten"),
          "bytes"},
         "exact"},
        {{"mem.edge_bytes", sum(p0, "edgeMem.bytes"), "bytes"}, "exact"},
        {{"mem.prefetch_useful_ratio", ratio(useful, useful + wasteful),
          "ratio"},
         "exact"},
        {{"peak_rss_mb", peak_rss_mb, "MiB"},
         "getrusage ru_maxrss, whole process; set-up sets it"},
        {{"host.mem_probe_ms",
          med(all, [](const PassRecord &p) { return p.probeMs; }), "ms"},
         "environment, not a layer"},
    };
    if (o.trace) {
        // Shard lanes are never profiled (sim/parallel.cc), so on the
        // sharded workload the profile rows are 0 or run-only.
        const std::pair<const char *, const char *> sites[] = {
            {"core.mpu_s", "mpu"},   {"core.vmu_s", "vmu"},
            {"core.mgu_s", "mgu"},   {"mem.dram_s", "dram"},
            {"sim.unattributed_s", "run"}};
        for (const auto &[name, kind] : sites) {
            std::vector<double> v;
            for (const PassRecord *p : traced)
                v.push_back(profileSelfSeconds(*p, kind));
            layer.push_back({{name, median(v), "s"}, ""});
        }
        layer.push_back(
            {{"sim.profile_coverage",
              med(traced,
                  [](const PassRecord &p) {
                      const double total =
                          sum(p, "profile.run.total_ns") / 1e9;
                      return total > 0
                                 ? 1 - profileSelfSeconds(p, "run") / total
                                 : 0.0;
                  }),
              "ratio"},
             ""});
        if (!scaling.empty())
            layer.push_back(
                {{"sim.sched_speedup",
                  median(wall) / med(scaling,
                                     [](const PassRecord &p) {
                                         return p.wallS;
                                     }),
                  "ratio"},
                 "1-thread wall / " + std::to_string(kScalingThreads) +
                     "-thread wall",
                 false});
        layer.push_back(
            {{"trace.overhead",
              med(traced, [](const PassRecord &p) { return p.wallS; }) /
                      median(wall) -
                  1,
              "ratio"},
             "traced wall / untraced wall - 1"});
    }

    for (const Row &r : e2e)
        std::printf("%s\n", metricLine(r.m, r.note).c_str());
    for (const Row &r : layer)
        std::printf("%s\n", metricLine(r.m, r.note).c_str());
    if (o.trace && scaling.empty())
        std::printf("metric sim.sched_speedup n/a ratio serial scheduler: "
                    "no %u-thread passes\n", kScalingThreads);

    if (o.trace) {
        std::printf("# span self time, seconds per pass (all variants):\n");
        for (const auto &[name, secs] : selfSeconds(tracer.spans()))
            std::printf("#   %-22s %.6f\n", name.c_str(),
                        secs / static_cast<double>(passes.size()));
        std::ofstream os(o.traceOut);
        writeChromeTrace(os, tracer.spans());
        os.close();
        if (!os)
            throw std::runtime_error("cannot write " + o.traceOut);
        std::printf("# trace: %zu spans written to %s\n",
                    tracer.spans().size(), o.traceOut.c_str());
    }

    std::printf("jobs %llu\njobs_failed %llu\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    std::vector<Metric> out;
    for (const Row &r : o.trace ? layer : e2e)
        if (r.inResult)
            out.push_back(r.m);
    std::printf("%s\n", resultJson(failed == 0, attempted, failed, out)
                            .c_str());
    return failed == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options o;
    try {
        o = parseArgs(argc, argv);
        findWorkload(o.workload);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "nova_perfbench: %s\n", e.what());
        return 2;
    }
    // A dead probe process must surface as an error, not as SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    try {
        std::fflush(stdout);
        MemProbe probe;
        return benchMain(o, probe);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nova_perfbench: %s\n", e.what());
        return 2;
    }
}
