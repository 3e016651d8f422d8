#include "verify/differential.hh"

#include <cmath>
#include <memory>

#include "baselines/ligra.hh"
#include "baselines/polygraph.hh"
#include "core/system.hh"
#include "graph/partition.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "verify/replay.hh"
#include "workloads/programs.hh"
#include "workloads/reference.hh"

namespace nova::verify
{

using graph::VertexId;
using workloads::GraphEngine;
using workloads::RunResult;
using workloads::VertexProgram;

const char *
algoName(Algo a)
{
    switch (a) {
      case Algo::Bfs:
        return "bfs";
      case Algo::Sssp:
        return "sssp";
      case Algo::Cc:
        return "cc";
      case Algo::Pr:
        return "pr";
    }
    return "?";
}

const char *
engineKindName(EngineKind e)
{
    switch (e) {
      case EngineKind::Nova:
        return "nova";
      case EngineKind::PolyGraph:
        return "polygraph";
      case EngineKind::Ligra:
        return "ligra";
    }
    return "?";
}

bool
algoFromName(const std::string &name, Algo &out)
{
    for (const Algo a : {Algo::Bfs, Algo::Sssp, Algo::Cc, Algo::Pr}) {
        if (name == algoName(a)) {
            out = a;
            return true;
        }
    }
    return false;
}

bool
engineKindFromName(const std::string &name, EngineKind &out)
{
    for (const EngineKind e : {EngineKind::Nova, EngineKind::PolyGraph,
                               EngineKind::Ligra}) {
        if (name == engineKindName(e)) {
            out = e;
            return true;
        }
    }
    return false;
}

namespace
{

/**
 * Decorator that forwards a program unchanged except for one corrupted
 * reduction (FaultSpec). The inner program stays bound and keeps its
 * auxiliary result arrays (e.g. PageRank's rank vector).
 */
class CorruptedProgram : public VertexProgram
{
  public:
    CorruptedProgram(VertexProgram &program, const FaultSpec &spec)
        : inner(program), fault(spec)
    {
    }

    std::string name() const override { return inner.name(); }
    workloads::ExecMode mode() const override { return inner.mode(); }

    void
    bind(const graph::Csr &g) override
    {
        VertexProgram::bind(g);
        inner.bind(g);
    }

    std::uint64_t
    initialProp(VertexId v) const override
    {
        return inner.initialProp(v);
    }

    std::uint64_t
    initialAcc(VertexId v) const override
    {
        return inner.initialAcc(v);
    }

    std::vector<VertexId>
    initialActive() const override
    {
        return inner.initialActive();
    }

    std::int64_t
    scheduledActivation(VertexId v) const override
    {
        return inner.scheduledActivation(v);
    }

    std::uint64_t
    reduce(std::uint64_t state, std::uint64_t update,
           std::uint64_t cur) const override
    {
        const std::uint64_t result = inner.reduce(state, update, cur);
        if (fault.enabled && reduceCalls++ == fault.afterReduces)
            return result ^ fault.xorMask;
        return result;
    }

    bool
    activates(std::uint64_t old_state,
              std::uint64_t new_state) const override
    {
        return inner.activates(old_state, new_state);
    }

    std::uint64_t
    propagateValue(std::uint64_t cur, VertexId v) const override
    {
        return inner.propagateValue(cur, v);
    }

    std::uint64_t
    propagate(std::uint64_t value, graph::Weight w) const override
    {
        return inner.propagate(value, w);
    }

    workloads::BarrierOutcome
    bspApply(std::uint64_t cur, std::uint64_t acc, VertexId v) override
    {
        return inner.bspApply(cur, acc, v);
    }

    std::uint64_t
    maxIterations() const override
    {
        return inner.maxIterations();
    }

  private:
    VertexProgram &inner;
    FaultSpec fault;
    mutable std::uint64_t reduceCalls = 0;
};

/**
 * Engine under test. Configurations mirror the integration sweep's
 * scaled-down systems; NOVA alternates between a single-GPN and a
 * two-GPN hierarchical topology by case index so cross-GPN schedules
 * are fuzzed too. Everything is a pure function of (kind, index), which
 * replay relies on.
 */
std::unique_ptr<GraphEngine>
makeEngine(EngineKind kind, std::uint64_t index, std::uint32_t &parts,
           std::uint32_t sched_threads)
{
    switch (kind) {
      case EngineKind::Nova: {
        core::NovaConfig cfg;
        cfg.pesPerGpn = 4;
        cfg.cacheBytesPerPe = 512;
        cfg.activeBufferEntries = 16;
        if (index % 2 == 1)
            cfg.numGpns = 2;
        // Cross-sched sweep: the sharded parallel scheduler with the
        // canonical merged event order folded into the fingerprint.
        cfg.threads = sched_threads;
        cfg.deterministicMerge = sched_threads > 0;
        parts = cfg.totalPes();
        return std::make_unique<core::NovaSystem>(cfg);
      }
      case EngineKind::PolyGraph: {
        baselines::PolyGraphConfig cfg;
        cfg.onChipBytes = 1024; // forces several temporal slices
        parts = 1;
        return std::make_unique<baselines::PolyGraphModel>(cfg);
      }
      case EngineKind::Ligra:
        parts = 1;
        return std::make_unique<baselines::LigraEngine>();
    }
    sim::panic("bad engine kind");
}

/** Mapping seed: decorrelated from the graph but replay-stable. */
std::uint64_t
mappingSeed(std::uint64_t seed, std::uint64_t index)
{
    return seed ^ (index * 0x9e3779b97f4a7c15ULL) ^ 0x5ca1ab1eULL;
}

std::string
describeExactMismatches(const std::vector<std::uint64_t> &got,
                        const std::vector<std::uint64_t> &want,
                        std::uint32_t max_reported)
{
    std::string detail;
    std::uint64_t mismatches = 0;
    for (VertexId v = 0; v < want.size(); ++v) {
        if (got[v] == want[v])
            continue;
        ++mismatches;
        if (mismatches <= max_reported) {
            if (!detail.empty())
                detail += "; ";
            detail += "vertex " + std::to_string(v) + ": got " +
                      std::to_string(got[v]) + " want " +
                      std::to_string(want[v]);
        }
    }
    if (mismatches > max_reported)
        detail += " (+" + std::to_string(mismatches - max_reported) +
                  " more)";
    return detail;
}

std::string
describePrMismatches(const std::vector<double> &got,
                     const std::vector<double> &want, double abs_tol,
                     double rel_tol, std::uint32_t max_reported)
{
    std::string detail;
    std::uint64_t mismatches = 0;
    for (VertexId v = 0; v < want.size(); ++v) {
        const double err = std::abs(got[v] - want[v]);
        if (err <= abs_tol + rel_tol * std::abs(want[v]))
            continue;
        ++mismatches;
        if (mismatches <= max_reported) {
            if (!detail.empty())
                detail += "; ";
            detail += "vertex " + std::to_string(v) + ": got " +
                      std::to_string(got[v]) + " want " +
                      std::to_string(want[v]);
        }
    }
    if (mismatches > max_reported)
        detail += " (+" + std::to_string(mismatches - max_reported) +
                  " more)";
    return detail;
}

/** FNV-1a over the final property vector (determinism record). */
std::uint64_t
propsFingerprint(const std::vector<std::uint64_t> &props)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint64_t p : props) {
        for (unsigned byte = 0; byte < 8; ++byte) {
            h ^= (p >> (byte * 8)) & 0xFF;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

/** What one engine × algorithm run produced. */
struct SingleOutcome
{
    /** Mismatch description; empty means agreement with the reference. */
    std::string detail;
    RunRecord record;
};

SingleOutcome
runSingle(const FuzzedGraph &fuzzed, Algo algo, EngineKind kind,
          std::uint64_t seed, std::uint64_t index,
          const DiffOptions &opt, std::uint32_t sched_threads = 0)
{
    namespace ref = workloads::reference;

    // CC wants the symmetric closure (weakly connected components);
    // the traversals and PageRank run the graph as generated.
    const graph::Csr g = algo == Algo::Cc ? graph::symmetrize(fuzzed.graph)
                                          : fuzzed.graph;
    const VertexId src = fuzzed.source;

    std::uint32_t parts = 1;
    auto engine = makeEngine(kind, index, parts, sched_threads);
    const auto map = graph::randomMapping(g.numVertices(), parts,
                                          mappingSeed(seed, index));

    SingleOutcome out;
    out.record.algo = algo;
    out.record.engine = kind;

    auto execute = [&opt, &engine, &out, &g, &map](VertexProgram &program) {
        RunResult r;
        if (opt.fault.enabled) {
            CorruptedProgram corrupted(program, opt.fault);
            r = engine->run(corrupted, g, map);
        } else {
            r = engine->run(program, g, map);
        }
        out.record.fingerprint = propsFingerprint(r.props);
        const auto fp_it = r.extra.find("sim.fingerprint");
        if (fp_it != r.extra.end())
            out.record.fingerprint ^=
                static_cast<std::uint64_t>(fp_it->second);
        // Sharded runs under deterministic merge also expose the
        // canonical merged event order; fold it in (with a spread so
        // the two hashes cannot cancel) to make the record sensitive
        // to cross-shard interleaving, not just per-shard order.
        const auto mfp_it = r.extra.find("sim.mergedFingerprint");
        if (mfp_it != r.extra.end())
            out.record.fingerprint ^=
                static_cast<std::uint64_t>(mfp_it->second) *
                0x9e3779b97f4a7c15ULL;
        return r;
    };

    switch (algo) {
      case Algo::Bfs: {
        workloads::BfsProgram prog(src);
        const RunResult r = execute(prog);
        out.detail = describeExactMismatches(r.props,
                                             ref::bfsDepths(g, src),
                                             opt.maxReportedVertices);
        return out;
      }
      case Algo::Sssp: {
        workloads::SsspProgram prog(src);
        const RunResult r = execute(prog);
        out.detail = describeExactMismatches(r.props,
                                             ref::ssspDistances(g, src),
                                             opt.maxReportedVertices);
        return out;
      }
      case Algo::Cc: {
        workloads::CcProgram prog;
        const RunResult r = execute(prog);
        out.detail = describeExactMismatches(r.props, ref::ccLabels(g),
                                             opt.maxReportedVertices);
        return out;
      }
      case Algo::Pr: {
        workloads::PageRankProgram prog(0.85, 1e-11, 8);
        execute(prog);
        const auto want = ref::pagerankDelta(g, 0.85, 1e-11, 8);
        out.detail = describePrMismatches(prog.rank(), want, opt.prAbsTol,
                                          opt.prRelTol,
                                          opt.maxReportedVertices);
        return out;
      }
    }
    sim::panic("bad algorithm");
}

} // namespace

CaseOutcome
runCase(std::uint64_t seed, std::uint64_t index, const DiffOptions &opt)
{
    CaseOutcome out;
    out.seed = seed;
    out.index = index;

    const FuzzedGraph fuzzed = fuzzCase(seed, index, opt.fuzzer);
    out.graphDescription = fuzzed.description;

    for (const Algo algo : opt.algos) {
        for (const EngineKind kind : opt.engines) {
            ++out.runsExecuted;
            SingleOutcome single =
                runSingle(fuzzed, algo, kind, seed, index, opt);

            if (opt.crossCheckQueueImpls && kind == EngineKind::Nova) {
                // Replay the identical case on the other queue backend;
                // the event-order fingerprints (folded into the record)
                // must agree bit for bit.
                ++out.runsExecuted;
                const auto other =
                    sim::EventQueue::defaultImpl() ==
                            sim::EventQueue::Impl::Calendar
                        ? sim::EventQueue::Impl::LegacyHeap
                        : sim::EventQueue::Impl::Calendar;
                sim::EventQueue::ScopedDefaultImpl forced(other);
                const SingleOutcome twin =
                    runSingle(fuzzed, algo, kind, seed, index, opt);
                if (twin.record.fingerprint != single.record.fingerprint) {
                    Divergence d;
                    d.algo = algo;
                    d.engine = kind;
                    d.detail =
                        "event-queue backend mismatch: fingerprint " +
                        std::to_string(single.record.fingerprint) +
                        " (default) vs " +
                        std::to_string(twin.record.fingerprint) +
                        " (alternate)";
                    d.replayToken = encodeReplayToken(
                        {seed, index, algo, kind, opt.fuzzer, opt.fault});
                    out.divergences.push_back(std::move(d));
                }
            }

            if (opt.crossCheckSchedThreads > 0 &&
                kind == EngineKind::Nova && !opt.fault.enabled) {
                // Sweep the sharded scheduler over both queue backends
                // and both thread counts. All four records must agree
                // bit for bit (the sharded model is deterministic in
                // the thread count and queue backend) and every run
                // must still match the reference.
                bool have_first = false;
                RunRecord first{};
                for (const auto impl :
                     {sim::EventQueue::Impl::LegacyHeap,
                      sim::EventQueue::Impl::Calendar}) {
                    for (const std::uint32_t threads :
                         {std::uint32_t{1}, opt.crossCheckSchedThreads}) {
                        ++out.runsExecuted;
                        sim::EventQueue::ScopedDefaultImpl forced(impl);
                        const SingleOutcome sharded = runSingle(
                            fuzzed, algo, kind, seed, index, opt, threads);
                        std::string detail;
                        if (!sharded.detail.empty())
                            detail = "sharded scheduler (" +
                                     std::to_string(threads) +
                                     " threads) diverged from the "
                                     "reference: " +
                                     sharded.detail;
                        else if (!have_first) {
                            have_first = true;
                            first = sharded.record;
                        } else if (sharded.record.fingerprint !=
                                   first.fingerprint)
                            detail =
                                "sharded scheduler mismatch: fingerprint " +
                                std::to_string(first.fingerprint) +
                                " (first variant) vs " +
                                std::to_string(sharded.record.fingerprint) +
                                " (" + std::to_string(threads) +
                                " threads)";
                        if (detail.empty())
                            continue;
                        Divergence d;
                        d.algo = algo;
                        d.engine = kind;
                        d.detail = std::move(detail);
                        d.replayToken = encodeReplayToken(
                            {seed, index, algo, kind, opt.fuzzer,
                             opt.fault});
                        out.divergences.push_back(std::move(d));
                    }
                }
            }

            out.runs.push_back(single.record);
            if (single.detail.empty())
                continue;
            Divergence d;
            d.algo = algo;
            d.engine = kind;
            d.detail = std::move(single.detail);
            d.replayToken = encodeReplayToken({seed, index, algo, kind,
                                               opt.fuzzer, opt.fault});
            out.divergences.push_back(std::move(d));
        }
    }
    return out;
}

FuzzSummary
runFuzz(std::uint64_t seed, std::uint64_t iterations,
        const DiffOptions &opt,
        const std::function<void(const CaseOutcome &)> &onCase)
{
    FuzzSummary summary;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        CaseOutcome outcome = runCase(seed, i, opt);
        ++summary.casesRun;
        summary.runsExecuted += outcome.runsExecuted;
        if (onCase)
            onCase(outcome);
        if (!outcome.ok())
            summary.failures.push_back(std::move(outcome));
    }
    return summary;
}

} // namespace nova::verify
