/**
 * @file
 * The differential runner: every fuzzed graph is executed by the NOVA
 * cycle model, the PolyGraph baseline and the Ligra-like software
 * engine, and each result is compared per vertex against the
 * sequential references in workloads/reference.hh — exact for the
 * traversal workloads (BFS, SSSP, CC), epsilon-tolerant for PageRank.
 *
 * A divergence is reported together with a replay token (replay.hh)
 * that re-runs exactly the failing (seed, iteration, algorithm,
 * engine, fault) combination. Fault injection deliberately corrupts
 * one reduction so the harness can prove it detects — and replays —
 * real bugs.
 */

#ifndef NOVA_VERIFY_DIFFERENTIAL_HH
#define NOVA_VERIFY_DIFFERENTIAL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "verify/fuzz.hh"

namespace nova::verify
{

/** The workloads the differential harness cross-checks. */
enum class Algo : std::uint32_t
{
    Bfs,
    Sssp,
    Cc,
    Pr,
};

/** The engines under test. */
enum class EngineKind : std::uint32_t
{
    Nova,
    PolyGraph,
    Ligra,
};

/** Short stable name ("bfs", ...); used in tokens and CLI flags. */
const char *algoName(Algo a);
const char *engineKindName(EngineKind e);

/** Parse a name back; returns false on unknown input. */
bool algoFromName(const std::string &name, Algo &out);
bool engineKindFromName(const std::string &name, EngineKind &out);

/**
 * A deliberately corrupted reduction: after `afterReduces` calls, one
 * reduce result is XORed with `xorMask`. Applied to the engine under
 * test (never to the reference), so every injected fault must surface
 * as a divergence.
 */
struct FaultSpec
{
    bool enabled = false;
    /** Index of the corrupted reduce call within one engine run. */
    std::uint64_t afterReduces = 0;
    /** Bits flipped into that call's result. */
    std::uint64_t xorMask = 1;
};

/** Options of a differential run. */
struct DiffOptions
{
    std::vector<Algo> algos = {Algo::Bfs, Algo::Sssp, Algo::Cc, Algo::Pr};
    std::vector<EngineKind> engines = {EngineKind::Nova,
                                       EngineKind::PolyGraph,
                                       EngineKind::Ligra};
    FuzzerConfig fuzzer;
    FaultSpec fault;
    /**
     * Run every NOVA case twice — once per event-queue backend (legacy
     * binary heap, calendar queue) — and require bit-identical run
     * records. Proves the queue fast path preserves event order on
     * whatever the fuzzer generates.
     */
    bool crossCheckQueueImpls = false;
    /**
     * When nonzero, additionally run every NOVA case on the sharded
     * parallel scheduler (core::NovaConfig::threads) under
     * deterministic merge, sweeping {legacy heap, calendar} x
     * {1, crossCheckSchedThreads} host threads. All four run records
     * must be bit-identical to each other and agree with the
     * reference. Skipped when a fault is injected: the corrupted
     * reduction depends on global reduce-call order, which the sharded
     * model does not reproduce.
     */
    std::uint32_t crossCheckSchedThreads = 0;
    /** PageRank comparison tolerance: |got - want| <= abs + rel*want. */
    double prAbsTol = 1e-9;
    double prRelTol = 1e-6;
    /** Mismatching vertices listed per divergence before truncation. */
    std::uint32_t maxReportedVertices = 4;
};

/** One engine × algorithm disagreement with the reference. */
struct Divergence
{
    Algo algo = Algo::Bfs;
    EngineKind engine = EngineKind::Nova;
    /** First mismatching vertices as "v: got G want W" fragments. */
    std::string detail;
    /** Token reproducing exactly this run (see replay.hh). */
    std::string replayToken;
};

/**
 * The determinism record of one engine × algorithm run: a content hash
 * of the final properties folded with the engine's event-order
 * fingerprint (when it has one). Two replays of the same token must
 * produce identical records bit for bit.
 */
struct RunRecord
{
    Algo algo = Algo::Bfs;
    EngineKind engine = EngineKind::Nova;
    std::uint64_t fingerprint = 0;
};

/** The outcome of one fuzz case across all engines and algorithms. */
struct CaseOutcome
{
    std::uint64_t seed = 0;
    std::uint64_t index = 0;
    std::string graphDescription;
    /** Engine × algorithm runs executed for this case. */
    std::uint64_t runsExecuted = 0;
    std::vector<Divergence> divergences;
    /** One record per executed run, in execution order. */
    std::vector<RunRecord> runs;

    bool ok() const { return divergences.empty(); }
};

/** Aggregate of a fuzz campaign. */
struct FuzzSummary
{
    std::uint64_t casesRun = 0;
    std::uint64_t runsExecuted = 0;
    std::vector<CaseOutcome> failures;

    bool ok() const { return failures.empty(); }
};

/** Run the `index`-th case of stream `seed` across the full matrix. */
CaseOutcome runCase(std::uint64_t seed, std::uint64_t index,
                    const DiffOptions &opt);

/**
 * Run `iterations` cases of stream `seed`; `onCase` (optional) fires
 * after each case, e.g. for progress reporting.
 */
FuzzSummary
runFuzz(std::uint64_t seed, std::uint64_t iterations,
        const DiffOptions &opt,
        const std::function<void(const CaseOutcome &)> &onCase = {});

} // namespace nova::verify

#endif // NOVA_VERIFY_DIFFERENTIAL_HH
