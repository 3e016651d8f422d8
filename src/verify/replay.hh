/**
 * @file
 * Deterministic replay tokens.
 *
 * A token is a single shell-safe word that pins down everything a
 * failing differential run depends on: the fuzz stream seed, the case
 * index, the algorithm, the engine, the fuzzer bounds and any injected
 * fault. Because every layer underneath (graph generation, vertex
 * mapping, the event queue, all model Rngs) is seed-deterministic,
 * `nova_cli verify --replay=<token>` reproduces the original run bit
 * for bit.
 *
 * Format (version 1, all integers in their natural base):
 *   NV1.s<seed:hex>.i<index>.<algo>.<engine>.v<maxV>.e<maxE>
 *       [.f<afterReduces>x<xorMask:hex>]
 *
 * The optional 'f' field is an injected reduce corruption (must
 * diverge).
 */

#ifndef NOVA_VERIFY_REPLAY_HH
#define NOVA_VERIFY_REPLAY_HH

#include <string>

#include "verify/differential.hh"

namespace nova::verify
{

/** Everything needed to re-run one engine × algorithm fuzz run. */
struct ReplayCase
{
    std::uint64_t seed = 0;
    std::uint64_t index = 0;
    Algo algo = Algo::Bfs;
    EngineKind engine = EngineKind::Nova;
    FuzzerConfig fuzzer;
    FaultSpec fault;
};

/** Serialize to the one-word token. */
std::string encodeReplayToken(const ReplayCase &c);

/** Parse a token; returns false (out untouched) on malformed input. */
bool parseReplayToken(const std::string &token, ReplayCase &out);

/** The full one-line repro command for a failing run. */
std::string replayCommand(const ReplayCase &c);

/**
 * Execute exactly the run a token describes (one engine, one
 * algorithm, same fuzzed graph, same fault).
 */
CaseOutcome replayCase(const ReplayCase &c);

} // namespace nova::verify

#endif // NOVA_VERIFY_REPLAY_HH
