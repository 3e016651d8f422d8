/**
 * @file
 * The vertex-centric program abstraction (Sec. II-A, Algorithm 1).
 *
 * A workload is described by a reduce function (combine an incoming
 * update with the vertex state) and a propagate function (derive the
 * update sent along an edge from the vertex property and the edge
 * weight). Properties and updates travel as raw 64-bit payloads, as a
 * hardware implementation would; each program defines the packing.
 *
 * Programs run in one of two execution models (Sec. III-A):
 *  - Async: reduce applies directly to the current property; an
 *    activation immediately queues the vertex for propagation.
 *  - Bsp: reduce applies to the accumulator (next_prop); a global
 *    barrier applies bspApply() to every touched vertex and decides the
 *    next iteration's active set.
 */

#ifndef NOVA_WORKLOADS_VERTEX_PROGRAM_HH
#define NOVA_WORKLOADS_VERTEX_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hh"

namespace nova::workloads
{

/** Execution model of a program (Sec. III-A). */
enum class ExecMode
{
    Async,
    Bsp,
};

/** Result of applying the BSP barrier to one vertex. */
struct BarrierOutcome
{
    /** New current property. */
    std::uint64_t newCur = 0;
    /** New accumulator (usually the reduce identity). */
    std::uint64_t newAcc = 0;
    /** Whether the vertex propagates in the next iteration. */
    bool active = false;
};

/**
 * A graph workload expressed as vertex-centric reduce/propagate
 * operators. Bind a graph before running; programs may keep auxiliary
 * result arrays (e.g., PageRank's rank vector) updated at barriers.
 */
class VertexProgram
{
  public:
    virtual ~VertexProgram() = default;

    /** Short workload name ("bfs", "pr", ...). */
    virtual std::string name() const = 0;

    /** Async or BSP execution. */
    virtual ExecMode mode() const = 0;

    /** Attach the input graph; called once before a run. */
    virtual void
    bind(const graph::Csr &g)
    {
        boundGraph = &g;
    }

    /** The bound input graph. */
    const graph::Csr &
    graph() const
    {
        return *boundGraph;
    }

    /** @{ @name State initialisation */

    /** Initial current property of a vertex. */
    virtual std::uint64_t initialProp(graph::VertexId v) const = 0;

    /** Initial accumulator (the reduce identity for BSP programs). */
    virtual std::uint64_t initialAcc(graph::VertexId) const { return 0; }

    /** Vertices active before any message is processed. */
    virtual std::vector<graph::VertexId> initialActive() const = 0;

    /**
     * BSP only: iteration at which the vertex self-activates without
     * receiving a message (e.g., BC's backward level schedule), or -1.
     */
    virtual std::int64_t
    scheduledActivation(graph::VertexId) const
    {
        return -1;
    }

    /** @} */

    /** @{ @name Operators */

    /**
     * Combine an update into the vertex state.
     * @param state current property (async) or accumulator (BSP).
     * @param update the message payload.
     * @param cur the current property (equals state when async).
     */
    virtual std::uint64_t reduce(std::uint64_t state, std::uint64_t update,
                                 std::uint64_t cur) const = 0;

    /** Whether the reduce result activates the vertex (async mode). */
    virtual bool
    activates(std::uint64_t old_state, std::uint64_t new_state) const
    {
        return old_state != new_state;
    }

    /**
     * The α snapshot stored in the active buffer when the vertex is
     * pulled for propagation (Algorithm 1's v_info entry).
     */
    virtual std::uint64_t
    propagateValue(std::uint64_t cur, graph::VertexId) const
    {
        return cur;
    }

    /** Derive the update sent along one edge from α and the weight. */
    virtual std::uint64_t propagate(std::uint64_t value,
                                    graph::Weight w) const = 0;

    /** @} */

    /** @{ @name BSP hooks */

    /**
     * Apply the barrier to a touched vertex (swap next into cur and
     * decide whether it stays active). Non-const so programs can record
     * results into their own arrays.
     */
    virtual BarrierOutcome
    bspApply(std::uint64_t cur, std::uint64_t acc, graph::VertexId)
    {
        return {acc, initialAcc(0), cur != acc};
    }

    /** Upper bound on BSP iterations (safety net / PR budget). */
    virtual std::uint64_t maxIterations() const { return 1u << 20; }

    /** @} */

  private:
    const graph::Csr *boundGraph = nullptr;
};

} // namespace nova::workloads

#endif // NOVA_WORKLOADS_VERTEX_PROGRAM_HH
