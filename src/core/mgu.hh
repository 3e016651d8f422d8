/**
 * @file
 * The Message Generation Unit (Sec. III-C): pulls <α, start, end>
 * entries from the active buffer, streams the vertex's edges from the
 * GPN's shared DDR4 edge memory, applies the propagate function and
 * injects messages into the interconnect (with backpressure).
 *
 * The unit is a three-stage decoupled pipeline:
 *  1. entry front end — pops VMU entries and fetches row pointers
 *     (up to mguEntryDepth outstanding);
 *  2. edge streamer — issues 64 B edge bursts (up to mguBurstDepth
 *     outstanding) in entry order;
 *  3. propagator — applies the propagate FUs (6/PE) to returned bursts
 *     and sends messages.
 */

#ifndef NOVA_CORE_MGU_HH
#define NOVA_CORE_MGU_HH

#include <deque>
#include <vector>

#include "core/config.hh"
#include "core/run_state.hh"
#include "core/vertex_store.hh"
#include "core/vmu.hh"
#include "mem/dram.hh"
#include "noc/network.hh"
#include "sim/profile.hh"
#include "sim/sim_object.hh"

namespace nova::core
{

/** The message generation unit of one PE. */
class Mgu : public sim::ClockedObject
{
  public:
    Mgu(std::string name, sim::EventQueue &queue, const NovaConfig &cfg,
        std::uint32_t pe, VertexStore &store, mem::MemorySystem &edge_mem,
        noc::Network &net, Vmu &vmu, workloads::VertexProgram &prog,
        const graph::VertexMapping &map, RunCounters &counters);

    void startup() override;

    /** Entries and bursts in the pipeline (0 once drained). */
    std::uint64_t
    pendingWork() const
    {
        return entries.size() + propQueue.size() + burstsInFlight;
    }

    /** @{ @name Statistics */
    sim::stats::Scalar verticesPropagated;
    sim::stats::Scalar edgesRead;
    sim::stats::Scalar messagesSent;
    sim::stats::Scalar rowPtrReads;
    sim::stats::Scalar sendStalls;
    /** @} */

  private:
    /** One front-end entry; lives in `table` until it finishes. */
    struct EntryState
    {
        VertexId local = 0;
        std::uint64_t alpha = 0;
        bool rangeKnown = false;
        bool issuedAll = false;
        EdgeId next = 0;
        EdgeId end = 0;
        std::uint32_t outstandingBursts = 0;
        std::uint32_t unprocessedBursts = 0;
    };

    struct BurstItem
    {
        std::uint32_t entry; ///< slot in `table`
        std::uint32_t count;
        EdgeId start;
        std::uint32_t processed = 0;
    };

    void pull();
    void issueRowPtr(std::uint32_t slot);
    void onRowPtr(std::uint32_t slot);
    void issueBursts();
    void issueBurstRead(std::uint32_t slot, EdgeId start,
                        std::uint32_t count);
    void onBurst(std::uint32_t slot, EdgeId start, std::uint32_t count);
    void propWork();
    void maybeFinishEntry(std::uint32_t slot);

    const NovaConfig &cfg;
    std::uint32_t peIndex;
    VertexStore &store;
    mem::MemorySystem &emem;
    noc::Network &net;
    Vmu &vmu;
    workloads::VertexProgram &program;
    const graph::VertexMapping &mapping;
    RunCounters &counters;

    /** Entry storage, mguEntryDepth slots; closures carry the slot. */
    std::vector<EntryState> table;
    std::vector<std::uint32_t> freeSlots;
    /** Slots of the live entries, oldest first. */
    std::vector<std::uint32_t> entries;
    std::deque<BurstItem> propQueue;
    std::uint32_t burstsInFlight = 0;
    sim::SelfEvent propEvent;
    sim::profile::Site &profProp;  ///< host time in propWork()
    sim::profile::Site &profBurst; ///< host time in onBurst()/onRowPtr()
};

} // namespace nova::core

#endif // NOVA_CORE_MGU_HH
