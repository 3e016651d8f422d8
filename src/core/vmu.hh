/**
 * @file
 * The Vertex Management Unit (Sec. III-D) — the paper's key
 * contribution. It mediates active vertices between the message
 * processing unit (producer) and the message generation unit
 * (consumer), creating the illusion that the 80-entry on-chip active
 * buffer has the capacity of the off-chip vertex memory.
 *
 * Mechanisms modelled (Listing 1):
 *  - fast path: activations go straight into the active buffer;
 *  - spill: when the buffer is full, the active vertex overwrites its
 *    slot in the vertex set (no extra capacity or bandwidth) and a
 *    per-superblock counter tracks it;
 *  - retrieval: a prefetcher scans tracked superblocks in bursts of 16
 *    blocks, inserting active vertices and dropping inactive ones
 *    (counted as wasteful reads, Fig. 10);
 *  - coalescing: updates to a spilled vertex fold into its pending
 *    retrieval, enlarging the coalescing window (Fig. 5).
 *
 * The off-chip-FIFO alternative of Table I is selectable via
 * SpillPolicy::OffChipFifo.
 */

#ifndef NOVA_CORE_VMU_HH
#define NOVA_CORE_VMU_HH

#include <deque>
#include <functional>

#include "core/config.hh"
#include "core/vertex_store.hh"
#include "mem/dram.hh"
#include "sim/profile.hh"
#include "sim/sim_object.hh"

namespace nova::core
{

/** The vertex management unit of one PE. */
class Vmu : public sim::SimObject
{
  public:
    /** One active-buffer entry: a vertex and its α snapshot. */
    struct Entry
    {
        VertexId local;
        std::uint64_t alpha;
    };

    Vmu(std::string name, sim::EventQueue &queue, const NovaConfig &cfg,
        VertexStore &store, mem::MemorySystem &vertex_mem,
        const workloads::VertexProgram &prog);

    /**
     * Deliver an activation from the MPU (or the initial injection).
     * @param alpha the propagation value at activation time; ignored
     *        when the vertex spills (retrieval re-snapshots).
     */
    void activate(VertexId local, std::uint64_t alpha);

    /** @{ @name Consumer (MGU) interface */
    bool hasEntry() const { return !buffer.empty(); }
    Entry pop();
    void setEntryNotify(std::function<void()> fn)
    {
        entryNotify = std::move(fn);
    }
    /** @} */

    /** Spilled vertices still awaiting retrieval plus buffered ones. */
    std::uint64_t
    pendingWork() const
    {
        return totalTracked + buffer.size() + fifo.size();
    }

    /** @{ @name Statistics */
    sim::stats::Scalar coalescedUpdates;
    sim::stats::Scalar directInserts;
    sim::stats::Scalar spills;
    sim::stats::Scalar prefetchBursts;
    sim::stats::Scalar usefulPrefetchBytes;
    sim::stats::Scalar wastefulPrefetchBytes;
    sim::stats::Scalar activeBlocksFetched;
    sim::stats::Scalar fifoWrites;
    sim::stats::Scalar counterReconciliations;
    /** @} */

  private:
    void directInsert(VertexId local, std::uint64_t alpha);
    void spillOverwrite(VertexId local);
    void spillFifo(VertexId local);
    void maybePrefetch();
    void issueBlockRead(std::uint32_t block);
    void onBlockFetched(std::uint32_t block);
    void endBurst();
    void maybeFifoFetch();
    void issueFifoRead();
    void postFifoRead(sim::Addr addr);
    void onFifoEntryFetched(VertexId local);
    void postFifoWrite(sim::Addr addr);

    std::uint32_t freeSlots() const;

    const NovaConfig &cfg;
    VertexStore &store;
    mem::MemorySystem &vmem;
    const workloads::VertexProgram &program;

    /** Per-superblock active-block counters (the tracker module). */
    std::vector<std::uint32_t> counters;
    std::uint64_t totalTracked = 0;

    std::deque<Entry> buffer;
    std::uint32_t reservedSlots = 0;
    std::function<void()> entryNotify;

    /** Scan state of the prefetcher. */
    bool scanActive = false;
    std::uint32_t scanSb = 0;
    std::uint32_t scanBlock = 0;
    bool scanResumed = false;
    std::uint32_t scanPending = 0;
    std::uint32_t cursorSb = 0;

    /** Off-chip FIFO mode state. */
    std::deque<VertexId> fifo;
    sim::Addr fifoHead = 0;
    sim::Addr fifoTail = 0;
    bool fifoFetchActive = false;
    std::uint32_t fifoFetchPending = 0;

    /** Base address of the auxiliary FIFO region in vertex memory. */
    static constexpr sim::Addr fifoRegionBase = sim::Addr(1) << 44;

    sim::profile::Site &profActivate; ///< host time in activate()
    sim::profile::Site &profFetch;    ///< host time in onBlockFetched()
};

} // namespace nova::core

#endif // NOVA_CORE_VMU_HH
