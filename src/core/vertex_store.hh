/**
 * @file
 * Per-PE functional state: the local slice of the vertex set, its
 * activity flags and the local CSR, plus the address arithmetic that
 * maps local vertices onto vertex-memory blocks and superblocks.
 *
 * The store is the functional half of the timing/functional split:
 * values here are always current; the timing models (cache, DRAM, NoC)
 * decide *when* the units may act on them.
 */

#ifndef NOVA_CORE_VERTEX_STORE_HH
#define NOVA_CORE_VERTEX_STORE_HH

#include <cstdint>
#include <vector>

#include "core/config.hh"
#include "graph/csr.hh"
#include "graph/partition.hh"
#include "sim/types.hh"
#include "workloads/vertex_program.hh"

namespace nova::core
{

using graph::EdgeId;
using graph::VertexId;
using sim::Addr;

/** Functional per-PE vertex and edge state. */
class VertexStore
{
  public:
    /**
     * Build the PE-local slice: vertex properties initialised by the
     * program and a local CSR whose destinations stay global ids.
     */
    VertexStore(const graph::Csr &g, const graph::VertexMapping &map,
                std::uint32_t pe, const NovaConfig &cfg,
                const workloads::VertexProgram &prog);

    std::uint32_t numLocal() const { return numLocalVerts; }

    /** @{ @name Vertex state */
    std::uint64_t &cur(VertexId local) { return curProp[local]; }
    std::uint64_t &acc(VertexId local) { return accProp[local]; }

    /** Spilled-active flag (the block copy's active_now bit). */
    bool isActiveNow(VertexId local) const { return activeNow[local]; }
    void setActiveNow(VertexId local, bool a);

    /** Entries for this vertex currently in the active buffer. */
    std::uint8_t &bufferCount(VertexId local)
    {
        return inBufferCount[local];
    }
    /** @} */

    /** @{ @name Block/superblock geometry */
    std::uint32_t vertsPerBlock() const { return vpb; }

    std::uint32_t blockOf(VertexId local) const { return local / vpb; }

    std::uint32_t superblockOf(std::uint32_t block) const
    {
        return block / sbDim;
    }

    std::uint32_t numBlocks() const { return numBlocksTotal; }
    std::uint32_t numSuperblocks() const { return numSbTotal; }

    /** Vertex-memory byte address of a local vertex's block. */
    Addr
    blockAddr(std::uint32_t block) const
    {
        return static_cast<Addr>(block) * blockBytes;
    }

    /** First local vertex of a block. */
    VertexId blockFirst(std::uint32_t block) const { return block * vpb; }

    /** One-past-last local vertex of a block (clamped). */
    VertexId
    blockEnd(std::uint32_t block) const
    {
        return std::min<VertexId>(numLocalVerts, (block + 1) * vpb);
    }

    /** Spilled-active vertices within a block (exact ground truth). */
    std::uint16_t activeCountInBlock(std::uint32_t block) const
    {
        return activeInBlock[block];
    }

    /** Exact number of active blocks in a superblock (reconciliation). */
    std::uint32_t exactActiveBlocks(std::uint32_t superblock) const;
    /** @} */

    /** @{ @name Local CSR (edge memory contents) */
    EdgeId edgeBegin(VertexId local) const { return rowPtr[local]; }
    EdgeId edgeEnd(VertexId local) const { return rowPtr[local + 1]; }
    EdgeId degree(VertexId local) const
    {
        return rowPtr[local + 1] - rowPtr[local];
    }
    VertexId edgeDest(EdgeId e) const { return edgeDst[e]; }
    graph::Weight edgeWeight(EdgeId e) const
    {
        return edgeWgt.empty() ? 1 : edgeWgt[e];
    }
    EdgeId numLocalEdges() const { return edgeDst.size(); }

    /** Edge-memory byte address of this PE's edge record `e`. */
    Addr
    edgeAddr(EdgeId e) const
    {
        return edgeBase + e * recordBytes;
    }

    /** Edge-memory byte address of the row pointer of `local`. */
    Addr
    rowPtrAddr(VertexId local) const
    {
        return rowBase + static_cast<Addr>(local) * 8;
    }
    /** @} */

    /** Global id of a local vertex. */
    VertexId globalOf(VertexId local) const { return localToGlobal[local]; }

    /**
     * Fault-injection helper: flip `mask` bits in the spilled copy of
     * `local`'s current value, then detect the damage via the slot's
     * checksum and scrub (restore) it — the recovery path the VMU's
     * retrieval exercises under "spill.corrupt" faults.
     * @return true when the corruption was detected (always, for a
     *         non-zero mask: the checksum covers the whole slot).
     */
    bool corruptAndScrub(VertexId local, std::uint64_t mask);

  private:
    std::uint32_t numLocalVerts;
    std::uint32_t vpb;
    std::uint32_t sbDim;
    std::uint32_t blockBytes;
    std::uint32_t recordBytes;
    std::uint32_t numBlocksTotal;
    std::uint32_t numSbTotal;
    Addr edgeBase;
    Addr rowBase;

    std::vector<std::uint64_t> curProp;
    std::vector<std::uint64_t> accProp;
    std::vector<std::uint8_t> activeNow;
    std::vector<std::uint8_t> inBufferCount;
    std::vector<std::uint16_t> activeInBlock;

    std::vector<EdgeId> rowPtr;
    std::vector<VertexId> edgeDst;
    std::vector<graph::Weight> edgeWgt;
    std::vector<VertexId> localToGlobal;
};

} // namespace nova::core

#endif // NOVA_CORE_VERTEX_STORE_HH
