#include "core/vertex_store.hh"

#include "sim/logging.hh"

namespace nova::core
{

VertexStore::VertexStore(const graph::Csr &g,
                         const graph::VertexMapping &map, std::uint32_t pe,
                         const NovaConfig &cfg,
                         const workloads::VertexProgram &prog)
    : numLocalVerts(map.localCount(pe)), vpb(cfg.vertsPerBlock()),
      sbDim(cfg.superblockDim), blockBytes(cfg.blockBytes),
      recordBytes(cfg.edgeRecordBytes)
{
    NOVA_ASSERT(vpb >= 1, "block must hold at least one vertex");
    numBlocksTotal = (numLocalVerts + vpb - 1) / vpb;
    numSbTotal = (numBlocksTotal + sbDim - 1) / sbDim;
    if (numSbTotal == 0)
        numSbTotal = 1;

    // Distinct address regions per PE within the GPN's shared edge
    // memory; only channel routing and row locality depend on them.
    const std::uint32_t pe_in_gpn = pe % cfg.pesPerGpn;
    edgeBase = static_cast<Addr>(pe_in_gpn) << 40;
    rowBase = edgeBase + (Addr(1) << 39);

    curProp.resize(numLocalVerts);
    accProp.resize(numLocalVerts);
    activeNow.assign(numLocalVerts, 0);
    inBufferCount.assign(numLocalVerts, 0);
    activeInBlock.assign(std::max<std::uint32_t>(1, numBlocksTotal), 0);

    localToGlobal.resize(numLocalVerts);
    rowPtr.resize(static_cast<std::size_t>(numLocalVerts) + 1, 0);

    EdgeId total_edges = 0;
    for (VertexId local = 0; local < numLocalVerts; ++local) {
        const VertexId v = map.globalOf(pe, local);
        localToGlobal[local] = v;
        curProp[local] = prog.initialProp(v);
        accProp[local] = prog.initialAcc(v);
        total_edges += g.degree(v);
    }
    edgeDst.reserve(total_edges);
    if (g.weighted())
        edgeWgt.reserve(total_edges);
    for (VertexId local = 0; local < numLocalVerts; ++local) {
        const VertexId v = localToGlobal[local];
        rowPtr[local] = edgeDst.size();
        for (EdgeId e = g.edgeBegin(v); e < g.edgeEnd(v); ++e) {
            edgeDst.push_back(g.edgeDest(e));
            if (g.weighted())
                edgeWgt.push_back(g.edgeWeight(e));
        }
    }
    rowPtr[numLocalVerts] = edgeDst.size();
}

void
VertexStore::setActiveNow(VertexId local, bool a)
{
    if (activeNow[local] == static_cast<std::uint8_t>(a))
        return;
    activeNow[local] = a;
    const std::uint32_t b = blockOf(local);
    if (a) {
        ++activeInBlock[b];
    } else {
        NOVA_ASSERT(activeInBlock[b] > 0, "active block count underflow");
        --activeInBlock[b];
    }
}

bool
VertexStore::corruptAndScrub(VertexId local, std::uint64_t mask)
{
    NOVA_ASSERT(local < numLocalVerts);
    const std::uint64_t saved = curProp[local];
    // Actually damage the stored value, as a flipped DRAM cell would.
    curProp[local] ^= mask;
    // The spill slot's checksum covers the full 64-bit value, so any
    // non-zero flip is detected; the scrubber rewrites the good copy.
    const bool detected = curProp[local] != saved;
    curProp[local] = saved;
    return detected;
}

std::uint32_t
VertexStore::exactActiveBlocks(std::uint32_t superblock) const
{
    const std::uint32_t first = superblock * sbDim;
    const std::uint32_t last =
        std::min(numBlocksTotal, (superblock + 1) * sbDim);
    std::uint32_t count = 0;
    for (std::uint32_t b = first; b < last; ++b)
        if (activeInBlock[b] > 0)
            ++count;
    return count;
}

} // namespace nova::core
