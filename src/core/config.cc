#include "core/config.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/logging.hh"

namespace nova::core
{

std::uint64_t
trackerCapacityBits(std::uint64_t vertex_mem_bytes,
                    std::uint32_t superblock_dim,
                    std::uint32_t block_bytes)
{
    // Eq. 2: num_superblocks = capacity / (superblock_dim * block_size).
    const std::uint64_t num_superblocks =
        vertex_mem_bytes /
        (std::uint64_t(superblock_dim) * block_bytes);
    // Eq. 1: (log2(superblock_dim) + 1) bits per counter.
    const std::uint64_t counter_bits =
        static_cast<std::uint64_t>(std::bit_width(superblock_dim - 1)) + 1;
    return counter_bits * num_superblocks;
}

double
NovaConfig::gpnBandwidthGBs() const
{
    const double vertex_bw =
        vertexMem.peakBytesPerSec() * pesPerGpn / 1e9;
    const double edge_bw =
        edgeMem.peakBytesPerSec() * edgeChannelsPerGpn / 1e9;
    return vertex_bw + edge_bw;
}

std::uint64_t
NovaConfig::trackerBitsPerPe() const
{
    return trackerCapacityBits(vertexMemBytesPerPe, superblockDim,
                               blockBytes);
}

NovaConfig
NovaConfig::scaled(double scale) const
{
    NovaConfig c = *this;
    auto shrink = [scale](std::uint64_t bytes, std::uint64_t floor_bytes) {
        const double scaled_bytes =
            static_cast<double>(bytes) / scale;
        return std::max<std::uint64_t>(
            floor_bytes, static_cast<std::uint64_t>(scaled_bytes));
    };
    // Floor of 32 lines: below that, direct-mapped conflict noise on
    // the (scaled) hub working set no longer matches the paper's
    // thousands-of-lines regime.
    c.cacheBytesPerPe = static_cast<std::uint32_t>(
        shrink(cacheBytesPerPe, 64 * blockBytes));
    c.vertexMemBytesPerPe = shrink(vertexMemBytesPerPe, 1 << 20);
    return c;
}

void
NovaConfig::validate() const
{
    if (numGpns < 1)
        sim::fatal("the system needs at least one GPN (numGpns = 0)");
    if (superblockDim < 1)
        sim::fatal("the superblock dimension must be at least 1");
    if (activeBufferEntries < 1)
        sim::fatal("the active buffer needs at least one entry");
}

} // namespace nova::core
