/**
 * @file
 * Configuration of the NOVA accelerator model (Table II defaults).
 *
 * The default values reproduce the paper's system: GPNs of 8 PEs at
 * 2 GHz, one HBM2 channel of vertex memory per PE, four shared DDR4
 * channels of edge memory per GPN, 16 reduction + 48 propagation FUs
 * per GPN, a 64 KiB direct-mapped cache per PE and a vertex management
 * unit with superblock_dim = 128 and an 80-entry active buffer.
 *
 * scaled() divides all on-chip capacities by the experiment scale so
 * that size-relative behaviour matches the paper when running the
 * scaled Table III graphs (DESIGN.md §3).
 */

#ifndef NOVA_CORE_CONFIG_HH
#define NOVA_CORE_CONFIG_HH

#include <cstdint>
#include <string>

#include "mem/dram.hh"
#include "noc/network.hh"
#include "sim/types.hh"

namespace nova::core
{

/** How spilled active vertices are stored off-chip (Table I). */
enum class SpillPolicy
{
    /** Overwrite in the vertex set; retrieval searches via tracker. */
    OverwriteVertexSet,
    /** Append to an off-chip FIFO; no coalescing, duplicate entries. */
    OffChipFifo,
};

/** How superblock counters are maintained (Listing 1 vs exact). */
enum class TrackerPolicy
{
    /**
     * Exact: counters equal the number of blocks holding spilled
     * active vertices (the MPU sees whole blocks, so transitions are
     * known).
     */
    ExactBlockCount,
    /**
     * Listing 1 event counting: every activation increments; counters
     * may over-estimate, causing extra (wasted) scans that reconcile
     * at superblock-scan end.
     */
    EventCount,
};

/** Full configuration of a NOVA system. */
struct NovaConfig
{
    /** @{ @name Topology (Table II) */
    std::uint32_t numGpns = 1;
    std::uint32_t pesPerGpn = 8;
    double clockGHz = 2.0;
    /** @} */

    /** @{ @name Per-PE on-chip resources */
    std::uint32_t cacheBytesPerPe = 64 * 1024;
    std::uint32_t cacheMshrs = 64;
    std::uint32_t vertexBytes = 16;
    std::uint32_t blockBytes = 32;
    std::uint32_t superblockDim = 128;
    std::uint32_t activeBufferEntries = 80;
    /** Blocks fetched per prefetch burst (Listing 1: 16). */
    std::uint32_t prefetchBurstBlocks = 16;
    /** Free active-buffer slots required to trigger a prefetch. */
    std::uint32_t prefetchThreshold = 16;
    /** @} */

    /** @{ @name Functional units (Table II: 16 + 48 per 8-PE GPN) */
    std::uint32_t reduceFusPerPe = 2;
    std::uint32_t propagateFusPerPe = 6;
    /** @} */

    /** @{ @name Off-chip memory (Sec. IV-A) */
    mem::DramTiming vertexMem = mem::DramTiming::hbm2Channel();
    mem::DramTiming edgeMem = mem::DramTiming::ddr4Channel();
    std::uint32_t edgeChannelsPerGpn = 4;
    /**
     * Nominal per-PE vertex memory capacity (tracker sizing, Eq. 2).
     * One 4 GiB HBM2 stack per GPN shared by 8 PEs (Table II).
     */
    std::uint64_t vertexMemBytesPerPe = (std::uint64_t(4) << 30) / 8;
    /** @} */

    /** @{ @name Interconnect (Sec. IV-C) */
    noc::FabricKind fabric = noc::FabricKind::Hierarchical;
    noc::NetworkConfig net;
    /** @} */

    /** @{ @name Microarchitectural policies */
    SpillPolicy spill = SpillPolicy::OverwriteVertexSet;
    TrackerPolicy tracker = TrackerPolicy::ExactBlockCount;
    /** Outstanding row-pointer fetches in the MGU front end. */
    std::uint32_t mguEntryDepth = 8;
    /** Outstanding edge-burst fetches in the MGU streamer. */
    std::uint32_t mguBurstDepth = 24;
    /** Bytes of one edge record in edge memory. */
    std::uint32_t edgeRecordBytes = 8;
    /** Bytes fetched per MGU edge burst. */
    std::uint32_t mguBurstBytes = 128;
    /** @} */

    /** @{ @name Resilience (fault injection, watchdog, guards)
     *
     * faultSchedule uses the grammar documented in sim/fault.hh, e.g.
     * "dram.bitflip:n=3+noc.drop:every=100". Empty = injector off; the
     * run is then bit-identical to a build without the subsystem.
     */
    std::string faultSchedule;
    std::uint64_t faultSeed = 0;
    /** Event-queue guard ceilings; 0 = unlimited. */
    sim::Tick maxTicks = 0;
    std::uint64_t maxEvents = 0;
    /** Watchdog cadence (executed events between checks); 0 = off. */
    std::uint64_t watchdogIntervalEvents = 0;
    /** Checks with no progress before the watchdog declares livelock. */
    std::uint64_t watchdogStrikes = 8;
    /** @} */

    /** @{ @name Parallel scheduling (conservative PDES, docs/PARALLEL.md)
     *
     * threads = 0 (default) keeps the serial single-queue scheduler,
     * bit-compatible with earlier releases. threads >= 1 shards the
     * event queue per GPN across that many host worker threads with
     * window-barrier synchronization (threads = 1 runs the sharded
     * model sequentially — same fingerprints as any other thread
     * count, which is the determinism contract test_parallel checks).
     */
    std::uint32_t threads = 0;
    /**
     * Also produce the canonical merged (tick, priority, shard, seq)
     * order fingerprint across shards ("sim.mergedFingerprint").
     * Slightly slower (every executed event is traced); thread-count
     * invariant like the per-shard fingerprints.
     */
    bool deterministicMerge = false;
    /** @} */

    std::uint32_t totalPes() const { return numGpns * pesPerGpn; }

    sim::Tick clockPeriod() const { return sim::periodFromGHz(clockGHz); }

    std::uint32_t
    vertsPerBlock() const
    {
        return blockBytes / vertexBytes;
    }

    /**
     * Total off-chip bandwidth of one GPN in GB/s (used for the
     * iso-bandwidth comparisons of Figs. 1/4).
     */
    double gpnBandwidthGBs() const;

    /**
     * On-chip bits required by the tracker module (Eq. 1 and Eq. 2)
     * for the configured per-PE vertex memory capacity.
     */
    std::uint64_t trackerBitsPerPe() const;

    /** Tracker capacity of a whole GPN in bits (the paper's 1 MiB). */
    std::uint64_t
    trackerBitsPerGpn() const
    {
        return trackerBitsPerPe() * pesPerGpn;
    }

    /**
     * Scale all on-chip capacities by 1/scale for scaled-graph
     * experiments; bandwidths and latencies are untouched.
     */
    NovaConfig scaled(double scale) const;

    /**
     * Reject a configuration the model cannot run (no GPN, an empty
     * superblock or active buffer) with fatal(), before any component
     * divides by it.
     */
    void validate() const;
};

/** Tracker capacity in bits for arbitrary parameters (Eq. 1 + Eq. 2). */
std::uint64_t trackerCapacityBits(std::uint64_t vertex_mem_bytes,
                                  std::uint32_t superblock_dim,
                                  std::uint32_t block_bytes);

} // namespace nova::core

#endif // NOVA_CORE_CONFIG_HH
