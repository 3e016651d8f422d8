/**
 * @file
 * The per-PE direct-mapped write-back vertex cache (Sec. III-B).
 *
 * The paper configures 64 KiB per PE with 32 B lines (the HBM2 atom) and
 * shows performance is insensitive to its size (Fig. 9a) because graph
 * vertex accesses have almost no locality — the cache mainly provides
 * fine-grained parallel access to memory (MSHR-style outstanding
 * misses). Timing-only: data lives in the caller's functional arrays.
 */

#ifndef NOVA_MEM_CACHE_HH
#define NOVA_MEM_CACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/dram.hh"
#include "sim/sim_object.hh"

namespace nova::mem
{

/** Configuration of a DirectMappedCache. */
struct CacheConfig
{
    /** Total capacity in bytes. */
    std::uint32_t sizeBytes = 64 * 1024;
    /** Line size; matches the vertex-memory atom. */
    std::uint32_t lineBytes = 32;
    /** Hit latency in ticks. */
    sim::Tick hitLatency = 1000;
    /** Maximum outstanding misses. */
    std::uint32_t numMshrs = 16;
    /**
     * Extra latency when the line ECC corrects a bit error on a read
     * (only paid when a "cache.ecc" fault fires).
     */
    sim::Tick eccCorrectLatency = 1000;
};

/**
 * A direct-mapped write-back, write-allocate cache in front of a
 * MemorySystem.
 *
 * All accesses are line-granular (callers access whole vertex blocks).
 * The eviction hook tells the vertex management unit when a dirty block
 * spills to DRAM (Listing 1, on_evict).
 */
class DirectMappedCache : public sim::SimObject
{
  public:
    /** Invoked with the line address of every dirty line written back. */
    using EvictHook = std::function<void(sim::Addr line_addr)>;

    DirectMappedCache(std::string name, sim::EventQueue &queue,
                      const CacheConfig &config, MemorySystem &backing);

    const CacheConfig &config() const { return cfg; }

    /**
     * Access the line containing `addr`.
     * @param write marks the line dirty on completion.
     * @param done  invoked when the data is available (hit latency or
     *              after the miss fill).
     * @return false if no MSHR is available (caller should retry via
     *         waitForSpace()).
     */
    bool access(sim::Addr addr, bool write, MemCallback done);

    /** One-shot callback when an MSHR frees up. */
    void waitForSpace(MemCallback retry);

    /** Set the dirty-eviction hook (used by the VMU). */
    void setEvictHook(EvictHook hook) { evictHook = std::move(hook); }

    /**
     * True when the line is currently present (valid tag match).
     * Used by models that need presence without timing side effects.
     */
    bool contains(sim::Addr addr) const;

    /** Flush all dirty lines to memory functionally (end of run). */
    void flushAllDirty();

    /** @{ @name Statistics */
    sim::stats::Scalar hits;
    sim::stats::Scalar misses;
    sim::stats::Scalar evictions;
    sim::stats::Scalar writebacks;
    sim::stats::Scalar mshrRejects;
    sim::stats::Scalar eccCorrected; ///< line ECC events corrected inline
    /** @} */

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
    };

    struct Mshr
    {
        std::vector<std::pair<bool, MemCallback>> targets;
        bool issued = false;
    };

    /** mshrLine value of a free MSHR (no line address is odd). */
    static constexpr sim::Addr noLine = ~sim::Addr(0);

    std::uint64_t lineAddrOf(sim::Addr addr) const
    {
        return addr / cfg.lineBytes * cfg.lineBytes;
    }

    std::size_t indexOf(sim::Addr line_addr) const
    {
        return (line_addr / cfg.lineBytes) % numLines;
    }

    std::uint64_t tagOf(sim::Addr line_addr) const
    {
        return (line_addr / cfg.lineBytes) / numLines;
    }

    /** The MSHR filling `line_addr`, or mshrs.size() if none. */
    std::size_t findMshr(sim::Addr line_addr) const;
    void issueFill(std::size_t mshr_slot);
    void fillDone(std::size_t mshr_slot);
    void postWriteback(sim::Addr victim_addr);

    CacheConfig cfg;
    MemorySystem &mem;
    std::size_t numLines;
    std::vector<Line> lines;
    std::vector<Mshr> mshrs;
    /** The line each MSHR fills, or noLine; apart from `mshrs` so the
     *  merge lookup on every miss reads a couple of cache lines. */
    std::vector<sim::Addr> mshrLine;
    std::vector<std::size_t> freeMshrs;
    std::vector<MemCallback> spaceWaiters;
    EvictHook evictHook;
    FaultPoint *eccPoint = nullptr; ///< "cache.ecc" (reads of valid lines)
};

} // namespace nova::mem

#endif // NOVA_MEM_CACHE_HH
