/**
 * @file
 * Timing models of off-chip DRAM channels.
 *
 * NOVA stores vertices in HBM2 (32 B atoms, high random-access
 * bandwidth) and edges in DDR4 (64 B atoms, high capacity and high
 * sequential bandwidth) — Sec. IV-A. The model is timing-only: data
 * lives in functional arrays owned by the callers; the channel tracks
 * per-bank row-buffer state, bank readiness and data-bus occupancy.
 */

#ifndef NOVA_MEM_DRAM_HH
#define NOVA_MEM_DRAM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/fault.hh"
#include "sim/profile.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace nova::mem
{

using sim::Addr;
using sim::FaultPoint;
using sim::Tick;

/**
 * Completion callback for a memory access (also the retry callback of
 * waitForSpace). The event type itself, so a completion moves into the
 * event queue without re-wrapping.
 */
using MemCallback = sim::EventFn;

/** Timing parameters of one DRAM channel. */
struct DramTiming
{
    /** Access granularity (atom/burst size) in bytes. */
    std::uint32_t accessBytes = 32;
    /** Data-bus occupancy per atom; peak BW = accessBytes / tBurst. */
    Tick tBurst = 1000;
    /** Number of banks (bank-level parallelism). */
    std::uint32_t numBanks = 16;
    /** Issue-to-data latency when the row buffer hits. */
    Tick tRowHit = 15000;
    /** Issue-to-data latency on a row miss (precharge + activate + CAS). */
    Tick tRowMiss = 45000;
    /** Row-buffer size in bytes. */
    std::uint32_t rowBytes = 1024;
    /** Controller pipeline latency added to every access. */
    Tick frontendLatency = 10000;
    /** Scheduler window: max queued accesses before backpressure. */
    std::size_t queueCapacity = 32;
    /** Minimum spacing between consecutive command issues. */
    Tick issueGap = 250;
    /**
     * Extra latency to correct a single-bit error in the SECDED logic
     * of the controller's read path (only paid when a fault fires).
     */
    Tick eccCorrectLatency = 2000;

    /** Peak bandwidth in bytes per second. */
    double peakBytesPerSec() const;

    /** One HBM2 pseudo-channel: 32 GB/s, 32 B atoms (Table II). */
    static DramTiming hbm2Channel();

    /** One DDR4-2400 channel: 19.2 GB/s, 64 B atoms (Table II). */
    static DramTiming ddr4Channel();

    /** One HBM2E channel: 46 GB/s, 32 B atoms (Sec. IV-A: "any
     *  memory technology that provides the required balance"). */
    static DramTiming hbm2eChannel();

    /** One DDR5-4800 channel: 38.4 GB/s, 64 B atoms. */
    static DramTiming ddr5Channel();

    /** One LPDDR5-6400 x32 channel: 25.6 GB/s, 32 B atoms. */
    static DramTiming lpddr5Channel();
};

/**
 * One DRAM channel with FR-FCFS-like scheduling.
 *
 * Requests are accepted atom-by-atom through tryAccess(); when the
 * scheduler window is full the call fails and the caller may register a
 * retry callback that fires when space frees up.
 */
class DramChannel : public sim::SimObject
{
  public:
    DramChannel(std::string name, sim::EventQueue &queue,
                const DramTiming &timing);

    const DramTiming &timing() const { return cfg; }

    /**
     * Enqueue a single-atom access.
     * @param addr   byte address (any alignment; atom is derived).
     * @param write  true for a write access.
     * @param done   invoked when the data transfer completes (may be
     *               empty for posted writes).
     * @return false when the scheduler window is full.
     */
    bool tryAccess(Addr addr, bool write, MemCallback done);

    /** Register a one-shot callback invoked when queue space frees. */
    void waitForSpace(MemCallback retry);

    /** Current queue occupancy. */
    std::size_t queued() const { return queue.size(); }

    /** @{ @name Statistics */
    sim::stats::Scalar bytesRead;
    sim::stats::Scalar bytesWritten;
    sim::stats::Scalar rowHits;
    sim::stats::Scalar rowMisses;
    sim::stats::Scalar busBusyTicks;
    sim::stats::Scalar totalQueueLatency;
    sim::stats::Scalar numAccesses;
    sim::stats::Scalar eccCorrected;     ///< single-bit flips fixed inline
    sim::stats::Scalar eccRereads;       ///< multi-bit flips detected, re-read
    sim::stats::Scalar txnRetries;       ///< transaction errors reissued
    /** @} */

    /** Achieved bandwidth over the elapsed simulated time. */
    double achievedBytesPerSec() const;

  private:
    /** Marks a request with no completion callback (a posted write). */
    static constexpr std::uint32_t noCallback = ~std::uint32_t(0);

    /**
     * A queued access. Plain data, so the FR-FCFS pick's erase shifts a
     * few words per request; the completion callback waits in `parked`
     * at index `parkedAt`.
     */
    struct Request
    {
        Addr addr;
        Tick enqueued;
        std::uint32_t parkedAt;
        bool write;
    };

    /**
     * bankOf/rowOf of a queued request, precomputed at enqueue and kept
     * in a parallel array so the FR-FCFS scan reads four entries per
     * cache line and does no divisions.
     */
    struct ScanKey
    {
        std::uint64_t row;
        std::uint32_t bank;
    };

    void trySchedule();
    void issueOne();

    std::uint32_t bankOf(Addr addr) const;
    std::uint64_t rowOf(Addr addr) const;

    DramTiming cfg;
    std::vector<Request> queue;
    std::vector<ScanKey> keys; ///< parallel to `queue`
    std::vector<MemCallback> parked; ///< completions, by Request::parkedAt
    std::vector<std::uint32_t> freeParked;
    std::vector<Tick> bankReadyAt;
    std::vector<std::int64_t> openRow;
    Tick busFreeAt = 0;
    Tick nextIssueAt = 0;
    sim::SelfEvent issueEvent;
    std::vector<MemCallback> spaceWaiters;
    FaultPoint *bitflipPoint = nullptr; ///< "dram.bitflip" (reads)
    FaultPoint *txnPoint = nullptr;     ///< "dram.txn" (any access)
    sim::profile::Site &profIssue;      ///< host time in issueOne()
};

/**
 * A set of identical DRAM channels with address interleaving.
 *
 * Multi-atom requests are split; the completion callback fires when the
 * last atom finishes.
 */
class MemorySystem : public sim::SimObject
{
  public:
    /**
     * @param interleave_bytes granularity of channel interleaving; 0
     *        selects the atom size.
     */
    MemorySystem(std::string name, sim::EventQueue &queue,
                 const DramTiming &timing, std::uint32_t num_channels,
                 std::uint32_t interleave_bytes = 0);

    std::uint32_t numChannels() const
    {
        return static_cast<std::uint32_t>(channels.size());
    }

    DramChannel &channel(std::uint32_t i) { return *channels[i]; }

    const DramTiming &timing() const { return cfg; }

    /** Aggregate peak bandwidth in bytes per second. */
    double peakBytesPerSec() const;

    /** Aggregate achieved bandwidth in bytes per second. */
    double achievedBytesPerSec() const;

    /**
     * Issue an access of arbitrary size; it is split into atoms routed
     * to their channels. Returns false (and enqueues nothing) when any
     * target channel's window is full.
     */
    bool tryAccess(Addr addr, std::uint32_t bytes, bool write,
                   MemCallback done);

    /** Register a one-shot retry callback on the most loaded channel. */
    void waitForSpace(MemCallback retry);

    /** Total bytes transferred (read + written). */
    double totalBytes() const;

  private:
    /** A multi-atom access waiting for its atoms to complete. */
    struct Split
    {
        MemCallback done;
        std::uint32_t remaining = 0;
    };

    DramChannel &channelFor(Addr addr);
    std::size_t channelIndex(Addr addr) const
    {
        return (addr / interleaveBytes) % channels.size();
    }
    void atomDone(std::uint32_t split);

    DramTiming cfg;
    std::uint32_t interleaveBytes;
    std::vector<DramChannel *> channels;
    std::vector<std::unique_ptr<DramChannel>> owned;
    std::vector<Split> splits; ///< in-flight multi-atom accesses
    std::vector<std::uint32_t> freeSplits;
    /** Admission scratch: atoms of the current request per channel. */
    std::vector<std::uint32_t> atomsPerChannel;
};

} // namespace nova::mem

#endif // NOVA_MEM_DRAM_HH
