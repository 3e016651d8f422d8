/**
 * @file
 * Conservative parallel discrete-event scheduler (PDES) over sharded
 * event queues.
 *
 * The simulated system is partitioned into shards (one per GPN); each
 * shard owns a private EventQueue and every component of that GPN
 * schedules exclusively on it. Shards advance together through
 * safe-time windows: with lookahead L — the minimum latency of any
 * cross-shard interaction, derived from the inter-GPN crossbar (see
 * docs/PARALLEL.md) — every event in [globalNext, globalNext + L) can
 * execute without hearing from any other shard, so the window runs on
 * all shards concurrently with no rollback (classic conservative
 * synchronization with a barrier instead of null messages; the barrier
 * is cheaper here because the shard count is small and windows are
 * long relative to an event).
 *
 * Cross-shard work travels through lock-free MPSC mailboxes (Treiber
 * stacks). Mailboxes are drained only at window barriers, on the
 * coordinating thread, in the canonical order (when, priority,
 * srcShard, srcSeq) — so the destination queue's sequence numbers, and
 * therefore every fingerprint, are independent of the host thread
 * count. That is the determinism contract tests/test_parallel.cc
 * enforces: the sharded model produces bit-identical fingerprints and
 * statistics on 1, 2, 4 or 8 threads (threads = 1 simply runs the
 * shards sequentially on the caller).
 *
 * Deterministic-merge mode additionally k-way merges the per-shard
 * window traces by (when, priority, shard, seq) into one global
 * total-order fingerprint — a stronger replay oracle that also orders
 * events *across* shards canonically.
 */

#ifndef NOVA_SIM_PARALLEL_HH
#define NOVA_SIM_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace nova::sim
{

/**
 * Owner of N per-shard EventQueues plus the worker pool and mailbox
 * fabric that advance them in lockstep windows.
 */
class ParallelScheduler
{
  public:
    struct Config
    {
        /** Number of shards (one per GPN). */
        std::uint32_t numShards = 1;
        /** Host worker threads; 1 runs shards sequentially. */
        std::uint32_t numThreads = 1;
        /**
         * Safe-time window length: no cross-shard interaction posted at
         * time t may take effect before t + lookahead. Must be > 0.
         */
        Tick lookahead = 1;
        /** Maintain the canonical merged event-order fingerprint. */
        bool deterministicMerge = false;
        /** Ordering backend of every shard queue. */
        EventQueue::Impl impl = EventQueue::Impl::Calendar;
    };

    explicit ParallelScheduler(const Config &config);
    ~ParallelScheduler();
    ParallelScheduler(const ParallelScheduler &) = delete;
    ParallelScheduler &operator=(const ParallelScheduler &) = delete;

    std::uint32_t numShards() const
    {
        return static_cast<std::uint32_t>(shards.size());
    }

    /** The event queue of shard `s`; components schedule on it. */
    EventQueue &shard(std::uint32_t s) { return shards[s]->q; }
    const EventQueue &shard(std::uint32_t s) const { return shards[s]->q; }

    Tick lookahead() const { return cfg.lookahead; }
    bool deterministicMerge() const { return cfg.deterministicMerge; }

    /**
     * Post a closure from shard `src_shard` (during its window
     * execution, on its worker thread) to run on shard `dst_shard` at
     * absolute tick `when`. Lock-free; the destination sees it at the
     * next window barrier.
     * @pre when >= current window horizon (i.e. the posting event's
     * time plus at least the lookahead) — checked at the barrier.
     */
    void postCross(std::uint32_t src_shard, std::uint32_t dst_shard,
                   Tick when, int priority, EventFn fn);

    /** Apply runaway-guard ceilings to every shard queue. */
    void setGuard(Tick max_tick, std::uint64_t max_events);

    /**
     * Run windows until every shard queue and mailbox is empty, then
     * resynchronize all shard clocks to the global maximum (so later
     * injections and cross-shard messages can never land in a shard's
     * past). @return events executed by this call.
     */
    std::uint64_t runUntilQuiescent();

    /** @{ @name Aggregates (coordinator thread only, between windows) */
    Tick now() const;
    std::uint64_t executed() const;
    /**
     * Combined fingerprint: a fold, in shard order, of every shard's
     * (fingerprint, executed, now). Thread-count invariant.
     */
    std::uint64_t fingerprint() const;
    /** The canonical merged-order fingerprint (deterministicMerge). */
    std::uint64_t mergedFingerprint() const { return mergedFp; }
    /** @} */

  private:
    struct MailNode
    {
        Tick when = 0;
        int priority = 0;
        std::uint32_t srcShard = 0;
        std::uint64_t srcSeq = 0;
        EventFn fn;
        MailNode *next = nullptr;
    };

    /** MPSC Treiber stack; drained wholesale at barriers. */
    struct alignas(64) Mailbox
    {
        std::atomic<MailNode *> head{nullptr};
    };

    struct alignas(64) Shard
    {
        explicit Shard(EventQueue::Impl impl) : q(impl) {}
        EventQueue q;
        /** Monotone per-source post counter (canonical drain order). */
        std::uint64_t postSeq = 0;
        /** Window trace when deterministic merge is on. */
        std::vector<RecentEvent> trace;
    };

    void drainMailboxes();
    std::uint64_t runWindow(Tick until);
    void mergeWindow();
    void workerLoop(std::uint32_t lane);
    void runLaneShards(std::uint32_t lane, Tick until);
    void noteWorkerError();

    Config cfg;
    std::vector<std::unique_ptr<Shard>> shards;
    std::vector<Mailbox> mailboxes; ///< one per destination shard
    std::uint64_t mergedFp = 0xcbf29ce484222325ULL; // FNV-1a basis

    /** @{ @name Worker pool (present only when numThreads > 1) */
    std::vector<std::thread> workers;
    std::mutex poolMutex;
    std::condition_variable cvStart;
    std::condition_variable cvDone;
    std::uint64_t generation = 0;
    Tick windowUntil = 0;
    std::uint32_t remaining = 0;
    bool stopping = false;
    std::exception_ptr workerError;
    /** @} */
};

} // namespace nova::sim

#endif // NOVA_SIM_PARALLEL_HH
