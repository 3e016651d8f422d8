/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A single EventQueue orders all simulation work by (tick, priority,
 * insertion order). Components schedule closures; the queue executes them
 * in deterministic order, making whole-system runs reproducible.
 *
 * Two interchangeable backends implement the ordering (selected per
 * queue at construction, default via the NOVA_EQ_IMPL environment
 * variable):
 *
 *  - Calendar (default): an index-bucketed near-future calendar queue.
 *    Pending events within the next `calBuckets * bucketTicks` ticks
 *    live in per-bucket min-heaps of 24-byte key entries (tick,
 *    sequence, priority, pool index); later events wait in an overflow
 *    heap and migrate into the window as the scan cursor advances.
 *    Event closures are pool-allocated and recycled through a free
 *    list, so a schedule/execute pair does no container reallocation,
 *    heap siftings move compact keys instead of whole closures, and
 *    comparisons read contiguous heap memory without chasing pool
 *    pointers. Chosen over a pairing heap because the events/sec
 *    suite it landed with (BENCH_5.json) showed the win comes from
 *    eliminating the O(log n) closure moves of the binary heap, which
 *    a pointer-based pairing heap only halves, while bucket indexing
 *    makes push/pop O(1) for the near-future deltas that dominate
 *    (clock edges, DRAM and link latencies are all well inside the
 *    window).
 *  - LegacyHeap: the original std::priority_queue of whole items; kept
 *    as the bit-exact ordering reference for differential cross-checks
 *    and as the "pre-change queue" yardstick in perf benches.
 *
 * Both backends produce identical execution orders — and therefore
 * identical event-order fingerprints — for identical schedules.
 */

#ifndef NOVA_SIM_EVENT_QUEUE_HH
#define NOVA_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace nova::sim
{

class FaultInjector;

/** Default scheduling priority; lower values run first within a tick. */
constexpr int defaultPriority = 0;

/** One entry of the queue's recent-event ring (for crash bundles). */
struct RecentEvent
{
    Tick when = 0;
    int priority = 0;
    std::uint64_t seq = 0;
};

/**
 * A time-ordered queue of closures.
 *
 * Events scheduled for the same tick run in priority order, and events
 * with equal priority run in insertion order (FIFO), which keeps
 * simulations deterministic.
 */
class EventQueue
{
  public:
    /** Selectable ordering backend (see the file comment). */
    enum class Impl
    {
        Calendar,
        LegacyHeap,
    };

    /**
     * The backend new queues use when none is passed explicitly: the
     * innermost ScopedDefaultImpl override if one is active, else the
     * NOVA_EQ_IMPL environment variable ("calendar" or "legacy"), else
     * Calendar.
     */
    static Impl defaultImpl();

    /**
     * Temporarily force the default backend (e.g. the verify harness
     * running the same model under both queues). Single-threaded use
     * only; nests like a stack.
     */
    class ScopedDefaultImpl
    {
      public:
        explicit ScopedDefaultImpl(Impl impl) : prev(forced)
        {
            forced = impl;
        }
        ~ScopedDefaultImpl() { forced = prev; }
        ScopedDefaultImpl(const ScopedDefaultImpl &) = delete;
        ScopedDefaultImpl &operator=(const ScopedDefaultImpl &) = delete;

      private:
        std::optional<Impl> prev;
    };

    EventQueue() : EventQueue(defaultImpl()) {}
    explicit EventQueue(Impl backend) : impl_(backend) {}
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** The ordering backend this queue runs on. */
    Impl impl() const { return impl_; }

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /** Number of events waiting to execute. */
    std::size_t
    size() const
    {
        return impl_ == Impl::LegacyHeap ? heap.size()
                                         : nearCount + farHeap.size();
    }

    /** True when no events remain. */
    bool empty() const { return size() == 0; }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return numExecuted; }

    /**
     * Order-sensitive hash over every executed event's (tick, priority,
     * sequence number). Two runs of the same model with the same seeds
     * must end with identical fingerprints; a difference pinpoints the
     * first schedule divergence when bisecting non-determinism (the
     * record side of the verify replay workflow).
     */
    std::uint64_t fingerprint() const { return fp; }

    /**
     * Schedule a closure to run at an absolute tick.
     * @pre when >= now().
     */
    void
    schedule(Tick when, std::function<void()> fn,
             int priority = defaultPriority)
    {
        NOVA_ASSERT(when >= curTick, "scheduling in the past");
        if (impl_ == Impl::LegacyHeap) {
            heap.push(Item{when, priority, nextSeq++, std::move(fn)});
            return;
        }
        const CalEnt e{when, nextSeq++, allocNode(std::move(fn)),
                       priority};
        if ((when >> bucketShift) < scanBucket + calBuckets)
            pushNear(e);
        else
            pushFar(e);
    }

    /** Schedule a closure to run delta ticks from now. */
    void
    scheduleIn(Tick delta, std::function<void()> fn,
               int priority = defaultPriority)
    {
        schedule(tickAdd(curTick, delta), std::move(fn), priority);
    }

    /**
     * Execute the next event, advancing time to it.
     * @return false if the queue was empty.
     */
    bool runOne();

    /**
     * Run events until the queue drains, `until` is passed, or
     * `maxEvents` events have executed.
     * @return the number of events executed by this call.
     */
    std::uint64_t run(Tick until = maxTick,
                      std::uint64_t maxEvents = ~std::uint64_t(0));

    /**
     * @{ @name Runaway guards
     * Hard ceilings on simulated time and total executed events. A run
     * that crosses either ceiling panics with a watchdog-style diagnosis
     * instead of spinning forever. 0 disables a ceiling (the default).
     */
    void
    setGuard(Tick max_tick, std::uint64_t max_events)
    {
        guardMaxTick = max_tick;
        guardMaxEvents = max_events;
    }
    Tick guardTick() const { return guardMaxTick; }
    std::uint64_t guardEvents() const { return guardMaxEvents; }
    /** @} */

    /**
     * Install an out-of-band check invoked after every `every` executed
     * events. The callback runs outside the event stream: it is not an
     * event, consumes no sequence number and must not schedule work, so
     * the fingerprint is unaffected. Used by the Watchdog. `every` = 0
     * (or a null fn) uninstalls.
     */
    void
    setPeriodicCheck(std::uint64_t every, std::function<void()> fn)
    {
        checkEvery = fn ? every : 0;
        checkFn = std::move(fn);
    }

    /**
     * @{ @name Fault-injector attachment
     * Components reach the (optional) injector through their queue so no
     * constructor signature changes when fault injection is off. Null
     * when no injector is attached.
     */
    void setFaultInjector(FaultInjector *inj) { injector = inj; }
    FaultInjector *faultInjector() const { return injector; }
    /** @} */

    /**
     * Tick of the next pending event, without mutating queue state.
     * @return false when the queue is empty. Used by the parallel
     * scheduler to compute the global safe-time horizon.
     */
    bool
    peekNextTick(Tick &when) const
    {
        return peekKey(when);
    }

    /**
     * Append every executed event's (when, priority, seq) to `sink`
     * (in execution order) in addition to the fingerprint fold. Null
     * (the default) disables tracing. The parallel scheduler's
     * deterministic-merge mode uses this to build the canonical merged
     * event order across shards.
     */
    void setTraceSink(std::vector<RecentEvent> *sink) { traceSink = sink; }

    /**
     * The last executed events, oldest first (at most recentCapacity).
     * Recorded unconditionally; used by crash bundles and diagnoses.
     */
    std::vector<RecentEvent> recentEvents() const;

    /** Ring capacity of the recent-event log. */
    static constexpr std::size_t recentCapacity = 64;

    /**
     * Advance the clock of an empty queue without executing anything.
     * The parallel scheduler resynchronizes shard clocks to the global
     * maximum at quiescence so later cross-shard messages can never
     * land in a shard's past. @pre empty() and when >= now().
     */
    void
    fastForward(Tick when)
    {
        NOVA_ASSERT(empty(), "fast-forwarding a non-empty queue");
        NOVA_ASSERT(when >= curTick, "fast-forwarding into the past");
        curTick = when;
        scanBucket = when >> bucketShift;
    }

  private:
    /** @{ @name Calendar geometry (both powers of two). */
    static constexpr unsigned bucketShift = 10;
    static constexpr Tick bucketTicks = Tick(1) << bucketShift;
    static constexpr std::size_t calBuckets = 256;
    static constexpr std::size_t bucketMask = calBuckets - 1;
    static constexpr std::size_t occWords = calBuckets / 64;
    /** @} */

    /**
     * One calendar entry: the full (when, priority, seq) sort key plus
     * the pool slot of the closure. Keys live inline in the bucket
     * heaps so sift comparisons never touch the pool.
     */
    struct CalEnt
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t id;
        std::int32_t priority;
    };

    /** One entry of the legacy backend's heap. */
    struct Item
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        std::function<void()> fn;
    };

    struct Later
    {
        bool
        operator()(const Item &a, const Item &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    /** True when entry `a` must execute after entry `b`. */
    static bool
    entAfter(const CalEnt &a, const CalEnt &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.priority != b.priority)
            return a.priority > b.priority;
        return a.seq > b.seq;
    }

    std::uint32_t
    allocNode(std::function<void()> fn)
    {
        std::uint32_t id;
        if (freeList.empty()) {
            id = static_cast<std::uint32_t>(pool.size());
            pool.emplace_back();
        } else {
            id = freeList.back();
            freeList.pop_back();
        }
        pool[id] = std::move(fn);
        return id;
    }

    void pushNear(const CalEnt &e);
    void pushFar(const CalEnt &e);
    void migrateFar();
    std::uint64_t scanForward(std::uint64_t from) const;
    bool peekKey(Tick &when) const;
    [[noreturn]] void guardTripped(const char *which, Tick when,
                                   int priority, std::uint64_t seq);
    bool runOneLegacy();

    const Impl impl_;
    // Test hook: written once, single-threaded, before any queue or
    // worker thread exists; read-only from then on.
    // novalint:allow(shard-safety) set before threads start, then const
    static inline std::optional<Impl> forced;

    /** @{ @name Calendar backend state */
    std::vector<std::function<void()>> pool; ///< closures, by CalEnt::id
    std::vector<std::uint32_t> freeList;
    std::array<std::vector<CalEnt>, calBuckets> buckets;
    std::array<std::uint64_t, occWords> occ{};
    /** Global bucket number (when >> bucketShift) of the scan cursor;
     *  never exceeds the bucket of the last executed event, so every
     *  pending near event lies in [scanBucket, scanBucket+calBuckets). */
    std::uint64_t scanBucket = 0;
    std::vector<CalEnt> farHeap; ///< beyond-window events
    std::size_t nearCount = 0;
    /** @} */

    /** Legacy backend state. */
    std::priority_queue<Item, std::vector<Item>, Later> heap;

    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
    std::uint64_t fp = 0xcbf29ce484222325ULL; // FNV-1a offset basis

    Tick guardMaxTick = 0;
    std::uint64_t guardMaxEvents = 0;
    std::uint64_t checkEvery = 0;
    std::function<void()> checkFn;
    FaultInjector *injector = nullptr;
    std::vector<RecentEvent> *traceSink = nullptr;
    std::array<RecentEvent, recentCapacity> recent{};
};

/**
 * A reschedulable event bound to a fixed callback.
 *
 * Components use this for their "wake up and do work" events: scheduling
 * while already pending is a no-op, and deschedule() cancels a pending
 * occurrence. The owning object must outlive the queue's processing of
 * the event (all components live for the whole simulation).
 */
class SelfEvent
{
  public:
    SelfEvent(EventQueue &queue, std::function<void()> callback)
        : q(queue), fn(std::move(callback))
    {
    }

    SelfEvent(const SelfEvent &) = delete;
    SelfEvent &operator=(const SelfEvent &) = delete;

    /** True if an occurrence is pending. */
    bool scheduled() const { return pending; }

    /** Tick of the pending occurrence (valid only when scheduled()). */
    Tick when() const { return pendingWhen; }

    /** Schedule at an absolute tick; no-op when already pending. */
    void
    schedule(Tick when, int priority = defaultPriority)
    {
        if (pending)
            return;
        pending = true;
        pendingWhen = when;
        const std::uint64_t g = ++generation;
        q.schedule(when, [this, g] {
            if (g != generation)
                return;
            pending = false;
            fn();
        }, priority);
    }

    /** Schedule delta ticks from now; no-op when already pending. */
    void
    scheduleIn(Tick delta, int priority = defaultPriority)
    {
        schedule(tickAdd(q.now(), delta), priority);
    }

    /** Cancel any pending occurrence. */
    void
    deschedule()
    {
        ++generation;
        pending = false;
    }

  private:
    EventQueue &q;
    std::function<void()> fn;
    bool pending = false;
    Tick pendingWhen = 0;
    std::uint64_t generation = 0;
};

} // namespace nova::sim

#endif // NOVA_SIM_EVENT_QUEUE_HH
