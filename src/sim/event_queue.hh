/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A single EventQueue orders all simulation work by (tick, priority,
 * insertion order). Components schedule closures; the queue executes them
 * in deterministic order, making whole-system runs reproducible.
 *
 * Event bodies are EventFn closures (sim/event_fn.hh) built in place by
 * the templated schedule(): no event allocates, and none is moved
 * between scheduling and execution. Two interchangeable backends order
 * them (selected per queue at construction, default via the NOVA_EQ_IMPL
 * environment variable):
 *
 *  - Calendar (default): an index-bucketed near-future calendar queue.
 *    Every pending event owns one slot of a chunked slab: its closure,
 *    its (tick, priority, sequence) key and a link. Slots never move,
 *    so runOne() calls the body in its slot and frees the slot
 *    afterwards, and the body may schedule freely meanwhile. Events
 *    within the next `calBuckets * bucketTicks` ticks are threaded
 *    through their slots into one ascending list per bucket with a head
 *    and a tail; later events wait in an overflow min-heap of 24-byte
 *    keys and migrate into the window as the scan cursor advances. A new
 *    event almost always sorts last in its bucket (its sequence number
 *    is the largest yet), so scheduling appends at the tail, an earlier
 *    one is linked in after a walk from the head, and popping advances
 *    the head. Bucket indexing keeps push/pop O(1) for the near-future
 *    deltas that dominate (clock edges, DRAM and link latencies all fall
 *    well inside the window). The lists need no storage of their own:
 *    per-bucket arrays kept growing long after warm-up (each bucket
 *    meets its own occupancy record at its own time), whereas the slab
 *    grows only with the number of pending events.
 *  - LegacyHeap: a std::priority_queue of whole items. It is the
 *    ordering reference the tests and the verify harness's cross-queue
 *    checks compare the calendar against (tests/test_event_queue.cc,
 *    the Golden legacy-heap matrix, `nova_cli verify --cross-queue`).
 *
 * Both backends produce identical execution orders — and therefore
 * identical event-order fingerprints — for identical schedules.
 */

#ifndef NOVA_SIM_EVENT_QUEUE_HH
#define NOVA_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <type_traits>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace nova::sim
{

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
     * Schedule `fn()` to run at an absolute tick. The closure is built
     * directly in its queue slot; it must fit EventFn::inlineBytes.
     * @pre when >= now().
     */
    template <class F>
    void
    schedule(Tick when, F &&fn, int priority = defaultPriority)
    {
        NOVA_ASSERT(when >= curTick, "scheduling in the past");
        if (impl_ == Impl::LegacyHeap) {
            heap.push(Item{when, priority, nextSeq++,
                           EventFn(std::forward<F>(fn))});
            return;
        }
        const std::uint32_t id = allocSlot();
        Slot &s = slotAt(id);
        s.fn.emplace(std::forward<F>(fn));
        s.when = when;
        s.seq = nextSeq++;
        s.priority = priority;
        const std::uint64_t bucket = when >> bucketShift;
        if (bucket < scanBucket + calBuckets)
            pushNear(id, s, bucket);
        else
            pushFar(CalEnt{when, s.seq, id, priority});
    }

    /** Schedule `fn()` to run delta ticks from now. */
    template <class F>
    void
    scheduleIn(Tick delta, F &&fn, int priority = defaultPriority)
    {
        schedule(tickAdd(curTick, delta), std::forward<F>(fn), priority);
    }

    /**
     * Execute the next event, advancing time to it.
     * @return false if the queue was empty.
     */
    bool runOne() { return runNext(maxTick); }

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
     * that crosses either ceiling panics with the next event's key and
     * the queue state instead of spinning forever. 0 disables a ceiling
     * (the default).
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
    /**
     * @{ @name Calendar geometry (both powers of two)
     * A 262144-tick window of 64-tick buckets. Narrow buckets keep the
     * lists short and mostly in order: a short delay scheduled after a
     * long one overtakes it, and with 1024-tick buckets 72% of
     * `async-social`'s events were linked in mid-list (4.4 slots walked
     * each), against 21% (3.4 slots) with 64-tick buckets.
     */
    static constexpr unsigned bucketShift = 6;
    static constexpr Tick bucketTicks = Tick(1) << bucketShift;
    static constexpr std::size_t calBuckets = 4096;
    static constexpr std::size_t bucketMask = calBuckets - 1;
    static constexpr std::size_t occWords = calBuckets / 64;
    /** @} */

    /** @{ @name Slab geometry: 256 slots of 96 bytes a chunk. */
    static constexpr unsigned chunkShift = 8;
    static constexpr std::uint32_t chunkMask = (1u << chunkShift) - 1;
    /** @} */

    /** Marks the end of a bucket list. */
    static constexpr std::uint32_t noSlot = ~std::uint32_t(0);

    /** One pending calendar event: closure, sort key and bucket link. */
    struct Slot
    {
        EventFn fn;
        Tick when = 0;
        std::uint64_t seq = 0;
        std::int32_t priority = 0;
        std::uint32_t next = noSlot; ///< later slot of the same bucket
    };

    /** True when slot `a` executes before slot `b`. */
    static bool
    before(const Slot &a, const Slot &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.seq < b.seq;
    }

    /** One calendar bucket: an ascending list of slots. */
    struct Bucket
    {
        std::uint32_t head = noSlot;
        std::uint32_t tail = noSlot;
    };

    /**
     * An overflow-heap entry: the full (when, priority, seq) sort key
     * plus the slot, so heap sifts never touch the slab.
     */
    struct CalEnt
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t id;
        std::int32_t priority;
    };

    /** Overflow-heap order (a max-heap of "later" is a min-heap). */
    struct After
    {
        bool
        operator()(const CalEnt &a, const CalEnt &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    /** One entry of the legacy backend's heap. */
    struct Item
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        EventFn fn;
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

    Slot &
    slotAt(std::uint32_t id)
    {
        return slab[id >> chunkShift][id & chunkMask];
    }

    const Slot &
    slotAt(std::uint32_t id) const
    {
        return slab[id >> chunkShift][id & chunkMask];
    }

    std::uint32_t
    allocSlot()
    {
        if (freeSlots.empty())
            return growSlab();
        const std::uint32_t id = freeSlots.back();
        freeSlots.pop_back();
        return id;
    }

    /** Link slot `id` into its near bucket; appending is the rule. */
    void
    pushNear(std::uint32_t id, Slot &s, std::uint64_t bucket)
    {
        Bucket &bk = buckets[bucket & bucketMask];
        s.next = noSlot;
        if (bk.head == noSlot) {
            occ[(bucket & bucketMask) >> 6] |=
                std::uint64_t(1) << (bucket & bucketMask & 63);
            bk.head = id;
            bk.tail = id;
        } else if (Slot &t = slotAt(bk.tail); before(t, s)) {
            t.next = id;
            bk.tail = id;
        } else {
            insertSorted(bk, id, s);
        }
        ++nearCount;
    }

    std::uint32_t growSlab();
    void insertSorted(Bucket &bk, std::uint32_t id, Slot &s);
    void pushFar(const CalEnt &e);
    void migrateFar();
    std::uint64_t scanForward(std::uint64_t from) const;
    bool peekKey(Tick &when) const;
    bool runNext(Tick until);
    bool runNextLegacy(Tick until);
    void record(Tick when, int priority, std::uint64_t seq);
    [[noreturn]] void guardTripped(const char *which, Tick when,
                                   int priority, std::uint64_t seq);

    const Impl impl_;
    // Test hook: written once, single-threaded, before any queue or
    // worker thread exists; read-only from then on.
    // novalint:allow(shard-safety) set before threads start, then const
    static inline std::optional<Impl> forced;

    /** @{ @name Calendar backend state */
    /** Event slots by id; chunks never move once allocated. */
    std::vector<std::unique_ptr<Slot[]>> slab;
    std::uint32_t slabUsed = 0; ///< slots ever handed out
    std::vector<std::uint32_t> freeSlots;
    std::array<Bucket, calBuckets> buckets;
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
 *
 * The callback (a closure of at most two pointers, typically `[this]`)
 * is kept inline and called straight from the scheduled event, whose
 * type is instantiated per callback type, so firing costs one indirect
 * call.
 */
class SelfEvent
{
  public:
    template <class F>
    SelfEvent(EventQueue &queue, F callback)
        : q(queue), post(&postAs<F>)
    {
        static_assert(sizeof(F) <= sizeof(cb) &&
                          alignof(F) <= alignof(void *),
                      "SelfEvent callbacks capture at most two pointers");
        static_assert(std::is_trivially_copyable_v<F> &&
                          std::is_trivially_destructible_v<F>,
                      "SelfEvent callbacks must be trivially copyable");
        std::construct_at(static_cast<F *>(static_cast<void *>(cb)),
                          callback);
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
        post(*this, when, ++generation, priority);
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
    using Post = void (*)(SelfEvent &, Tick, std::uint64_t, int);

    /** Schedule occurrence `g`; it fires only if still current. */
    template <class F>
    static void
    postAs(SelfEvent &self, Tick when, std::uint64_t g, int priority)
    {
        self.q.schedule(when, [s = &self, g] {
            if (g != s->generation)
                return;
            s->pending = false;
            (*std::launder(
                static_cast<F *>(static_cast<void *>(s->cb))))();
        }, priority);
    }

    EventQueue &q;
    Post post;
    alignas(void *) unsigned char cb[2 * sizeof(void *)];
    bool pending = false;
    Tick pendingWhen = 0;
    std::uint64_t generation = 0;
};

} // namespace nova::sim

#endif // NOVA_SIM_EVENT_QUEUE_HH
