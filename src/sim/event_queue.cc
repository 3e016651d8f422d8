#include "sim/event_queue.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "sim/profile.hh"

namespace nova::sim
{

EventQueue::Impl
EventQueue::defaultImpl()
{
    if (forced)
        return *forced;
    if (const char *env = std::getenv("NOVA_EQ_IMPL")) {
        if (std::strcmp(env, "legacy") == 0)
            return Impl::LegacyHeap;
        if (std::strcmp(env, "calendar") == 0 || env[0] == '\0')
            return Impl::Calendar;
        fatal("NOVA_EQ_IMPL must be 'calendar' or 'legacy', not '", env,
              "'");
    }
    return Impl::Calendar;
}

std::uint32_t
EventQueue::growSlab()
{
    if ((slabUsed >> chunkShift) == slab.size())
        slab.push_back(std::make_unique<Slot[]>(chunkMask + 1));
    return slabUsed++;
}

/**
 * Link slot `id` into a bucket whose tail executes after it: walk from
 * the head to the first pending slot that sorts after `s`. Executed
 * slots have left the list, so an event scheduled at now() with a
 * lower priority than the running one becomes the new head.
 */
void
EventQueue::insertSorted(Bucket &bk, std::uint32_t id, Slot &s)
{
    std::uint32_t prev = noSlot;
    std::uint32_t cur = bk.head;
    while (!before(s, slotAt(cur))) {
        prev = cur;
        cur = slotAt(cur).next;
    }
    s.next = cur;
    if (prev == noSlot)
        bk.head = id;
    else
        slotAt(prev).next = id;
}

void
EventQueue::pushFar(const CalEnt &e)
{
    farHeap.push_back(e);
    std::push_heap(farHeap.begin(), farHeap.end(), After{});
}

/** Pull every overflow event that now falls inside the window. */
void
EventQueue::migrateFar()
{
    while (!farHeap.empty() &&
           (farHeap.front().when >> bucketShift) <
               scanBucket + calBuckets) {
        const std::uint32_t id = farHeap.front().id;
        std::pop_heap(farHeap.begin(), farHeap.end(), After{});
        farHeap.pop_back();
        Slot &s = slotAt(id);
        pushNear(id, s, s.when >> bucketShift);
    }
}

/**
 * First non-empty bucket at or after global bucket `from`, as a global
 * bucket number. @pre nearCount > 0 and every near event's bucket is in
 * [from, from + calBuckets).
 */
std::uint64_t
EventQueue::scanForward(std::uint64_t from) const
{
    const std::size_t start = from & bucketMask;
    std::size_t w = start >> 6;
    std::uint64_t word = occ[w] & (~std::uint64_t(0) << (start & 63));
    std::size_t wrapped = 0;
    while (word == 0) {
        w = (w + 1) % occWords;
        word = occ[w];
        ++wrapped;
        NOVA_ASSERT(wrapped <= occWords, "calendar occupancy empty");
    }
    const std::size_t found =
        w * 64 +
        static_cast<std::size_t>(__builtin_ctzll(word));
    const std::size_t dist = (found - start) & bucketMask;
    return from + dist;
}

/** Tick of the next pending event without mutating calendar state. */
bool
EventQueue::peekKey(Tick &when) const
{
    if (impl_ == Impl::LegacyHeap) {
        if (heap.empty())
            return false;
        when = heap.top().when;
        return true;
    }
    // Near events always precede overflow ones: the overflow heap only
    // holds events at or beyond the window end.
    if (nearCount > 0) {
        when = slotAt(buckets[scanForward(scanBucket) & bucketMask].head)
                   .when;
        return true;
    }
    if (!farHeap.empty()) {
        when = farHeap.front().when;
        return true;
    }
    return false;
}

void
EventQueue::guardTripped(const char *which, Tick when, int priority,
                         std::uint64_t seq)
{
    panic("event-queue guard tripped (", which, "): next event at tick ",
          when, " priority ", priority, " seq ", seq, "; now=", curTick,
          " executed=", numExecuted, " pending=", size(),
          " guard{maxTick=", guardMaxTick, ", maxEvents=", guardMaxEvents,
          "}. The run exceeded its configured ceiling -- likely a "
          "livelock or a missing termination condition.");
}

/** Advance the clock to an event about to run and log it. */
void
EventQueue::record(Tick when, int priority, std::uint64_t seq)
{
    NOVA_ASSERT(when >= curTick, "event queue went backwards");
    curTick = when;
    recent[numExecuted % recentCapacity] = RecentEvent{when, priority, seq};
    if (traceSink)
        traceSink->push_back(RecentEvent{when, priority, seq});
    ++numExecuted;
    constexpr std::uint64_t prime = 0x100000001b3ULL; // FNV-1a
    fp = (fp ^ when) * prime;
    fp = (fp ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(
                   priority))) *
         prime;
    fp = (fp ^ seq) * prime;
}

bool
EventQueue::runNextLegacy(Tick until)
{
    if (heap.empty() || heap.top().when > until)
        return false;
    if (guardMaxEvents && numExecuted >= guardMaxEvents)
        guardTripped("max-events", heap.top().when, heap.top().priority,
                     heap.top().seq);
    if (guardMaxTick && heap.top().when > guardMaxTick)
        guardTripped("max-tick", heap.top().when, heap.top().priority,
                     heap.top().seq);
    // Move the closure out before popping so it may schedule new events.
    Item item = std::move(const_cast<Item &>(heap.top()));
    heap.pop();
    record(item.when, item.priority, item.seq);
    item.fn();
    if (checkEvery && numExecuted % checkEvery == 0)
        checkFn();
    return true;
}

/** Execute the next event if it is due at or before `until`. */
bool
EventQueue::runNext(Tick until)
{
    if (impl_ == Impl::LegacyHeap)
        return runNextLegacy(until);

    if (nearCount == 0) {
        if (farHeap.empty() || farHeap.front().when > until)
            return false;
        // The window is empty: jump it to the earliest overflow event.
        scanBucket = farHeap.front().when >> bucketShift;
        migrateFar();
    }
    const std::uint64_t b = scanForward(scanBucket);
    Bucket &bk = buckets[b & bucketMask];
    const std::uint32_t id = bk.head;
    Slot &s = slotAt(id);
    if (s.when > until)
        return false;
    if (guardMaxEvents && numExecuted >= guardMaxEvents)
        guardTripped("max-events", s.when, s.priority, s.seq);
    if (guardMaxTick && s.when > guardMaxTick)
        guardTripped("max-tick", s.when, s.priority, s.seq);
    if (b != scanBucket) {
        // Sliding the window forward may expose overflow events that now
        // fit; they all land in buckets after b, so the pop order is
        // unaffected.
        scanBucket = b;
        migrateFar();
    }

    bk.head = s.next;
    if (bk.head == noSlot) {
        bk.tail = noSlot;
        occ[(b & bucketMask) >> 6] &=
            ~(std::uint64_t(1) << (b & bucketMask & 63));
    }
    --nearCount;

    record(s.when, s.priority, s.seq);
    // The slot stays allocated while the body runs, so events the body
    // schedules take other slots, and slab chunks never move.
    s.fn();
    s.fn.reset();
    freeSlots.push_back(id);
    if (checkEvery && numExecuted % checkEvery == 0)
        checkFn();
    return true;
}

std::uint64_t
EventQueue::run(Tick until, std::uint64_t maxEvents)
{
    profile::Scope prof_scope(profile::loopSite());
    std::uint64_t count = 0;
    while (count < maxEvents && runNext(until))
        ++count;
    return count;
}

std::vector<RecentEvent>
EventQueue::recentEvents() const
{
    std::vector<RecentEvent> out;
    const std::uint64_t n =
        numExecuted < recentCapacity ? numExecuted : recentCapacity;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        out.push_back(recent[(numExecuted - n + i) % recentCapacity]);
    return out;
}

} // namespace nova::sim
