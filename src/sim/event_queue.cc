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

void
EventQueue::pushNear(const CalEnt &e)
{
    const std::uint64_t bucket = e.when >> bucketShift;
    auto &b = buckets[bucket & bucketMask];
    b.push_back(e);
    std::push_heap(b.begin(), b.end(), entAfter);
    occ[(bucket & bucketMask) >> 6] |= std::uint64_t(1)
                                       << (bucket & bucketMask & 63);
    ++nearCount;
}

void
EventQueue::pushFar(const CalEnt &e)
{
    farHeap.push_back(e);
    std::push_heap(farHeap.begin(), farHeap.end(), entAfter);
}

/** Pull every overflow event that now falls inside the window. */
void
EventQueue::migrateFar()
{
    while (!farHeap.empty() &&
           (farHeap.front().when >> bucketShift) <
               scanBucket + calBuckets) {
        const CalEnt e = farHeap.front();
        std::pop_heap(farHeap.begin(), farHeap.end(), entAfter);
        farHeap.pop_back();
        pushNear(e);
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
        const std::uint64_t b = scanForward(scanBucket);
        when = buckets[b & bucketMask].front().when;
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

bool
EventQueue::runOneLegacy()
{
    if (heap.empty())
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
    NOVA_ASSERT(item.when >= curTick, "event queue went backwards");
    curTick = item.when;
    recent[numExecuted % recentCapacity] =
        RecentEvent{item.when, item.priority, item.seq};
    if (traceSink)
        traceSink->push_back(
            RecentEvent{item.when, item.priority, item.seq});
    ++numExecuted;
    constexpr std::uint64_t prime = 0x100000001b3ULL; // FNV-1a
    fp = (fp ^ item.when) * prime;
    fp = (fp ^ static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(item.priority))) *
         prime;
    fp = (fp ^ item.seq) * prime;
    item.fn();
    if (checkEvery && numExecuted % checkEvery == 0)
        checkFn();
    return true;
}

bool
EventQueue::runOne()
{
    if (impl_ == Impl::LegacyHeap)
        return runOneLegacy();

    if (nearCount == 0) {
        if (farHeap.empty())
            return false;
        // The window is empty: jump it to the earliest overflow event.
        scanBucket = farHeap.front().when >> bucketShift;
        migrateFar();
    }
    const std::uint64_t b = scanForward(scanBucket);
    if (b != scanBucket) {
        // Sliding the window forward may expose overflow events that now
        // fit; they are all later than bucket b's events, so the pop
        // order is unaffected.
        scanBucket = b;
        migrateFar();
    }

    auto &bucket = buckets[b & bucketMask];
    const CalEnt e = bucket.front();
    if (guardMaxEvents && numExecuted >= guardMaxEvents)
        guardTripped("max-events", e.when, e.priority, e.seq);
    if (guardMaxTick && e.when > guardMaxTick)
        guardTripped("max-tick", e.when, e.priority, e.seq);

    std::pop_heap(bucket.begin(), bucket.end(), entAfter);
    bucket.pop_back();
    if (bucket.empty())
        occ[(b & bucketMask) >> 6] &=
            ~(std::uint64_t(1) << (b & bucketMask & 63));
    --nearCount;

    // Move the closure out and recycle its pool slot before invoking it:
    // the closure may schedule new events, growing the pool and
    // invalidating pool references.
    const Tick when = e.when;
    const int priority = e.priority;
    const std::uint64_t seq = e.seq;
    std::function<void()> fn = std::move(pool[e.id]);
    pool[e.id] = nullptr;
    freeList.push_back(e.id);

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
    fn();
    if (checkEvery && numExecuted % checkEvery == 0)
        checkFn();
    return true;
}

std::uint64_t
EventQueue::run(Tick until, std::uint64_t maxEvents)
{
    profile::Scope prof_scope(profile::loopSite());
    std::uint64_t count = 0;
    if (until == maxTick) {
        // Full drain: no tick bound to check, so skip the per-event
        // peek (which repeats the calendar's bucket scan).
        while (count < maxEvents && runOne())
            ++count;
        return count;
    }
    Tick next = 0;
    while (count < maxEvents && peekKey(next) && next <= until) {
        runOne();
        ++count;
    }
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
