/**
 * @file
 * Stress tests of the calendar-queue event-kernel fast path: ordering
 * and fingerprint equivalence against both the legacy binary-heap
 * backend and an independent std::priority_queue reference model, over
 * a million mixed-horizon events including SelfEvent cancellations.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace nova::sim;

namespace
{

/** One executed event as observed from outside the queue. */
struct Observed
{
    Tick when;
    int priority;
    std::uint64_t id;

    bool
    operator==(const Observed &o) const
    {
        return when == o.when && priority == o.priority && id == o.id;
    }
};

/**
 * Deterministic self-expanding workload: each event draws from a
 * seeded Rng and schedules one or two follow-ups (supercritical, so
 * the cascade cannot die out) at mixed horizons — same tick, near
 * (inside one calendar bucket), mid (inside the 256-bucket window) and
 * far (well beyond it) — until `target` events have been scheduled. Because every draw happens inside an executed event, two
 * queues produce identical schedules iff they execute in the same
 * order.
 */
std::vector<Observed>
runExpandingWorkload(EventQueue &eq, std::uint64_t target,
                     std::uint64_t seed)
{
    std::vector<Observed> trace;
    trace.reserve(target);
    Rng rng(seed);
    std::uint64_t scheduled = 0;
    std::uint64_t next_id = 0;

    std::function<void(std::uint64_t)> body = [&](std::uint64_t id) {
        trace.push_back(Observed{eq.now(), 0, id});
        const std::uint32_t fanout = 1 + rng.nextBounded(2);
        for (std::uint32_t i = 0; i < fanout && scheduled < target; ++i) {
            Tick delta = 0;
            switch (rng.nextBounded(4)) {
              case 0:
                delta = 0; // same tick
                break;
              case 1:
                delta = rng.nextBounded(1000); // same / adjacent bucket
                break;
              case 2:
                delta = rng.nextBounded(200'000); // inside the window
                break;
              default:
                delta = 250'000 + rng.nextBounded(5'000'000); // overflow heap
                break;
            }
            const std::uint64_t child = next_id++;
            ++scheduled;
            eq.scheduleIn(delta, [&body, child] { body(child); });
        }
    };

    const std::uint64_t root = next_id++;
    ++scheduled;
    eq.schedule(0, [&body, root] { body(root); });
    eq.run();
    return trace;
}

/**
 * Reference model: the same (when, priority, seq) key ordering as
 * EventQueue, implemented directly on std::priority_queue with the
 * callbacks carried alongside. Deliberately naive.
 */
class ModelQueue
{
  public:
    void
    schedule(Tick when, std::function<void()> fn, int priority = 0)
    {
        heap.push(Item{when, priority, nextSeq++, std::move(fn)});
    }

    void
    scheduleIn(Tick delta, std::function<void()> fn, int priority = 0)
    {
        schedule(cur + delta, std::move(fn), priority);
    }

    Tick now() const { return cur; }

    void
    run()
    {
        while (!heap.empty()) {
            Item it = std::move(const_cast<Item &>(heap.top()));
            heap.pop();
            cur = it.when;
            it.fn();
        }
    }

  private:
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
            return std::make_tuple(a.when, a.priority, a.seq) >
                   std::make_tuple(b.when, b.priority, b.seq);
        }
    };

    std::priority_queue<Item, std::vector<Item>, Later> heap;
    Tick cur = 0;
    std::uint64_t nextSeq = 0;
};

/** The expanding workload on the reference model. */
std::vector<Observed>
runExpandingModel(std::uint64_t target, std::uint64_t seed)
{
    std::vector<Observed> trace;
    trace.reserve(target);
    ModelQueue mq;
    Rng rng(seed);
    std::uint64_t scheduled = 0;
    std::uint64_t next_id = 0;

    std::function<void(std::uint64_t)> body = [&](std::uint64_t id) {
        trace.push_back(Observed{mq.now(), 0, id});
        const std::uint32_t fanout = 1 + rng.nextBounded(2);
        for (std::uint32_t i = 0; i < fanout && scheduled < target; ++i) {
            Tick delta = 0;
            switch (rng.nextBounded(4)) {
              case 0:
                delta = 0;
                break;
              case 1:
                delta = rng.nextBounded(1000);
                break;
              case 2:
                delta = rng.nextBounded(200'000);
                break;
              default:
                delta = 250'000 + rng.nextBounded(5'000'000);
                break;
            }
            const std::uint64_t child = next_id++;
            ++scheduled;
            mq.scheduleIn(delta, [&body, child] { body(child); });
        }
    };

    const std::uint64_t root = next_id++;
    ++scheduled;
    mq.schedule(0, [&body, root] { body(root); });
    mq.run();
    return trace;
}

} // namespace

TEST(EventQueueStress, CalendarMatchesReferenceModelOnMillionEvents)
{
    constexpr std::uint64_t kEvents = 1'000'000;
    EventQueue eq(EventQueue::Impl::Calendar);
    const auto got = runExpandingWorkload(eq, kEvents, 0xA5A5);
    const auto want = runExpandingModel(kEvents, 0xA5A5);
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(got.size(), kEvents);
    // EXPECT_EQ on the vectors would print megabytes on failure; find
    // the first mismatch instead.
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i] == want[i])
            << "first divergence at event " << i << ": calendar ran id "
            << got[i].id << " at tick " << got[i].when
            << ", model ran id " << want[i].id << " at tick "
            << want[i].when;
    }
}

TEST(EventQueueStress, BackendFingerprintsIdenticalOnMillionEvents)
{
    constexpr std::uint64_t kEvents = 1'000'000;
    EventQueue cal(EventQueue::Impl::Calendar);
    EventQueue leg(EventQueue::Impl::LegacyHeap);
    const auto a = runExpandingWorkload(cal, kEvents, 0xBEEF);
    const auto b = runExpandingWorkload(leg, kEvents, 0xBEEF);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(cal.fingerprint(), leg.fingerprint());
    EXPECT_EQ(cal.executed(), leg.executed());
    EXPECT_EQ(cal.now(), leg.now());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_TRUE(a[i] == b[i]) << "backends diverged at event " << i;
}

TEST(EventQueueStress, MixedPrioritiesAcrossBuckets)
{
    // Priorities must order within a tick on both backends, including
    // ticks that land in calendar overflow and migrate into the window.
    for (const auto impl : {EventQueue::Impl::Calendar,
                            EventQueue::Impl::LegacyHeap}) {
        EventQueue eq(impl);
        Rng rng(77);
        std::vector<Observed> trace;
        for (std::uint64_t i = 0; i < 50'000; ++i) {
            const Tick when = rng.nextBounded(2'000'000);
            const int prio = static_cast<int>(rng.nextBounded(7)) - 3;
            eq.schedule(when, [&trace, &eq, i, prio] {
                trace.push_back(Observed{eq.now(), prio, i});
            }, prio);
        }
        eq.run();
        ASSERT_EQ(trace.size(), 50'000u);
        for (std::size_t i = 1; i < trace.size(); ++i) {
            const auto &p = trace[i - 1];
            const auto &c = trace[i];
            ASSERT_TRUE(std::make_tuple(p.when, p.priority) <=
                        std::make_tuple(c.when, c.priority))
                << "order violation at " << i;
        }
    }
}

TEST(EventQueueStress, SelfEventCancellationParity)
{
    // Schedule-and-cancel churn through SelfEvent: cancelled
    // occurrences must not fire, and both backends must agree on the
    // surviving execution order (fingerprints include the dead events'
    // queue slots, so they must match too).
    auto churn = [](EventQueue::Impl impl) {
        EventQueue eq(impl);
        Rng rng(123);
        std::uint64_t fired = 0;
        std::vector<std::unique_ptr<SelfEvent>> events;
        for (int i = 0; i < 64; ++i)
            events.push_back(std::make_unique<SelfEvent>(
                eq, [&fired] { ++fired; }));
        for (std::uint64_t round = 0; round < 20'000; ++round) {
            auto &ev = events[rng.nextBounded(64)];
            if (ev->scheduled() && rng.nextBounded(3) == 0)
                ev->deschedule();
            else if (!ev->scheduled())
                ev->schedule(eq.now() + rng.nextBounded(3'000'000));
            // Drain a little so now() advances between rounds.
            if (round % 16 == 0)
                eq.run(eq.now() + 100'000);
        }
        eq.run();
        return std::make_tuple(fired, eq.fingerprint(), eq.executed(),
                               eq.now());
    };
    const auto cal = churn(EventQueue::Impl::Calendar);
    const auto leg = churn(EventQueue::Impl::LegacyHeap);
    EXPECT_EQ(cal, leg);
    EXPECT_GT(std::get<0>(cal), 0u);
}

TEST(EventQueueStress, ImplSelectionAndScopedOverride)
{
    EXPECT_EQ(EventQueue().impl(), EventQueue::defaultImpl());
    {
        EventQueue::ScopedDefaultImpl forced(EventQueue::Impl::LegacyHeap);
        EXPECT_EQ(EventQueue().impl(), EventQueue::Impl::LegacyHeap);
        {
            EventQueue::ScopedDefaultImpl inner(
                EventQueue::Impl::Calendar);
            EXPECT_EQ(EventQueue().impl(), EventQueue::Impl::Calendar);
        }
        EXPECT_EQ(EventQueue().impl(), EventQueue::Impl::LegacyHeap);
    }
    EXPECT_EQ(EventQueue().impl(), EventQueue::defaultImpl());
}

TEST(EventQueueStress, RestoreJumpsCalendarWindow)
{
    // Jumping an idle calendar queue's clock to a far-future tick (the
    // resync ParallelScheduler makes at quiescence) must leave the
    // calendar able to accept and order events around the new window.
    EventQueue eq(EventQueue::Impl::Calendar);
    eq.schedule(10, [] {});
    eq.run();
    const Tick far = Tick(1) << 40;
    eq.fastForward(far);
    std::vector<std::uint64_t> order;
    eq.schedule(far + 5, [&] { order.push_back(5); });
    eq.schedule(far, [&] { order.push_back(0); });
    eq.schedule(far + 300'000, [&] { order.push_back(300'000); });
    eq.run();
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 5, 300'000}));
    EXPECT_EQ(eq.now(), far + 300'000);
}
