/**
 * @file
 * Stress tests of the calendar-queue event-kernel fast path: ordering
 * and fingerprint equivalence against both the legacy binary-heap
 * backend and an independent std::priority_queue reference model, over
 * a million mixed-horizon events including SelfEvent cancellations.
 * Also the runaway guards: the max-tick and max-events ceilings.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
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
 * (a few calendar buckets ahead), mid (inside the 262144-tick window) and
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
                delta = rng.nextBounded(1000); // same / nearby bucket
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

namespace
{

/**
 * Run `scenario` on the reference model and on both backends; every
 * backend must execute exactly the model's (tick, priority, id) trace.
 * A scenario takes the queue and a sink and schedules through the
 * queue's own schedule(when, fn, priority).
 */
template <class Scenario>
void
expectMatchesModel(Scenario scenario)
{
    std::vector<Observed> want;
    {
        ModelQueue mq;
        scenario(mq, want);
        mq.run();
    }
    ASSERT_FALSE(want.empty());
    for (const auto impl : {EventQueue::Impl::Calendar,
                            EventQueue::Impl::LegacyHeap}) {
        std::vector<Observed> got;
        EventQueue eq(impl);
        scenario(eq, got);
        eq.run();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_TRUE(got[i] == want[i])
                << "event " << i << ": ran id " << got[i].id << " at tick "
                << got[i].when << ", model ran id " << want[i].id
                << " at tick " << want[i].when;
    }
}

/** An event that only records itself. */
template <class Q>
void
note(Q &q, std::vector<Observed> &out, Tick when, std::uint64_t id,
     int priority = 0)
{
    q.schedule(when, [&q, &out, id, priority] {
        out.push_back(Observed{q.now(), priority, id});
    }, priority);
}

} // namespace

TEST(EventQueueStress, InsertBeforeEntriesOfPartlyDrainedBucket)
{
    // Ticks 7..56 share one calendar bucket (64 ticks). After the
    // first three have run, the event at tick 21 schedules into the
    // same bucket ahead of, between and level with the pending rest.
    expectMatchesModel([](auto &q, std::vector<Observed> &out) {
        for (std::uint64_t i = 0; i < 8; ++i)
            note(q, out, 7 * (i + 1), i);
        q.schedule(21, [&q, &out] {
            out.push_back(Observed{q.now(), 0, 100});
            note(q, out, 24, 101);
            note(q, out, 22, 102);
            note(q, out, 56, 103, -1);
            note(q, out, 56, 104, 2);
            note(q, out, 56, 105);
            note(q, out, 63, 106);
            note(q, out, 21, 107, 1);
        });
    });
}

TEST(EventQueueStress, ScheduleAtNowFromRunningEvent)
{
    // A running event schedules at now() with priorities below, equal
    // to and above its own while same-tick events are still pending;
    // one of them schedules at now() again.
    expectMatchesModel([](auto &q, std::vector<Observed> &out) {
        note(q, out, 500, 0);
        q.schedule(500, [&q, &out] {
            out.push_back(Observed{q.now(), 0, 10});
            note(q, out, q.now(), 11, -1);
            note(q, out, q.now(), 12);
            note(q, out, q.now(), 13, 1);
            q.schedule(q.now(), [&q, &out] {
                out.push_back(Observed{q.now(), 0, 14});
                note(q, out, q.now(), 15, -2);
                note(q, out, q.now(), 16);
            });
        });
        note(q, out, 500, 1, 1);
        note(q, out, 500, 2);
        note(q, out, 501, 3, -5);
    });
}

TEST(EventQueueStress, WindowSlideMigratesFarEventsIntoNonEmptyBucket)
{
    // Events far beyond the calendar window (262144 ticks), several
    // per 64-tick bucket and scheduled out of order, migrate as a
    // ticker slides the window forward 50000 ticks at a time; once they
    // are near, the ticker links new events into the same buckets
    // around them.
    expectMatchesModel([](auto &q, std::vector<Observed> &out) {
        constexpr Tick base = 1'024'000; // first tick of a bucket
        const std::uint64_t ks[] = {7, 3, 9, 1, 3, 5, 0, 8};
        for (std::uint64_t i = 0; i < 8; ++i) {
            note(q, out, base + ks[i] * 7, 200 + i,
                 static_cast<int>(ks[i] % 3) - 1);
            note(q, out, base + 64 + ks[i], 300 + i);
        }
        for (Tick t = 0; t <= 1'100'000; t += 50'000) {
            q.schedule(t, [&q, &out, t] {
                out.push_back(Observed{q.now(), 0, 400 + t / 50'000});
                if (q.now() >= 800'000 && q.now() < base) {
                    note(q, out, base + 45, 500 + t / 50'000);
                    note(q, out, base + 5, 600 + t / 50'000, -1);
                    note(q, out, base + 64, 700 + t / 50'000);
                }
            });
        }
    });
}

TEST(EventQueueGuard, MaxEventsCeilingPanics)
{
    EventQueue eq;
    eq.setGuard(0, 64);
    std::function<void()> spin = [&eq, &spin] {
        eq.scheduleIn(10, spin);
    };
    eq.scheduleIn(10, spin);
    EXPECT_THROW(eq.run(), PanicError);
}

TEST(EventQueueGuard, MaxTickCeilingPanics)
{
    EventQueue eq;
    eq.setGuard(5000, 0);
    std::function<void()> spin = [&eq, &spin] {
        eq.scheduleIn(100, spin);
    };
    eq.scheduleIn(100, spin);
    EXPECT_THROW(eq.run(), PanicError);
}

TEST(EventQueueGuard, DisabledByDefault)
{
    EventQueue eq;
    std::uint64_t remaining = 200;
    std::function<void()> spin = [&] {
        if (--remaining > 0)
            eq.scheduleIn(10, spin);
    };
    eq.scheduleIn(10, spin);
    EXPECT_NO_THROW(eq.run());
}
