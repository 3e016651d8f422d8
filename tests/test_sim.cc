/**
 * @file
 * Unit tests of the discrete-event simulation kernel: event ordering,
 * priorities, SelfEvent semantics, clocked objects, statistics and the
 * deterministic RNG.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

using namespace nova::sim;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueue, SameTickFifoStable)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(50, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(2); }, 5);
    eq.schedule(10, [&] { order.push_back(1); }, -5);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            eq.scheduleIn(5, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(eq.now(), 45u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 0; t < 100; t += 10)
        eq.schedule(t, [&] { ++count; });
    eq.run(45);
    EXPECT_EQ(count, 5);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, MaxEventsLimit)
{
    EventQueue eq;
    int count = 0;
    for (int i = 0; i < 20; ++i)
        eq.schedule(static_cast<Tick>(i), [&] { ++count; });
    eq.run(maxTick, 7);
    EXPECT_EQ(count, 7);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runOne();
    EXPECT_THROW(eq.schedule(50, [] {}), PanicError);
}

TEST(EventQueue, ExecutedCounter)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, FingerprintTracksExecutionOrder)
{
    // Two identical schedules produce identical fingerprints ...
    auto run_schedule = [](bool swap) {
        EventQueue eq;
        eq.schedule(10, [] {}, swap ? 1 : -1);
        eq.schedule(10, [] {}, swap ? -1 : 1);
        eq.schedule(25, [] {});
        eq.run();
        return eq.fingerprint();
    };
    EXPECT_EQ(run_schedule(false), run_schedule(false));
    // ... while flipping same-tick priorities reorders execution and
    // must change the fingerprint.
    EXPECT_NE(run_schedule(false), run_schedule(true));
    // An empty queue keeps the initial basis.
    EventQueue fresh;
    EXPECT_EQ(fresh.fingerprint(), EventQueue().fingerprint());
}

TEST(SelfEvent, ScheduleWhilePendingIsNoop)
{
    EventQueue eq;
    int fired = 0;
    SelfEvent ev(eq, [&] { ++fired; });
    ev.schedule(100);
    ev.schedule(50); // ignored: already pending at 100
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 100u);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(ev.scheduled());
}

TEST(SelfEvent, DescheduleCancels)
{
    EventQueue eq;
    int fired = 0;
    SelfEvent ev(eq, [&] { ++fired; });
    ev.schedule(100);
    ev.deschedule();
    eq.run();
    EXPECT_EQ(fired, 0);
}

TEST(SelfEvent, ReschedulableAfterFiring)
{
    EventQueue eq;
    int fired = 0;
    SelfEvent ev(eq, [&] { ++fired; });
    ev.schedule(10);
    eq.run();
    ev.schedule(20);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(SelfEvent, DescheduleThenRescheduleFiresOnce)
{
    EventQueue eq;
    int fired = 0;
    SelfEvent ev(eq, [&] { ++fired; });
    ev.schedule(10);
    ev.deschedule();
    ev.schedule(30);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 30u);
}

TEST(ClockedObject, CycleTickConversions)
{
    EventQueue eq;
    ClockedObject obj("clk", eq, 500); // 2 GHz
    EXPECT_EQ(obj.clockPeriod(), 500u);
    EXPECT_EQ(obj.cyclesToTicks(4), 2000u);
    EXPECT_EQ(obj.curCycle(), 0u);
    EXPECT_EQ(obj.clockEdge(0), 0u);
    EXPECT_EQ(obj.clockEdge(3), 1500u);
}

TEST(ClockedObject, EdgeAlignsUp)
{
    EventQueue eq;
    ClockedObject obj("clk", eq, 500);
    eq.schedule(750, [] {});
    eq.run();
    EXPECT_EQ(obj.clockEdge(0), 1000u);
    EXPECT_EQ(obj.clockEdge(1), 1500u);
    EXPECT_EQ(obj.curCycle(), 1u);
}

TEST(Stats, ScalarArithmetic)
{
    stats::Scalar s;
    s += 2.5;
    ++s;
    s -= 1.0;
    EXPECT_DOUBLE_EQ(s.value(), 2.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, GroupCollectAndGet)
{
    stats::Group parent("sys");
    stats::Group child("unit");
    stats::Scalar a, b;
    a.set(3);
    b.set(7);
    parent.addScalar("a", &a);
    child.addScalar("b", &b);
    parent.addChild(&child);

    std::map<std::string, double> all;
    parent.collect(all);
    EXPECT_DOUBLE_EQ(all.at("sys.a"), 3);
    EXPECT_DOUBLE_EQ(all.at("sys.unit.b"), 7);
    EXPECT_DOUBLE_EQ(parent.get("sys.unit.b"), 7);
    EXPECT_TRUE(parent.has("sys.a"));
    EXPECT_FALSE(parent.has("sys.nope"));
    EXPECT_THROW(parent.get("sys.nope"), PanicError);
}

TEST(Stats, HistogramMoments)
{
    stats::Histogram h(0, 10, 10);
    for (int i = 0; i < 10; ++i)
        h.sample(static_cast<double>(i));
    EXPECT_EQ(h.count(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.5);
    EXPECT_DOUBLE_EQ(h.min(), 0);
    EXPECT_DOUBLE_EQ(h.max(), 9);
    for (const auto bucket : h.buckets())
        EXPECT_EQ(bucket, 1u);
}

TEST(Stats, HistogramClampsOutOfRange)
{
    stats::Histogram h(0, 10, 2);
    h.sample(-5);
    h.sample(50);
    EXPECT_EQ(h.buckets().front(), 1u);
    EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(Simulator, RunsRegisteredObjects)
{
    Simulator simr("top");
    struct Ticker : SimObject
    {
        int fired = 0;
        Ticker(EventQueue &eq) : SimObject("ticker", eq) {}
        void
        startup() override
        {
            scheduleIn(100, [this] { ++fired; });
        }
    };
    auto *t = simr.create<Ticker>(simr.eventQueue());
    simr.run();
    EXPECT_EQ(t->fired, 1);
    EXPECT_EQ(simr.now(), 100u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBounded(17), 17u);
        const auto r = rng.nextRange(5, 9);
        EXPECT_GE(r, 5u);
        EXPECT_LE(r, 9u);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SplitDecorrelates)
{
    Rng a(42);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Simulator, SeededRunsAreBitIdentical)
{
    // A random event storm driven by a seeded Rng must unfold the same
    // way twice: same final time, event count and order fingerprint.
    auto storm = [](std::uint64_t seed) {
        EventQueue eq;
        Rng rng(seed);
        int spawned = 0;
        std::function<void()> spawn = [&] {
            if (spawned >= 500)
                return;
            ++spawned;
            eq.scheduleIn(1 + rng.nextBounded(1000), spawn,
                          static_cast<std::int32_t>(rng.nextBounded(8)));
            if (rng.nextBool(0.3))
                eq.scheduleIn(1 + rng.nextBounded(100), spawn);
        };
        spawn();
        eq.run();
        return std::tuple{eq.now(), eq.executed(), eq.fingerprint()};
    };
    EXPECT_EQ(storm(77), storm(77));
    EXPECT_NE(storm(77), storm(78));
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(5);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.nextBool(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Logging, FatalAndPanicCarryMessages)
{
    try {
        fatal("bad ", 42);
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bad 42"),
                  std::string::npos);
    }
    try {
        panic("broken");
        FAIL();
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("broken"),
                  std::string::npos);
    }
}

TEST(TickArith, CheckedOpsPassThroughInRange)
{
    EXPECT_EQ(tickAdd(3, 4), 7u);
    EXPECT_EQ(tickSub(10, 4), 6u);
    EXPECT_EQ(tickMul(6, 7), 42u);
    EXPECT_EQ(tickAdd(maxTick, 0), maxTick);
    EXPECT_EQ(tickMul(maxTick, 1), maxTick);
    EXPECT_EQ(tickMul(maxTick, 0), 0u);
}

TEST(TickArith, OverflowAndUnderflowPanic)
{
    EXPECT_THROW(tickAdd(maxTick, 1), PanicError);
    EXPECT_THROW(tickSub(3, 4), PanicError);
    EXPECT_THROW(tickMul(maxTick / 2 + 1, 2), PanicError);
}
