/**
 * @file
 * Determinism battery of the conservative-PDES parallel scheduler.
 *
 * Two layers:
 *
 *  - a full-system battery: every fuzzer graph family runs SSSP and
 *    PageRank on the sharded NOVA model with 1, 2, 4 and 8 host
 *    threads under --deterministic-merge, and every outcome (final
 *    properties, tick count, every statistic, the per-shard and merged
 *    event fingerprints) must be bit-identical to the single-threaded
 *    legacy-heap run;
 *
 *  - a million-event ParallelScheduler stress: a self-expanding
 *    multi-shard workload with cross-shard posts, checked event for
 *    event against an independent naive model of the conservative
 *    window algorithm (per-shard std::priority_queue shards plus
 *    sorted mailboxes), and for thread-count invariance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "core/system.hh"
#include "graph/generators.hh"
#include "graph/partition.hh"
#include "sim/crash.hh"
#include "sim/event_queue.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"
#include "verify/fuzz.hh"
#include "workloads/programs.hh"

using namespace nova;
using sim::Tick;

namespace
{

/** Scaled-down two-GPN system, mirroring the differential harness. */
core::NovaConfig
shardedConfig(std::uint32_t threads)
{
    core::NovaConfig cfg;
    cfg.numGpns = 2;
    cfg.pesPerGpn = 4;
    cfg.cacheBytesPerPe = 512;
    cfg.activeBufferEntries = 16;
    cfg.threads = threads;
    cfg.deterministicMerge = threads > 0;
    return cfg;
}

/** Everything a run produced, for bit-exact comparison. */
struct Outcome
{
    std::vector<std::uint64_t> props;
    std::map<std::string, double> extra;
    std::uint64_t ticks = 0;
    std::uint64_t bspIterations = 0;
    std::uint64_t messagesGenerated = 0;
};

enum class Prog
{
    Sssp,
    Pr,
};

Outcome
runSharded(const verify::FuzzedGraph &fuzzed, Prog which,
           std::uint32_t threads, sim::EventQueue::Impl impl)
{
    sim::EventQueue::ScopedDefaultImpl forced(impl);
    const graph::Csr &g = fuzzed.graph;
    core::NovaConfig cfg = shardedConfig(threads);
    core::NovaSystem system(cfg);
    const auto map =
        graph::randomMapping(g.numVertices(), cfg.totalPes(), 9);

    workloads::RunResult r;
    if (which == Prog::Sssp) {
        workloads::SsspProgram prog(fuzzed.source);
        r = system.run(prog, g, map);
    } else {
        workloads::PageRankProgram prog(0.85, 1e-11, 8);
        r = system.run(prog, g, map);
    }

    Outcome out;
    out.props = r.props;
    out.extra = std::map<std::string, double>(r.extra.begin(),
                                              r.extra.end());
    out.ticks = r.ticks;
    out.bspIterations = r.bspIterations;
    out.messagesGenerated = r.messagesGenerated;
    return out;
}

void
expectIdentical(const Outcome &got, const Outcome &want,
                const std::string &label)
{
    EXPECT_EQ(got.props, want.props) << label;
    EXPECT_EQ(got.ticks, want.ticks) << label;
    EXPECT_EQ(got.bspIterations, want.bspIterations) << label;
    EXPECT_EQ(got.messagesGenerated, want.messagesGenerated) << label;
    ASSERT_EQ(got.extra.size(), want.extra.size()) << label;
    for (const auto &[key, value] : want.extra) {
        const auto it = got.extra.find(key);
        ASSERT_TRUE(it != got.extra.end()) << label << ": missing " << key;
        EXPECT_EQ(it->second, value) << label << ": stat " << key;
    }
}

/**
 * One representative fuzz case per graph family: the family is sampled
 * per case, so walk the stream until all 13 have appeared.
 */
std::map<verify::GraphFamily, std::uint64_t>
familyRepresentatives(std::uint64_t seed)
{
    std::map<verify::GraphFamily, std::uint64_t> reps;
    for (std::uint64_t index = 0;
         index < 512 && reps.size() < verify::numGraphFamilies; ++index) {
        const verify::FuzzedGraph fuzzed = verify::fuzzCase(seed, index);
        reps.emplace(fuzzed.family, index);
    }
    return reps;
}

} // namespace

TEST(ParallelDeterminism, AllFamiliesBitIdenticalAcrossThreadCounts)
{
    constexpr std::uint64_t kSeed = 0x7E57;
    const auto reps = familyRepresentatives(kSeed);
    ASSERT_EQ(reps.size(), verify::numGraphFamilies)
        << "fuzz stream did not cover every graph family";

    for (const auto &[family, index] : reps) {
        const verify::FuzzedGraph fuzzed = verify::fuzzCase(kSeed, index);
        SCOPED_TRACE(std::string("family ") + verify::familyName(family) +
                     ": " + fuzzed.description);
        for (const Prog which : {Prog::Sssp, Prog::Pr}) {
            const std::string prog =
                which == Prog::Sssp ? "sssp" : "pr";
            // Reference: one thread on the legacy binary heap.
            const Outcome want = runSharded(
                fuzzed, which, 1, sim::EventQueue::Impl::LegacyHeap);
            EXPECT_TRUE(want.extra.count("sim.mergedFingerprint"))
                << prog << ": deterministic merge did not run";
            for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
                const Outcome got = runSharded(
                    fuzzed, which, threads,
                    sim::EventQueue::Impl::Calendar);
                expectIdentical(got, want,
                                prog + " with " +
                                    std::to_string(threads) +
                                    " calendar threads");
            }
        }
    }
}

namespace
{

/** One executed event as observed from outside the scheduler. */
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

constexpr std::uint32_t kShards = 4;
constexpr Tick kLookahead = 1000;

/**
 * Independent reference model of the conservative window algorithm:
 * per-shard (when, priority, seq) priority queues, cross-shard posts
 * buffered in mailboxes that are drained only at window barriers in
 * (when, priority, srcShard, srcSeq) order. Deliberately naive — no
 * calendar, no threads, no lock-free anything.
 */
class ModelParallel
{
  public:
    explicit ModelParallel(std::uint32_t num_shards)
        : shards(num_shards), mailboxes(num_shards)
    {
    }

    Tick now(std::uint32_t s) const { return shards[s].cur; }

    void
    schedule(std::uint32_t s, Tick when, int priority,
             std::function<void()> fn)
    {
        ModelShard &sh = shards[s];
        sh.heap.push(Item{when, priority, sh.nextSeq++, std::move(fn)});
    }

    void
    postCross(std::uint32_t src, std::uint32_t dst, Tick when,
              int priority, std::function<void()> fn)
    {
        mailboxes[dst].push_back(
            Mail{when, priority, src, shards[src].postSeq++,
                 std::move(fn)});
    }

    void
    runUntilQuiescent(const std::function<void(std::uint32_t s, Tick when,
                                               int priority)> &observe)
    {
        while (true) {
            drainMailboxes();
            bool any = false;
            Tick global_next = 0;
            for (const ModelShard &sh : shards) {
                if (sh.heap.empty())
                    continue;
                if (!any || sh.heap.top().when < global_next)
                    global_next = sh.heap.top().when;
                any = true;
            }
            if (!any)
                return;
            const Tick horizon = global_next + kLookahead;
            for (std::uint32_t s = 0; s < shards.size(); ++s) {
                ModelShard &sh = shards[s];
                while (!sh.heap.empty() &&
                       sh.heap.top().when < horizon) {
                    Item it =
                        std::move(const_cast<Item &>(sh.heap.top()));
                    sh.heap.pop();
                    sh.cur = it.when;
                    observe(s, it.when, it.priority);
                    it.fn();
                }
            }
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

    struct ModelShard
    {
        std::priority_queue<Item, std::vector<Item>, Later> heap;
        Tick cur = 0;
        std::uint64_t nextSeq = 0;
        std::uint64_t postSeq = 0;
    };

    struct Mail
    {
        Tick when;
        int priority;
        std::uint32_t srcShard;
        std::uint64_t srcSeq;
        std::function<void()> fn;
    };

    void
    drainMailboxes()
    {
        for (std::uint32_t s = 0; s < shards.size(); ++s) {
            auto &box = mailboxes[s];
            std::sort(box.begin(), box.end(),
                      [](const Mail &a, const Mail &b) {
                          return std::make_tuple(a.when, a.priority,
                                                 a.srcShard, a.srcSeq) <
                                 std::make_tuple(b.when, b.priority,
                                                 b.srcShard, b.srcSeq);
                      });
            for (Mail &m : box)
                schedule(s, m.when, m.priority, std::move(m.fn));
            box.clear();
        }
    }

    std::vector<ModelShard> shards;
    std::vector<std::vector<Mail>> mailboxes;
};

/**
 * The self-expanding stress workload over any scheduler adapter. Every
 * executed event draws from its shard's Rng (consumed strictly in that
 * shard's execution order, so two schedulers draw identically iff they
 * execute identically) and schedules one or two children: usually
 * local at mixed horizons, sometimes cross-shard at now + lookahead +
 * delta. Budgets and ids are per shard — under real worker threads
 * each is touched only by its owning shard.
 */
template <typename Adapter>
std::vector<std::vector<Observed>>
runStress(Adapter &sched, std::uint64_t target_per_shard,
          std::uint64_t seed)
{
    struct ShardState
    {
        sim::Rng rng{0};
        std::uint64_t scheduled = 0;
        std::uint64_t nextId = 0;
    };
    std::vector<ShardState> state(kShards);
    std::vector<std::vector<Observed>> traces(kShards);
    for (std::uint32_t s = 0; s < kShards; ++s) {
        state[s].rng = sim::Rng(seed ^ (0x9E3779B9ULL * (s + 1)));
        traces[s].reserve(target_per_shard + 16);
    }

    // body(shard, priority, id) runs as one event on `shard`.
    std::function<void(std::uint32_t, int, std::uint64_t)> body =
        [&sched, &state, &traces, &body, target_per_shard](
            std::uint32_t s, int priority, std::uint64_t id) {
            ShardState &st = state[s];
            traces[s].push_back(Observed{sched.now(s), priority, id});
            const std::uint32_t fanout = 1 + st.rng.nextBounded(2);
            for (std::uint32_t i = 0;
                 i < fanout && st.scheduled < target_per_shard; ++i) {
                const int child_prio =
                    static_cast<int>(st.rng.nextBounded(3)) - 1;
                const std::uint64_t child =
                    (static_cast<std::uint64_t>(s) << 40) | st.nextId++;
                ++st.scheduled;
                const bool cross = st.rng.nextBounded(8) == 0;
                if (cross) {
                    const std::uint32_t dst = (s + 1) % kShards;
                    const Tick when = sched.now(s) + kLookahead +
                                      st.rng.nextBounded(5000);
                    sched.postCross(s, dst, when, child_prio,
                                    [&body, dst, child_prio, child] {
                                        body(dst, child_prio, child);
                                    });
                    continue;
                }
                Tick delta = 0;
                switch (st.rng.nextBounded(4)) {
                  case 0:
                    delta = 0; // same tick
                    break;
                  case 1:
                    delta = st.rng.nextBounded(1000); // same bucket
                    break;
                  case 2:
                    delta = st.rng.nextBounded(200'000); // in-window
                    break;
                  default:
                    delta = 250'000 +
                            st.rng.nextBounded(5'000'000); // far heap
                    break;
                }
                sched.schedule(s, sched.now(s) + delta, child_prio,
                               [&body, s, child_prio, child] {
                                   body(s, child_prio, child);
                               });
            }
        };

    for (std::uint32_t s = 0; s < kShards; ++s) {
        ++state[s].scheduled;
        const std::uint64_t root =
            (static_cast<std::uint64_t>(s) << 40) | state[s].nextId++;
        sched.schedule(s, 0, 0,
                       [&body, s, root] { body(s, 0, root); });
    }
    sched.run();
    return traces;
}

/** Adapter driving the real ParallelScheduler. */
class RealAdapter
{
  public:
    RealAdapter(std::uint32_t threads, bool merge)
    {
        sim::ParallelScheduler::Config cfg;
        cfg.numShards = kShards;
        cfg.numThreads = threads;
        cfg.lookahead = kLookahead;
        cfg.deterministicMerge = merge;
        sched.emplace(cfg);
    }

    Tick now(std::uint32_t s) const { return sched->shard(s).now(); }

    void
    schedule(std::uint32_t s, Tick when, int priority,
             std::function<void()> fn)
    {
        sched->shard(s).schedule(when, std::move(fn), priority);
    }

    void
    postCross(std::uint32_t src, std::uint32_t dst, Tick when,
              int priority, std::function<void()> fn)
    {
        sched->postCross(src, dst, when, priority, std::move(fn));
    }

    void run() { sched->runUntilQuiescent(); }

    sim::ParallelScheduler &scheduler() { return *sched; }

  private:
    std::optional<sim::ParallelScheduler> sched;
};

/** Adapter driving the naive reference model. */
class ModelAdapter
{
  public:
    ModelAdapter() : model(kShards) {}

    Tick now(std::uint32_t s) const { return model.now(s); }

    void
    schedule(std::uint32_t s, Tick when, int priority,
             std::function<void()> fn)
    {
        model.schedule(s, when, priority, std::move(fn));
    }

    void
    postCross(std::uint32_t src, std::uint32_t dst, Tick when,
              int priority, std::function<void()> fn)
    {
        model.postCross(src, dst, when, priority, std::move(fn));
    }

    void
    run()
    {
        model.runUntilQuiescent(
            [this](std::uint32_t s, Tick when, int priority) {
                observed[s].push_back(Observed{when, priority, 0});
            });
    }

    /** Model-side (when, priority) execution order, per shard. */
    std::vector<std::vector<Observed>> observed{kShards};

  private:
    ModelParallel model;
};

} // namespace

TEST(ParallelSchedulerStress, MatchesReferenceModelOnMillionEvents)
{
    constexpr std::uint64_t kPerShard = 250'000;
    constexpr std::uint64_t kSeed = 0xC0FFEE;

    RealAdapter real(1, false);
    const auto got = runStress(real, kPerShard, kSeed);
    ModelAdapter model;
    const auto want = runStress(model, kPerShard, kSeed);

    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < kShards; ++s) {
        ASSERT_EQ(got[s].size(), want[s].size()) << "shard " << s;
        total += got[s].size();
        for (std::size_t i = 0; i < got[s].size(); ++i)
            ASSERT_TRUE(got[s][i] == want[s][i])
                << "shard " << s << " diverged at event " << i
                << ": scheduler ran id " << got[s][i].id << " at tick "
                << got[s][i].when << ", model ran id " << want[s][i].id
                << " at tick " << want[s][i].when;
    }
    EXPECT_EQ(total, kShards * kPerShard);
    EXPECT_EQ(real.scheduler().executed(), total);
}

TEST(ParallelSchedulerStress, ThreadCountInvariantOnMillionEvents)
{
    constexpr std::uint64_t kPerShard = 250'000;
    constexpr std::uint64_t kSeed = 0xD15EA5E;

    RealAdapter one(1, true);
    const auto base = runStress(one, kPerShard, kSeed);

    for (const std::uint32_t threads : {2u, 4u, 8u}) {
        RealAdapter many(threads, true);
        const auto got = runStress(many, kPerShard, kSeed);
        for (std::uint32_t s = 0; s < kShards; ++s) {
            ASSERT_EQ(got[s].size(), base[s].size())
                << threads << " threads, shard " << s;
            for (std::size_t i = 0; i < got[s].size(); ++i)
                ASSERT_TRUE(got[s][i] == base[s][i])
                    << threads << " threads, shard " << s
                    << " diverged at event " << i;
        }
        EXPECT_EQ(many.scheduler().fingerprint(),
                  one.scheduler().fingerprint())
            << threads << " threads";
        EXPECT_EQ(many.scheduler().mergedFingerprint(),
                  one.scheduler().mergedFingerprint())
            << threads << " threads";
        EXPECT_EQ(many.scheduler().executed(), one.scheduler().executed())
            << threads << " threads";
        EXPECT_EQ(many.scheduler().now(), one.scheduler().now())
            << threads << " threads";
    }
}

TEST(ParallelScheduler, CrossPostsDeliverInCanonicalOrder)
{
    // Two sources post to one destination at the same tick: the drain
    // must order by (when, priority, srcShard, srcSeq) regardless of
    // post order, and the destination clock must never run backwards.
    sim::ParallelScheduler::Config cfg;
    cfg.numShards = 3;
    cfg.numThreads = 1;
    cfg.lookahead = 100;
    sim::ParallelScheduler sched(cfg);

    std::vector<int> order;
    sched.shard(1).schedule(0, [&sched, &order] {
        const Tick when = sched.shard(1).now() + 100;
        sched.postCross(1, 0, when, 0, [&order] { order.push_back(10); });
        sched.postCross(1, 0, when, -1, [&order] { order.push_back(11); });
    });
    sched.shard(2).schedule(0, [&sched, &order] {
        const Tick when = sched.shard(2).now() + 100;
        sched.postCross(2, 0, when, 0, [&order] { order.push_back(20); });
        sched.postCross(2, 0, when, 0, [&order] { order.push_back(21); });
    });
    sched.runUntilQuiescent();

    // Priority -1 first, then shard 1's remaining post, then shard 2's
    // two posts in their issue order.
    const std::vector<int> want = {11, 10, 20, 21};
    EXPECT_EQ(order, want);
    EXPECT_EQ(sched.executed(), 6u);
}

TEST(ParallelScheduler, ShardClocksResyncAtQuiescence)
{
    sim::ParallelScheduler::Config cfg;
    cfg.numShards = 2;
    cfg.numThreads = 2;
    cfg.lookahead = 10;
    sim::ParallelScheduler sched(cfg);

    // Shard 0 runs far ahead of shard 1.
    sched.shard(0).schedule(5000, [] {});
    sched.shard(1).schedule(7, [] {});
    sched.runUntilQuiescent();
    EXPECT_EQ(sched.shard(0).now(), sched.shard(1).now());
    EXPECT_EQ(sched.now(), Tick{5000});

    // A post-quiescence super-step (the BSP barrier pattern) must be
    // able to schedule at the resynchronized clock on every shard.
    sched.shard(1).schedule(sched.now(), [] {});
    sched.runUntilQuiescent();
    EXPECT_EQ(sched.executed(), 3u);
}

TEST(ParallelGuard, MaxEventsCapsTheWholeRun)
{
    // Every shard queue counts only its own events. A ceiling that the
    // run exceeds but no single shard does must still trip at a window
    // barrier, on any thread count, and a run within it must not.
    graph::UniformParams p;
    p.numVertices = 1024;
    p.numEdges = 8192;
    p.maxWeight = 64;
    p.seed = 5;
    const graph::Csr g = graph::generateUniform(p);
    auto run = [&g](std::uint32_t threads, std::uint64_t max_events) {
        core::NovaConfig cfg = shardedConfig(threads);
        cfg.numGpns = 4;
        cfg.maxEvents = max_events;
        core::NovaSystem system(cfg);
        const auto map =
            graph::randomMapping(g.numVertices(), cfg.totalPes(), 9);
        workloads::SsspProgram prog(0);
        return system.run(prog, g, map);
    };
    const auto total =
        static_cast<std::uint64_t>(run(1, 0).extra.at("sim.events"));

    const std::string bundle = "test_parallel_crash_bundle.txt";
    sim::crash::setBundlePath(bundle);
    for (const std::uint32_t threads : {1u, 2u}) {
        EXPECT_NO_THROW(run(threads, total)) << threads << " threads";
        EXPECT_THROW(run(threads, total / 2), sim::PanicError)
            << threads << " threads";
    }
    std::remove(bundle.c_str());
    sim::crash::setBundlePath("");
}
