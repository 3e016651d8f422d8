#include "sim/parallel.hh"

#include <algorithm>
#include <tuple>

#include "sim/logging.hh"
#include "sim/profile.hh"

namespace nova::sim
{

ParallelScheduler::ParallelScheduler(const Config &config)
    : cfg(config), mailboxes(config.numShards)
{
    NOVA_ASSERT(cfg.numShards > 0, "scheduler needs at least one shard");
    NOVA_ASSERT(cfg.numThreads > 0, "scheduler needs at least one thread");
    NOVA_ASSERT(cfg.lookahead > 0, "conservative PDES needs lookahead > 0");
    shards.reserve(cfg.numShards);
    for (std::uint32_t s = 0; s < cfg.numShards; ++s)
        shards.push_back(std::make_unique<Shard>(cfg.impl));

    // Lane 0 is the caller; extra lanes get dedicated workers. More
    // threads than shards would idle, so clamp.
    const std::uint32_t lanes =
        std::min(cfg.numThreads, cfg.numShards);
    for (std::uint32_t lane = 1; lane < lanes; ++lane)
        workers.emplace_back([this, lane] { workerLoop(lane); });
}

ParallelScheduler::~ParallelScheduler()
{
    {
        std::lock_guard<std::mutex> l(poolMutex);
        stopping = true;
    }
    cvStart.notify_all();
    for (auto &w : workers)
        w.join();
    // Free any undrained mailbox nodes (e.g. unwinding after a panic).
    for (auto &box : mailboxes) {
        MailNode *n = box.head.exchange(nullptr,
                                        std::memory_order_acquire);
        while (n) {
            std::unique_ptr<MailNode> own(n);
            n = own->next;
        }
    }
}

void
ParallelScheduler::postCross(std::uint32_t src_shard,
                             std::uint32_t dst_shard, Tick when,
                             int priority, EventFn fn)
{
    NOVA_ASSERT(src_shard < numShards() && dst_shard < numShards());
    auto node = std::make_unique<MailNode>();
    node->when = when;
    node->priority = priority;
    node->srcShard = src_shard;
    node->srcSeq = shards[src_shard]->postSeq++;
    node->fn = std::move(fn);

    Mailbox &box = mailboxes[dst_shard];
    MailNode *n = node.release();
    n->next = box.head.load(std::memory_order_relaxed);
    while (!box.head.compare_exchange_weak(n->next, n,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
    }
}

void
ParallelScheduler::setGuard(Tick max_tick, std::uint64_t max_events)
{
    for (auto &sh : shards)
        sh->q.setGuard(max_tick, max_events);
}

/**
 * Empty every mailbox into its destination queue. Runs on the
 * coordinator between windows; the canonical sort makes the
 * destination's sequence assignment independent of which thread posted
 * first in host time.
 */
void
ParallelScheduler::drainMailboxes()
{
    std::vector<std::unique_ptr<MailNode>> batch;
    for (std::uint32_t dst = 0; dst < numShards(); ++dst) {
        MailNode *n =
            mailboxes[dst].head.exchange(nullptr,
                                         std::memory_order_acquire);
        if (!n)
            continue;
        batch.clear();
        while (n) {
            batch.emplace_back(n);
            n = batch.back()->next;
        }
        std::sort(batch.begin(), batch.end(),
                  [](const std::unique_ptr<MailNode> &a,
                     const std::unique_ptr<MailNode> &b) {
                      return std::make_tuple(a->when, a->priority,
                                             a->srcShard, a->srcSeq) <
                             std::make_tuple(b->when, b->priority,
                                             b->srcShard, b->srcSeq);
                  });
        EventQueue &q = shards[dst]->q;
        for (auto &m : batch) {
            NOVA_ASSERT(m->when >= q.now(),
                        "cross-shard post below the lookahead horizon");
            q.schedule(m->when, std::move(m->fn), m->priority);
        }
    }
}

void
ParallelScheduler::runLaneShards(std::uint32_t lane, Tick until)
{
    const std::uint32_t stride = std::min(cfg.numThreads, numShards());
    for (std::uint32_t s = lane; s < numShards(); s += stride)
        shards[s]->q.run(until);
}

void
ParallelScheduler::noteWorkerError()
{
    std::lock_guard<std::mutex> l(poolMutex);
    if (!workerError)
        workerError = std::current_exception();
}

void
ParallelScheduler::workerLoop(std::uint32_t lane)
{
    // Shard execution is never profiled: the profiler's scope spine is
    // single-threaded (the coordinator suppresses its own lane too, so
    // results do not depend on the thread count).
    profile::Registry::ThreadSuppressor suppress;
    std::uint64_t seen = 0;
    for (;;) {
        Tick until = 0;
        {
            std::unique_lock<std::mutex> l(poolMutex);
            cvStart.wait(l, [this, &seen] {
                return stopping || generation != seen;
            });
            if (stopping)
                return;
            seen = generation;
            until = windowUntil;
        }
        // A panic inside a shard (guard trip, assertion) must reach the
        // coordinator, not std::terminate this thread.
        try {
            runLaneShards(lane, until);
        } catch (...) { // novalint:allow(silent-catch) rethrown on coordinator
            noteWorkerError();
        }
        {
            std::lock_guard<std::mutex> l(poolMutex);
            --remaining;
        }
        cvDone.notify_one();
    }
}

std::uint64_t
ParallelScheduler::runWindow(Tick until)
{
    std::uint64_t before = 0;
    for (const auto &sh : shards)
        before += sh->q.executed();

    if (workers.empty()) {
        profile::Registry::ThreadSuppressor suppress;
        for (auto &sh : shards)
            sh->q.run(until);
    } else {
        {
            std::lock_guard<std::mutex> l(poolMutex);
            windowUntil = until;
            remaining = static_cast<std::uint32_t>(workers.size());
            ++generation;
        }
        cvStart.notify_all();
        {
            profile::Registry::ThreadSuppressor suppress;
            try {
                runLaneShards(0, until);
            } catch (...) { // novalint:allow(silent-catch) rethrown below
                noteWorkerError();
            }
        }
        {
            std::unique_lock<std::mutex> l(poolMutex);
            cvDone.wait(l, [this] { return remaining == 0; });
            if (workerError) {
                std::exception_ptr err = workerError;
                workerError = nullptr;
                std::rethrow_exception(err);
            }
        }
    }

    std::uint64_t after = 0;
    for (const auto &sh : shards)
        after += sh->q.executed();
    return after - before;
}

/**
 * Fold the finished window's per-shard traces, merged by the canonical
 * (when, priority, shard, seq) order, into the global fingerprint.
 * Windows never overlap in simulated time, so concatenating per-window
 * merges reproduces the total order of the whole run.
 */
void
ParallelScheduler::mergeWindow()
{
    struct Tagged
    {
        RecentEvent ev;
        std::uint32_t shard;
    };
    std::vector<Tagged> all;
    for (std::uint32_t s = 0; s < numShards(); ++s) {
        for (const RecentEvent &ev : shards[s]->trace)
            all.push_back(Tagged{ev, s});
        shards[s]->trace.clear();
    }
    std::sort(all.begin(), all.end(),
              [](const Tagged &a, const Tagged &b) {
                  return std::make_tuple(a.ev.when, a.ev.priority, a.shard,
                                         a.ev.seq) <
                         std::make_tuple(b.ev.when, b.ev.priority, b.shard,
                                         b.ev.seq);
              });
    constexpr std::uint64_t prime = 0x100000001b3ULL; // FNV-1a
    for (const Tagged &t : all) {
        mergedFp = (mergedFp ^ t.ev.when) * prime;
        mergedFp = (mergedFp ^ static_cast<std::uint64_t>(
                                   static_cast<std::int64_t>(
                                       t.ev.priority))) *
                   prime;
        mergedFp = (mergedFp ^ t.shard) * prime;
        mergedFp = (mergedFp ^ t.ev.seq) * prime;
    }
}

std::uint64_t
ParallelScheduler::runUntilQuiescent()
{
    if (cfg.deterministicMerge) {
        for (auto &sh : shards) {
            sh->trace.clear();
            sh->q.setTraceSink(&sh->trace);
        }
    }

    std::uint64_t total = 0;
    for (;;) {
        drainMailboxes();
        Tick global_next = maxTick;
        bool any = false;
        for (const auto &sh : shards) {
            Tick t = 0;
            if (sh->q.peekNextTick(t) && (!any || t < global_next)) {
                global_next = t;
                any = true;
            }
        }
        if (!any)
            break;
        const Tick horizon = tickAdd(global_next, cfg.lookahead);
        total += runWindow(horizon - 1); // run(until) is inclusive
        if (cfg.deterministicMerge)
            mergeWindow();
    }

    if (cfg.deterministicMerge)
        for (auto &sh : shards)
            sh->q.setTraceSink(nullptr);

    // Resynchronize shard clocks so the next super-step's injections
    // (and their cross-shard consequences) share one time base.
    Tick m = 0;
    for (const auto &sh : shards)
        m = std::max(m, sh->q.now());
    for (auto &sh : shards)
        sh->q.fastForward(m);
    return total;
}

Tick
ParallelScheduler::now() const
{
    Tick m = 0;
    for (const auto &sh : shards)
        m = std::max(m, sh->q.now());
    return m;
}

std::uint64_t
ParallelScheduler::executed() const
{
    std::uint64_t n = 0;
    for (const auto &sh : shards)
        n += sh->q.executed();
    return n;
}

std::uint64_t
ParallelScheduler::fingerprint() const
{
    constexpr std::uint64_t prime = 0x100000001b3ULL; // FNV-1a
    std::uint64_t fp = 0xcbf29ce484222325ULL;
    for (const auto &sh : shards) {
        fp = (fp ^ sh->q.fingerprint()) * prime;
        fp = (fp ^ sh->q.executed()) * prime;
        fp = (fp ^ sh->q.now()) * prime;
    }
    return fp;
}

} // namespace nova::sim
