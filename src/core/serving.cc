#include "core/serving.hh"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <utility>

#include "core/system.hh"
#include "graph/partition.hh"
#include "sim/checkpoint.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "workloads/queries.hh"

namespace nova::core
{

const char *
queryKindName(QueryKind kind)
{
    switch (kind) {
      case QueryKind::MsBfs:
        return "msbfs";
      case QueryKind::Ppr:
        return "ppr";
      case QueryKind::P2pSssp:
        return "p2p";
    }
    return "?";
}

namespace
{

constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t fnvPrime = 0x100000001b3ULL;

std::uint64_t
fnvFold(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= fnvPrime;
    }
    return h;
}

/** Vertices each tenant's traffic concentrates on (cache-hot skew). */
constexpr std::uint64_t hotSetSize = 4;

/** One query in flight on a PE group. */
struct Inflight
{
    std::uint64_t idx = 0; ///< arrival index
    sim::Tick startedAt = 0;
    sim::Tick finishAt = 0;
    sim::Tick serviceTicks = 0;
    std::uint64_t digest = 0;
    std::uint32_t batchSize = 1;
};

/** One PE group: a server slot of `gpnsPerGroup` GPNs. */
struct GroupSlot
{
    bool busy = false;
    std::uint32_t tenant = 0;
    std::vector<Inflight> members; ///< ascending finishAt
};

/** Per-tenant scheduler and accounting state. */
struct TenantState
{
    explicit TenantState(const std::string &group_name)
        : group(group_name)
    {
        group.addScalar("offered", &offeredStat);
        group.addScalar("served", &servedStat);
        group.addScalar("shed", &shedStat);
        latency.registerIn(group, "latency");
    }

    std::deque<std::uint64_t> pending; ///< queued arrival indices
    std::uint32_t inflight = 0;        ///< dispatched, not completed
    std::uint64_t offered = 0;
    std::uint64_t served = 0;
    std::uint64_t shedCount = 0;

    sim::stats::Group group;
    sim::stats::Scalar offeredStat, servedStat, shedStat;
    sim::stats::Quantiles latency; ///< ticks, completion order
};

} // namespace

struct ServingSystem::Impl
{
    Impl(const ServingConfig &config, const graph::Csr &graph)
        : cfg(config), g(graph),
          map(graph::VertexMapping::interleave(
              graph.numVertices(),
              config.gpnsPerGroup * NovaConfig{}.pesPerGpn)),
          root("serve")
    {
        root.addScalar("offered", &offeredStat);
        root.addScalar("served", &servedStat);
        root.addScalar("shed", &shedStat);
        root.addScalar("batches", &batchesStat);
        latencyAll.registerIn(root, "latency");
        queueDepth.registerIn(root, "queue_depth");
        batchSize.registerIn(root, "batch_size");
        for (std::uint32_t t = 0; t < cfg.tenants; ++t) {
            tenants.push_back(std::make_unique<TenantState>(
                "tenant" + std::to_string(t)));
            root.addChild(&tenants.back()->group);
        }
        groups.resize(cfg.groups);

        // Per-tenant hot sets: the handful of vertices a tenant's
        // queries favour (pinned by the campaign seed, independent of
        // the arrival stream).
        hotSets.resize(cfg.tenants);
        for (std::uint32_t t = 0; t < cfg.tenants; ++t) {
            sim::Rng rng(cfg.seed ^
                         (0xB0115EEDULL + t * 0x9e3779b97f4a7c15ULL));
            for (std::uint64_t i = 0; i < hotSetSize; ++i)
                hotSets[t].push_back(static_cast<graph::VertexId>(
                    rng.nextBounded(g.numVertices())));
        }

        arrivals = sim::generateArrivals(cfg.arrivals, cfg.seed,
                                         cfg.tenants, numQueryKinds,
                                         cfg.duration);
    }

    /** @{ @name Campaign state (checkpointed) */
    const ServingConfig &cfg;
    const graph::Csr &g;
    std::vector<sim::Arrival> arrivals;
    std::vector<std::unique_ptr<TenantState>> tenants;
    std::vector<GroupSlot> groups;
    std::uint64_t arrivalCursor = 0; ///< next arrival not yet enqueued
    std::uint64_t completed = 0;
    std::uint64_t completedAtLastCkpt = 0;
    std::uint64_t batches = 0;
    std::uint64_t offeredTotal = 0;
    std::uint64_t shedTotal = 0;
    std::uint32_t rrCursor = 0; ///< round-robin admission cursor
    sim::Tick makespan = 0;
    std::uint64_t fp = fnvOffset;
    bool halted = false;
    /** @} */

    sim::EventQueue evq;
    std::vector<QueryRecord> recs;
    std::vector<std::vector<graph::VertexId>> hotSets;
    graph::VertexMapping map;
    sim::Tick resumeTick = 0;
    bool resumed = false;

    sim::stats::Group root;
    sim::stats::Scalar offeredStat, servedStat, shedStat, batchesStat;
    sim::stats::Quantiles latencyAll; ///< all tenants, completion order
    sim::stats::Quantiles queueDepth; ///< sampled at each enqueue
    sim::stats::Quantiles batchSize;  ///< per dispatch

    /** Host-side memo of engine runs (simulated time is unaffected:
     *  a hit is charged the same service ticks as a fresh run). */
    std::map<std::string, std::pair<sim::Tick, std::uint64_t>> memo;

    /** Completions run before arrivals (0) and retries (1) of the
     *  same tick, in ascending group index — a total order that a
     *  resumed campaign can reconstruct exactly. */
    static int groupPriority(std::uint32_t grp)
    {
        return -1000 + static_cast<int>(grp);
    }

    void
    scheduleArrival(std::uint64_t i)
    {
        if (i >= arrivals.size())
            return;
        evq.schedule(arrivals[i].at, [this, i] { onArrival(i); });
    }

    /**
     * Maintain the retry invariant: after every event, each tenant
     * queue head whose batch window has not expired has a retry event
     * pending at its expiry. Stale retries (the head moved on) are
     * no-ops, so duplicates are harmless and a resumed campaign can
     * re-derive the live set from queue heads alone.
     */
    void
    scheduleWindowRetries()
    {
        for (std::uint32_t t = 0; t < cfg.tenants; ++t) {
            TenantState &ten = *tenants[t];
            if (ten.pending.empty())
                continue;
            const std::uint64_t head = ten.pending.front();
            const sim::Tick expiry =
                sim::tickAdd(arrivals[head].at, cfg.batchWindow);
            if (expiry <= evq.now())
                continue;
            evq.schedule(expiry, [this, t, head] {
                if (halted)
                    return;
                TenantState &tn = *tenants[t];
                if (tn.pending.empty() || tn.pending.front() != head)
                    return; // stale: the head moved on
                tryAdmit();
            }, 1);
        }
    }

    void
    onArrival(std::uint64_t i)
    {
        if (halted)
            return;
        arrivalCursor = i + 1;
        scheduleArrival(i + 1);

        const sim::Arrival &a = arrivals[i];
        TenantState &ten = *tenants[a.tenant];
        ++offeredTotal;
        ++ten.offered;
        if (ten.pending.size() >= cfg.queueCap) {
            // Overload shedding: the tenant's backlog is full. The
            // drop is part of the campaign's observable behaviour, so
            // it joins the records and the fingerprint.
            ++ten.shedCount;
            ++shedTotal;
            QueryRecord rec;
            rec.id = i;
            rec.tenant = a.tenant;
            rec.kind = static_cast<QueryKind>(a.kind);
            rec.arrivedAt = a.at;
            rec.shed = true;
            recs.push_back(rec);
            fp = fnvFold(fp, i);
            fp = fnvFold(fp, (std::uint64_t(a.tenant) << 32) | 0x5EDull);
            fp = fnvFold(fp, a.at);
            return;
        }
        ten.pending.push_back(i);
        queueDepth.sample(ten.pending.size());
        tryAdmit();
    }

    /** True when tenant t's queue head may be dispatched now. */
    bool
    headDispatchable(const TenantState &ten) const
    {
        const sim::Arrival &head = arrivals[ten.pending.front()];
        if (evq.now() >= sim::tickAdd(head.at, cfg.batchWindow))
            return true; // waited long enough
        if (ten.pending.size() >= cfg.queueCap)
            return true; // backpressure: drain now
        std::uint32_t same_kind = 0;
        for (const std::uint64_t idx : ten.pending)
            if (arrivals[idx].kind == head.kind &&
                ++same_kind >= cfg.batchMax)
                return true; // a full batch is ready
        return false;
    }

    bool
    eligible(const TenantState &ten) const
    {
        return !ten.pending.empty() &&
               ten.inflight < cfg.quotaPerTenant &&
               headDispatchable(ten);
    }

    /** Deficit-free round robin: tenants take turns at whole batches. */
    void
    tryAdmit()
    {
        for (;;) {
            std::uint32_t grp = 0;
            while (grp < cfg.groups && groups[grp].busy)
                ++grp;
            if (grp >= cfg.groups)
                break; // all PE groups busy
            std::uint32_t chosen = cfg.tenants;
            for (std::uint32_t k = 0; k < cfg.tenants; ++k) {
                const std::uint32_t t = (rrCursor + k) % cfg.tenants;
                if (eligible(*tenants[t])) {
                    chosen = t;
                    break;
                }
            }
            if (chosen >= cfg.tenants)
                break; // nothing admissible
            dispatch(chosen, popBatch(chosen), grp);
            rrCursor = (chosen + 1) % cfg.tenants;
        }
        scheduleWindowRetries();
    }

    /** Pop up to batchMax same-kind requests (FIFO) off the queue. */
    std::vector<std::uint64_t>
    popBatch(std::uint32_t t)
    {
        TenantState &ten = *tenants[t];
        const std::uint32_t kind =
            arrivals[ten.pending.front()].kind;
        const std::uint32_t limit =
            std::min(cfg.batchMax,
                     cfg.quotaPerTenant - ten.inflight);
        std::vector<std::uint64_t> batch;
        std::deque<std::uint64_t> keep;
        for (const std::uint64_t idx : ten.pending) {
            if (batch.size() < limit && arrivals[idx].kind == kind)
                batch.push_back(idx);
            else
                keep.push_back(idx);
        }
        ten.pending.swap(keep);
        return batch;
    }

    void
    dispatch(std::uint32_t t, const std::vector<std::uint64_t> &batch,
             std::uint32_t grp)
    {
        std::uint32_t busy_others = 0;
        for (const GroupSlot &s : groups)
            busy_others += s.busy ? 1 : 0;

        GroupSlot &slot = groups[grp];
        slot.busy = true;
        slot.tenant = t;
        const sim::Tick start = evq.now();
        // The batch shares one context-setup charge, then its queries
        // run back to back on the group; concurrent activity on other
        // groups inflates service time (shared-bandwidth contention).
        sim::Tick cum = cfg.setupTicks;
        for (const std::uint64_t idx : batch) {
            const auto [ticks, digest] = runQuery(idx);
            const sim::Tick inflated = sim::tickAdd(
                ticks,
                sim::tickMul(ticks, cfg.contentionPct * busy_others) /
                    100);
            cum = sim::tickAdd(cum, inflated);
            Inflight q;
            q.idx = idx;
            q.startedAt = start;
            q.finishAt = sim::tickAdd(start, cum);
            q.serviceTicks = inflated;
            q.digest = digest;
            q.batchSize = static_cast<std::uint32_t>(batch.size());
            slot.members.push_back(q);
        }
        ++batches;
        batchSize.sample(batch.size());
        tenants[t]->inflight +=
            static_cast<std::uint32_t>(batch.size());
        evq.schedule(slot.members.back().finishAt,
                     [this, grp] { onCompletion(grp); },
                     groupPriority(grp));
    }

    void
    onCompletion(std::uint32_t grp)
    {
        if (halted)
            return;
        GroupSlot &slot = groups[grp];
        NOVA_ASSERT(slot.busy, "completion on an idle group");
        TenantState &ten = *tenants[slot.tenant];
        for (const Inflight &q : slot.members) {
            const sim::Arrival &a = arrivals[q.idx];
            QueryRecord rec;
            rec.id = q.idx;
            rec.tenant = a.tenant;
            rec.kind = static_cast<QueryKind>(a.kind);
            rec.arrivedAt = a.at;
            rec.startedAt = q.startedAt;
            rec.finishedAt = q.finishAt;
            rec.serviceTicks = q.serviceTicks;
            rec.digest = q.digest;
            rec.batchSize = q.batchSize;
            recs.push_back(rec);

            const sim::Tick lat = sim::tickSub(q.finishAt, a.at);
            ten.latency.sample(lat);
            latencyAll.sample(lat);
            ++ten.served;
            fp = fnvFold(fp, q.idx);
            fp = fnvFold(fp, (std::uint64_t(a.tenant) << 32) | a.kind);
            fp = fnvFold(fp, a.at);
            fp = fnvFold(fp, q.startedAt);
            fp = fnvFold(fp, q.finishAt);
            fp = fnvFold(fp, q.digest);
            makespan = std::max(makespan, q.finishAt);
        }
        completed += slot.members.size();
        ten.inflight -=
            static_cast<std::uint32_t>(slot.members.size());
        slot.busy = false;
        slot.members.clear();

        if (cfg.stopAfter > 0 && completed >= cfg.stopAfter) {
            // Stop the campaign here: the checkpoint captures the
            // still-in-flight batches of other groups; remaining
            // events drain as no-ops and a resume replays them.
            halted = true;
            writeCheckpoint();
            return;
        }
        if (cfg.ckptEvery > 0 &&
            completed - completedAtLastCkpt >= cfg.ckptEvery)
            writeCheckpoint();
        tryAdmit();
    }

    /** @{ @name Query materialization and execution */

    graph::VertexId
    pickVertex(std::uint32_t tenant, std::uint64_t sel) const
    {
        const graph::VertexId v_count = g.numVertices();
        if (v_count <= 1)
            return 0;
        if ((sel & 3) != 0) // 75 % of draws hit the tenant's hot set
            return hotSets[tenant][(sel >> 2) % hotSetSize];
        return static_cast<graph::VertexId>((sel >> 2) % v_count);
    }

    QueryRequest
    buildRequest(std::uint64_t idx) const
    {
        const sim::Arrival &a = arrivals[idx];
        QueryRequest q;
        q.id = idx;
        q.tenant = a.tenant;
        q.kind = static_cast<QueryKind>(a.kind);
        switch (q.kind) {
          case QueryKind::MsBfs: {
            const std::uint64_t seeds = 1 + a.paramB % 3;
            for (std::uint64_t j = 0; j < seeds; ++j)
                q.seeds.push_back(pickVertex(
                    a.tenant,
                    a.paramA ^ ((j + 1) * 0x9e3779b97f4a7c15ULL)));
            std::sort(q.seeds.begin(), q.seeds.end());
            q.seeds.erase(
                std::unique(q.seeds.begin(), q.seeds.end()),
                q.seeds.end());
            break;
          }
          case QueryKind::Ppr:
            q.seeds.push_back(pickVertex(a.tenant, a.paramA));
            break;
          case QueryKind::P2pSssp: {
            q.seeds.push_back(pickVertex(a.tenant, a.paramA));
            const graph::VertexId v_count = g.numVertices();
            q.target = static_cast<graph::VertexId>(
                (a.paramB >> 2) % v_count);
            if (v_count > 1 && q.target == q.seeds[0])
                q.target = (q.target + 1) % v_count;
            break;
          }
        }
        return q;
    }

    /**
     * Run one query on the cycle model and return (service ticks,
     * answer digest). Identical parameter sets are memoized host-side
     * only — the simulated machine has no result cache, so a repeat
     * query is charged the same service time as a fresh one.
     */
    std::pair<sim::Tick, std::uint64_t>
    runQuery(std::uint64_t idx)
    {
        const QueryRequest q = buildRequest(idx);
        std::string key = queryKindName(q.kind);
        for (const graph::VertexId s : q.seeds) {
            key += ':';
            key += std::to_string(s);
        }
        key += '>';
        key += std::to_string(q.target);
        const auto hit = memo.find(key);
        if (hit != memo.end())
            return hit->second;

        NovaConfig ecfg = NovaConfig{}.scaled(cfg.scale);
        ecfg.numGpns = cfg.gpnsPerGroup;
        // Sharded mode regardless of thread count: serial (threads=0)
        // and sharded schedules tick differently, and the determinism
        // contract requires the report to be thread-count-free.
        ecfg.threads = std::max<std::uint32_t>(1, cfg.threads);
        NovaSystem sys(ecfg);

        workloads::RunResult r;
        std::uint64_t digest = fnvOffset;
        switch (q.kind) {
          case QueryKind::MsBfs: {
            workloads::MultiSourceBfsProgram prog(q.seeds);
            r = sys.run(prog, g, map);
            break;
          }
          case QueryKind::Ppr: {
            workloads::PersonalizedPageRankProgram prog(
                q.seeds[0], 0.85, 1e-9, cfg.pprIters);
            r = sys.run(prog, g, map);
            for (const double rank : prog.rank())
                digest = fnvFold(digest,
                                 workloads::packDouble(rank));
            break;
          }
          case QueryKind::P2pSssp: {
            workloads::PointToPointSsspProgram prog(q.seeds[0],
                                                    q.target);
            r = sys.run(prog, g, map);
            digest = fnvFold(digest, q.target);
            break;
          }
        }
        for (const std::uint64_t p : r.props)
            digest = fnvFold(digest, p);
        digest = fnvFold(digest, r.ticks);

        const std::pair<sim::Tick, std::uint64_t> out{r.ticks, digest};
        memo.emplace(std::move(key), out);
        return out;
    }

    /** @} */

    /** @{ @name Checkpoint / resume */

    void
    writeCheckpoint()
    {
        completedAtLastCkpt = completed;
        const std::string tmp = cfg.ckptPath + ".tmp";
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            sim::fatal("cannot write serving checkpoint ", tmp);
        sim::CheckpointWriter w(os);
        w.section("serving_meta");
        w.u64("version", 1);
        w.str("graph", cfg.graphSpec);
        w.u64("vertices", g.numVertices());
        w.str("arrivals", cfg.arrivals.describe());
        w.u64("seed", cfg.seed);
        w.u64("tenants", cfg.tenants);
        w.u64("groups", cfg.groups);
        w.u64("gpns_per_group", cfg.gpnsPerGroup);
        w.u64("duration", cfg.duration);
        w.u64("quota", cfg.quotaPerTenant);
        w.u64("queue_cap", cfg.queueCap);
        w.u64("batch_max", cfg.batchMax);
        w.u64("batch_window", cfg.batchWindow);
        w.u64("setup_ticks", cfg.setupTicks);
        w.u64("contention_pct", cfg.contentionPct);
        w.f64("scale", cfg.scale);
        w.u64("ppr_iters", cfg.pprIters);

        w.section("serving_state");
        w.u64("now", evq.now());
        w.u64("arrival_cursor", arrivalCursor);
        w.u64("completed", completed);
        w.u64("batches", batches);
        w.u64("offered", offeredTotal);
        w.u64("shed", shedTotal);
        w.u64("rr_cursor", rrCursor);
        w.u64("makespan", makespan);
        w.u64("fingerprint", fp);
        w.u64vec("queue_depth", queueDepth.samples());
        w.u64vec("batch_size", batchSize.samples());
        w.u64vec("latency_all", latencyAll.samples());

        for (std::uint32_t t = 0; t < cfg.tenants; ++t) {
            const TenantState &ten = *tenants[t];
            w.section("tenant" + std::to_string(t));
            w.u64vec("pending", {ten.pending.begin(),
                                 ten.pending.end()});
            w.u64("offered", ten.offered);
            w.u64("served", ten.served);
            w.u64("shed", ten.shedCount);
            w.u64vec("latency", ten.latency.samples());
        }

        for (std::uint32_t grp = 0; grp < cfg.groups; ++grp) {
            const GroupSlot &slot = groups[grp];
            w.section("group" + std::to_string(grp));
            w.u64("busy", slot.busy ? 1 : 0);
            w.u64("tenant", slot.tenant);
            std::vector<std::uint64_t> idxs, starts, fins, svc, digs,
                sizes;
            for (const Inflight &q : slot.members) {
                idxs.push_back(q.idx);
                starts.push_back(q.startedAt);
                fins.push_back(q.finishAt);
                svc.push_back(q.serviceTicks);
                digs.push_back(q.digest);
                sizes.push_back(q.batchSize);
            }
            w.u64vec("idx", idxs);
            w.u64vec("started", starts);
            w.u64vec("finish", fins);
            w.u64vec("service", svc);
            w.u64vec("digest", digs);
            w.u64vec("size", sizes);
        }
        w.finish();
        if (!w.good())
            sim::fatal("stream error writing serving checkpoint ", tmp);
        os.close();
        sim::commitCheckpointDurable(tmp, cfg.ckptPath,
                                     cfg.keepGenerations);
    }

    void
    expectU64(sim::CheckpointReader &r, const std::string &key,
              std::uint64_t want, const char *what)
    {
        const std::uint64_t got = r.u64(key);
        if (got != want)
            sim::fatal("serving checkpoint ", what, " mismatch: file "
                       "has ", got, ", campaign has ", want);
    }

    void
    restore()
    {
        const sim::GenerationPick pick = sim::newestValidCheckpoint(
            cfg.resumePath, cfg.keepGenerations);
        if (pick.path.empty())
            sim::fatal("no valid serving checkpoint at ",
                       cfg.resumePath);
        std::ifstream is(pick.path);
        if (!is)
            sim::fatal("cannot open serving checkpoint ", pick.path);
        sim::CheckpointReader r(is);
        r.section("serving_meta");
        expectU64(r, "version", 1, "format version");
        if (r.str("graph") != cfg.graphSpec)
            sim::fatal("serving checkpoint belongs to another graph");
        expectU64(r, "vertices", g.numVertices(), "graph size");
        if (r.str("arrivals") != cfg.arrivals.describe())
            sim::fatal("serving checkpoint has another arrival spec");
        expectU64(r, "seed", cfg.seed, "seed");
        expectU64(r, "tenants", cfg.tenants, "tenant count");
        expectU64(r, "groups", cfg.groups, "group count");
        expectU64(r, "gpns_per_group", cfg.gpnsPerGroup, "group size");
        expectU64(r, "duration", cfg.duration, "duration");
        expectU64(r, "quota", cfg.quotaPerTenant, "quota");
        expectU64(r, "queue_cap", cfg.queueCap, "queue cap");
        expectU64(r, "batch_max", cfg.batchMax, "batch max");
        expectU64(r, "batch_window", cfg.batchWindow, "batch window");
        expectU64(r, "setup_ticks", cfg.setupTicks, "setup ticks");
        expectU64(r, "contention_pct", cfg.contentionPct,
                  "contention");
        if (r.f64("scale") != cfg.scale)
            sim::fatal("serving checkpoint has another engine scale");
        expectU64(r, "ppr_iters", cfg.pprIters, "PPR budget");

        r.section("serving_state");
        resumeTick = r.u64("now");
        arrivalCursor = r.u64("arrival_cursor");
        completed = r.u64("completed");
        completedAtLastCkpt = completed;
        batches = r.u64("batches");
        offeredTotal = r.u64("offered");
        shedTotal = r.u64("shed");
        rrCursor = static_cast<std::uint32_t>(r.u64("rr_cursor"));
        makespan = r.u64("makespan");
        fp = r.u64("fingerprint");
        queueDepth.setSamples(r.u64vec("queue_depth"));
        batchSize.setSamples(r.u64vec("batch_size"));
        latencyAll.setSamples(r.u64vec("latency_all"));

        for (std::uint32_t t = 0; t < cfg.tenants; ++t) {
            TenantState &ten = *tenants[t];
            r.section("tenant" + std::to_string(t));
            const std::vector<std::uint64_t> pend =
                r.u64vec("pending");
            ten.pending.assign(pend.begin(), pend.end());
            ten.offered = r.u64("offered");
            ten.served = r.u64("served");
            ten.shedCount = r.u64("shed");
            ten.latency.setSamples(r.u64vec("latency"));
            ten.inflight = 0; // rebuilt from the group slots below
        }

        for (std::uint32_t grp = 0; grp < cfg.groups; ++grp) {
            GroupSlot &slot = groups[grp];
            r.section("group" + std::to_string(grp));
            slot.busy = r.u64("busy") != 0;
            slot.tenant = static_cast<std::uint32_t>(r.u64("tenant"));
            const auto idxs = r.u64vec("idx");
            const auto starts = r.u64vec("started");
            const auto fins = r.u64vec("finish");
            const auto svc = r.u64vec("service");
            const auto digs = r.u64vec("digest");
            const auto sizes = r.u64vec("size");
            slot.members.clear();
            for (std::size_t i = 0; i < idxs.size(); ++i) {
                Inflight q;
                q.idx = idxs[i];
                q.startedAt = starts[i];
                q.finishAt = fins[i];
                q.serviceTicks = svc[i];
                q.digest = digs[i];
                q.batchSize =
                    static_cast<std::uint32_t>(sizes[i]);
                slot.members.push_back(q);
            }
            if (slot.busy)
                tenants[slot.tenant]->inflight +=
                    static_cast<std::uint32_t>(slot.members.size());
        }
        r.finish();
        resumed = true;
    }

    /** @} */

    void
    runCampaign()
    {
        if (!cfg.resumePath.empty())
            restore();
        if (resumed) {
            evq.fastForward(resumeTick);
            // Re-derive the pending event set from the restored
            // state: in-flight completions, the arrival chain, and
            // the live window retries (see scheduleWindowRetries).
            for (std::uint32_t grp = 0; grp < cfg.groups; ++grp)
                if (groups[grp].busy)
                    evq.schedule(groups[grp].members.back().finishAt,
                                 [this, grp] { onCompletion(grp); },
                                 groupPriority(grp));
            scheduleArrival(arrivalCursor);
            scheduleWindowRetries();
            // Checkpoints are written mid-completion-handler, after
            // the accounting but before its closing tryAdmit().
            // Replay that admission pass first — before any same-tick
            // completion of another group — or heads that became
            // dispatchable at the restore tick would wait for the
            // next event instead of dispatching immediately.
            evq.schedule(resumeTick, [this] { tryAdmit(); }, -2000);
        } else {
            scheduleArrival(0);
        }
        evq.run();
        // Sync the derived stat scalars with the final sample sets.
        offeredStat.set(static_cast<double>(offeredTotal));
        servedStat.set(static_cast<double>(completed));
        shedStat.set(static_cast<double>(shedTotal));
        batchesStat.set(static_cast<double>(batches));
        latencyAll.snapshot();
        queueDepth.snapshot();
        batchSize.snapshot();
        for (std::uint32_t t = 0; t < cfg.tenants; ++t) {
            TenantState &ten = *tenants[t];
            ten.offeredStat.set(static_cast<double>(ten.offered));
            ten.servedStat.set(static_cast<double>(ten.served));
            ten.shedStat.set(static_cast<double>(ten.shedCount));
            ten.latency.snapshot();
        }
    }
};

namespace
{

void
appendU64(std::string &out, const char *key, std::uint64_t v,
          bool comma = true)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "  \"%s\": %llu%s\n", key,
                  static_cast<unsigned long long>(v),
                  comma ? "," : "");
    out += buf;
}

void
appendQuantiles(std::string &out, const char *key,
                const sim::stats::Quantiles &q, const char *indent,
                bool comma)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "%s\"%s\": {\"count\": %llu, \"mean\": %llu, \"p50\": %llu, "
        "\"p95\": %llu, \"p99\": %llu, \"max\": %llu}%s\n",
        indent, key, static_cast<unsigned long long>(q.count()),
        static_cast<unsigned long long>(q.mean()),
        static_cast<unsigned long long>(q.percentile(50)),
        static_cast<unsigned long long>(q.percentile(95)),
        static_cast<unsigned long long>(q.percentile(99)),
        static_cast<unsigned long long>(q.max()),
        comma ? "," : "");
    out += buf;
}

/** Jain's fairness index over per-tenant served counts, x1000. */
std::uint64_t
jainX1000(const std::vector<std::uint64_t> &served)
{
    std::uint64_t sum = 0, sum_sq = 0;
    for (const std::uint64_t x : served) {
        sum += x;
        sum_sq += x * x;
    }
    if (sum == 0)
        return 1000; // nothing served anywhere: trivially fair
    return sum * sum * 1000 / (served.size() * sum_sq);
}

} // namespace

ServingSystem::ServingSystem(ServingConfig config, const graph::Csr &g)
    : cfg(std::move(config))
{
    if (cfg.tenants == 0)
        sim::fatal("serving needs at least one tenant");
    if (cfg.groups == 0 || cfg.groups > 64)
        sim::fatal("serving needs 1..64 PE groups");
    if (cfg.gpnsPerGroup == 0)
        sim::fatal("serving needs at least one GPN per group");
    if (cfg.quotaPerTenant == 0 || cfg.batchMax == 0 ||
        cfg.queueCap == 0)
        sim::fatal("serving quota, batch-max and queue-cap must be "
                   ">= 1");
    if (cfg.batchMax > cfg.quotaPerTenant)
        sim::fatal("batch-max (", cfg.batchMax, ") cannot exceed the "
                   "per-tenant quota (", cfg.quotaPerTenant, ")");
    if (g.numVertices() == 0)
        sim::fatal("serving needs a non-empty graph");
    impl = std::make_unique<Impl>(cfg, g);
}

ServingSystem::~ServingSystem() = default;

const std::vector<QueryRecord> &
ServingSystem::records() const
{
    return impl->recs;
}

const sim::stats::Group &
ServingSystem::stats() const
{
    return impl->root;
}

ServingReport
ServingSystem::run()
{
    impl->runCampaign();

    ServingReport rep;
    rep.fingerprint = impl->fp;
    rep.offered = impl->offeredTotal;
    rep.served = impl->completed;
    rep.shed = impl->shedTotal;
    rep.batches = impl->batches;
    rep.makespan = impl->makespan;
    rep.stopped = impl->halted;
    std::uint64_t pending = 0;
    for (const auto &ten : impl->tenants)
        pending += ten->pending.size() + ten->inflight;
    rep.pendingAtEnd = pending;

    // Canonical report text: every quantity is simulated (ticks,
    // counts) or derived from simulated quantities, so the bytes are
    // identical across host thread counts and queue backends.
    std::string &out = rep.json;
    out += "{\n";
    out += "  \"schema\": \"nova-serving-1\",\n";
    out += "  \"graph\": \"" + cfg.graphSpec + "\",\n";
    out += "  \"arrivals\": \"" + cfg.arrivals.describe() + "\",\n";
    appendU64(out, "seed", cfg.seed);
    appendU64(out, "tenants", cfg.tenants);
    appendU64(out, "groups", cfg.groups);
    appendU64(out, "gpns_per_group", cfg.gpnsPerGroup);
    appendU64(out, "duration_ticks", cfg.duration);
    appendU64(out, "quota", cfg.quotaPerTenant);
    appendU64(out, "queue_cap", cfg.queueCap);
    appendU64(out, "batch_max", cfg.batchMax);
    appendU64(out, "batch_window_ticks", cfg.batchWindow);
    appendU64(out, "offered", rep.offered);
    appendU64(out, "served", rep.served);
    appendU64(out, "shed", rep.shed);
    appendU64(out, "pending_at_end", rep.pendingAtEnd);
    appendU64(out, "batches", rep.batches);
    appendU64(out, "makespan_ticks", rep.makespan);
    {
        const double secs = sim::ticksToSeconds(
            std::max<sim::Tick>(rep.makespan, 1));
        char buf[64];
        std::snprintf(buf, sizeof(buf),
                      "  \"served_qps\": %.6f,\n",
                      static_cast<double>(rep.served) / secs);
        out += buf;
    }
    appendQuantiles(out, "latency_ticks", impl->latencyAll, "  ",
                    true);
    appendQuantiles(out, "queue_depth", impl->queueDepth, "  ", true);
    appendQuantiles(out, "batch_size", impl->batchSize, "  ", true);
    {
        std::vector<std::uint64_t> served_per_tenant;
        for (const auto &ten : impl->tenants)
            served_per_tenant.push_back(ten->served);
        appendU64(out, "fairness_jain_x1000",
                  jainX1000(served_per_tenant));
    }
    out += "  \"per_tenant\": [\n";
    for (std::uint32_t t = 0; t < cfg.tenants; ++t) {
        const TenantState &ten = *impl->tenants[t];
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "    {\"tenant\": %u, \"offered\": %llu, "
                      "\"served\": %llu, \"shed\": %llu, "
                      "\"pending\": %llu,\n",
                      t, static_cast<unsigned long long>(ten.offered),
                      static_cast<unsigned long long>(ten.served),
                      static_cast<unsigned long long>(ten.shedCount),
                      static_cast<unsigned long long>(
                          ten.pending.size() + ten.inflight));
        out += buf;
        appendQuantiles(out, "latency_ticks", ten.latency, "     ",
                        false);
        out += t + 1 < cfg.tenants ? "    },\n" : "    }\n";
    }
    out += "  ],\n";
    out += rep.stopped ? "  \"stopped\": true,\n"
                       : "  \"stopped\": false,\n";
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf),
                      "  \"fingerprint\": \"0x%llx\"\n",
                      static_cast<unsigned long long>(
                          rep.fingerprint));
        out += buf;
    }
    out += "}\n";
    return rep;
}

} // namespace nova::core
