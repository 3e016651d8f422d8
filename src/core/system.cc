#include "core/system.hh"

#include <map>
#include <memory>
#include <optional>

#include "core/mgu.hh"
#include "core/mpu.hh"
#include "core/vmu.hh"
#include "noc/sharded.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/profile.hh"

namespace nova::core
{

using workloads::ExecMode;
using workloads::RunResult;
using workloads::VertexProgram;

namespace
{

/** All per-PE components of one run, bundled for lifetime management. */
struct PeParts
{
    std::unique_ptr<VertexStore> store;
    std::unique_ptr<mem::MemorySystem> vertexMem;
    std::unique_ptr<mem::DirectMappedCache> cache;
    std::unique_ptr<Vmu> vmu;
    std::unique_ptr<Mpu> mpu;
    std::unique_ptr<Mgu> mgu;
};

/**
 * The instantiated accelerator of one run, driven in five phases:
 *
 *  - build (the constructor): the scheduler — one serial event queue,
 *    or with threads >= 1 one conservative-PDES shard per GPN
 *    (docs/PARALLEL.md) — the fault injector and watchdog when
 *    configured, the fabric, the per-GPN edge memories and the per-PE
 *    store, vertex memory, cache, VMU, MPU and MGU;
 *  - inject: hand activations to their owning PE's VMU;
 *  - drain: run the scheduler until no event or message is left;
 *  - barrier: apply a BSP program to every vertex reduced into since
 *    the last barrier and gather the next frontier;
 *  - collect: final properties, work counters and statistics.
 *
 * Every component reads vertex placement through the caller's mapping.
 */
class Machine
{
  public:
    Machine(const NovaConfig &config, VertexProgram &prog,
            const graph::Csr &graph, const graph::VertexMapping &mapping);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Activate every vertex of `vs`; false when `vs` is empty. */
    bool inject(const std::vector<graph::VertexId> &vs);

    /** Start the MGUs pulling; after the initial injection. */
    void start();

    void drain();

    /** The barrier ending a superstep; refills the next frontier. */
    void barrier(std::vector<graph::VertexId> &next);

    RunResult collect(std::uint64_t supersteps);

    /** The queue whose recent-event ring a crash bundle reports. */
    const sim::EventQueue &
    crashQueue() const
    {
        return sharded ? sched->shard(0) : *serialEq;
    }

    /** Every component's statistics, for crash bundles. */
    void dumpStats(std::ostream &os) const;

  private:
    sim::EventQueue &
    queueFor(std::uint32_t pe)
    {
        return sharded ? sched->shard(pe / cfg.pesPerGpn) : *serialEq;
    }

    RunCounters &
    countersFor(std::uint32_t pe)
    {
        return counters[sharded ? pe / cfg.pesPerGpn : 0];
    }

    void armWatchdog();

    const NovaConfig &cfg;
    VertexProgram &program;
    const graph::Csr &g;
    const graph::VertexMapping &map;
    const std::uint32_t numPes;
    const bool sharded;

    std::optional<sim::FaultInjector> injector;
    std::optional<sim::EventQueue> serialEq;
    std::optional<sim::ParallelScheduler> sched;
    /** Per GPN when sharded (each shard updates only its own). */
    std::vector<RunCounters> counters;
    std::unique_ptr<noc::Network> net;
    noc::ShardedHierarchicalNetwork *shardedNet = nullptr;
    std::vector<std::unique_ptr<mem::MemorySystem>> edgeMems;
    std::vector<PeParts> pes;
    std::optional<sim::Watchdog> watchdog;
};

Machine::Machine(const NovaConfig &config, VertexProgram &prog,
                 const graph::Csr &graph, const graph::VertexMapping &mapping)
    : cfg(config), program(prog), g(graph), map(mapping),
      numPes(cfg.totalPes()), sharded(cfg.threads > 0),
      counters(sharded ? cfg.numGpns : 1)
{
    // The fault injector must exist before any component registers its
    // injection points, and the schedule must be installed before that.
    // With no schedule the injector is absent entirely, so a fault-free
    // run is bit-identical to a build without the subsystem.
    if (!cfg.faultSchedule.empty()) {
        injector.emplace(cfg.faultSeed);
        injector->configure(cfg.faultSchedule);
    }

    // The sharded model is deterministic in its own right —
    // fingerprints depend on the shard count (numGpns), never on the
    // thread count.
    if (sharded) {
        if (injector)
            sim::fatal("--threads does not support fault injection (the "
                       "injector's draw order is schedule-global)");
        if (cfg.watchdogIntervalEvents > 0)
            sim::fatal("--threads does not support the watchdog (its "
                       "probes read cross-shard state mid-window)");
        if (cfg.fabric != noc::FabricKind::Hierarchical)
            sim::fatal("--threads requires the hierarchical fabric (the "
                       "conservative lookahead comes from the crossbar)");
    }

    noc::NetworkConfig ncfg = cfg.net;
    ncfg.numPes = numPes;
    ncfg.pesPerGpn = cfg.pesPerGpn;

    if (sharded) {
        sim::ParallelScheduler::Config pcfg;
        pcfg.numShards = cfg.numGpns;
        pcfg.numThreads = cfg.threads;
        pcfg.lookahead =
            noc::ShardedHierarchicalNetwork::minCrossLookahead(ncfg);
        pcfg.deterministicMerge = cfg.deterministicMerge;
        pcfg.impl = sim::EventQueue::defaultImpl();
        sched.emplace(pcfg);
    } else {
        serialEq.emplace();
    }

    // Each run reports its own host-time profile, not the process's.
    if (sim::profile::Registry::armed())
        sim::profile::Registry::instance().reset();

    // Attach the injector to the serial queue so components register
    // their injection points. Shard queues never carry an injector
    // (the sharded fabric asserts that).
    if (injector && !sharded)
        serialEq->setFaultInjector(&*injector);
    if (cfg.maxTicks > 0 || cfg.maxEvents > 0) {
        if (sharded)
            sched->setGuard(cfg.maxTicks, cfg.maxEvents);
        else
            serialEq->setGuard(cfg.maxTicks, cfg.maxEvents);
    }

    if (sharded) {
        auto sn = std::make_unique<noc::ShardedHierarchicalNetwork>(
            "net", *sched, ncfg);
        shardedNet = sn.get();
        net = std::move(sn);
    } else {
        net = noc::makeNetwork(cfg.fabric, "net", *serialEq, ncfg);
    }

    for (std::uint32_t gpn = 0; gpn < cfg.numGpns; ++gpn) {
        edgeMems.push_back(std::make_unique<mem::MemorySystem>(
            "gpn" + std::to_string(gpn) + ".edgeMem",
            queueFor(gpn * cfg.pesPerGpn), cfg.edgeMem,
            cfg.edgeChannelsPerGpn));
    }

    pes.resize(numPes);
    for (std::uint32_t pe = 0; pe < numPes; ++pe) {
        const std::string base = "pe" + std::to_string(pe);
        sim::EventQueue &peq = queueFor(pe);
        PeParts &p = pes[pe];
        p.store = std::make_unique<VertexStore>(g, map, pe, cfg, program);
        p.vertexMem = std::make_unique<mem::MemorySystem>(
            base + ".vertexMem", peq, cfg.vertexMem, 1);
        mem::CacheConfig ccfg;
        ccfg.sizeBytes = cfg.cacheBytesPerPe;
        ccfg.lineBytes = cfg.blockBytes;
        ccfg.numMshrs = cfg.cacheMshrs;
        ccfg.hitLatency = cfg.clockPeriod();
        p.cache = std::make_unique<mem::DirectMappedCache>(
            base + ".cache", peq, ccfg, *p.vertexMem);
        p.vmu = std::make_unique<Vmu>(base + ".vmu", peq, cfg, *p.store,
                                      *p.vertexMem, program);
        p.mpu = std::make_unique<Mpu>(base + ".mpu", peq, cfg, pe,
                                      *p.store, *p.cache, *net, *p.vmu,
                                      program, map, countersFor(pe));
        p.mgu = std::make_unique<Mgu>(base + ".mgu", peq, cfg, pe,
                                      *p.store,
                                      *edgeMems[pe / cfg.pesPerGpn], *net,
                                      *p.vmu, program, map,
                                      countersFor(pe));
    }
    for (auto &p : pes)
        p.mpu->startup();

    if (cfg.watchdogIntervalEvents > 0)
        armWatchdog();
}

/**
 * Hang supervision: progress heartbeats must advance while events
 * execute; pending gauges must be zero whenever the queue drains. The
 * check runs out-of-band, so arming it never perturbs the event-order
 * fingerprint.
 */
void
Machine::armWatchdog()
{
    watchdog.emplace(*serialEq, cfg.watchdogIntervalEvents,
                     static_cast<std::uint32_t>(cfg.watchdogStrikes));
    watchdog->addProgress("messagesProcessed", [this] {
        std::uint64_t n = 0;
        for (const RunCounters &c : counters)
            n += c.messagesProcessed;
        return n;
    });
    watchdog->addProgress("messagesGenerated", [this] {
        std::uint64_t n = 0;
        for (const RunCounters &c : counters)
            n += c.messagesGenerated;
        return n;
    });
    watchdog->addProgress("memAccesses", [this] {
        double n = 0;
        for (const auto &p : pes)
            n += p.vertexMem->channel(0).numAccesses.value();
        for (const auto &em : edgeMems)
            for (std::uint32_t c = 0; c < em->numChannels(); ++c)
                n += em->channel(c).numAccesses.value();
        return static_cast<std::uint64_t>(n);
    });
    watchdog->addPending("net.inFlight",
                         [this] { return net->messagesInNetwork(); });
    watchdog->addPending("vmu.pendingWork", [this] {
        std::uint64_t n = 0;
        for (const auto &p : pes)
            n += p.vmu->pendingWork();
        return n;
    });
    watchdog->addPending("mpu.stalled", [this] {
        std::uint64_t n = 0;
        for (const auto &p : pes)
            n += p.mpu->pendingWork();
        return n;
    });
    watchdog->addPending("mgu.inFlight", [this] {
        std::uint64_t n = 0;
        for (const auto &p : pes)
            n += p.mgu->pendingWork();
        return n;
    });
    watchdog->arm();
}

bool
Machine::inject(const std::vector<graph::VertexId> &vs)
{
    for (const graph::VertexId v : vs) {
        PeParts &p = pes[map.partOf(v)];
        const graph::VertexId local = map.localOf(v);
        p.vmu->activate(local,
                        program.propagateValue(p.store->cur(local), v));
    }
    return !vs.empty();
}

void
Machine::start()
{
    for (auto &p : pes)
        p.mgu->startup();
}

void
Machine::drain()
{
    if (sharded) {
        sched->runUntilQuiescent();
        // Quiescence is the one point the per-shard stat deltas may
        // fold into the reportable Scalars.
        shardedNet->foldStats();
    } else {
        serialEq->run();
    }
    NOVA_ASSERT(net->messagesInNetwork() == 0,
                "drained with messages in flight");
    if (watchdog)
        watchdog->checkQuiescence();
}

void
Machine::barrier(std::vector<graph::VertexId> &next)
{
    next.clear();
    for (auto &p : pes) {
        VertexStore &store = *p.store;
        for (const graph::VertexId local : p.mpu->touched()) {
            const graph::VertexId v = store.globalOf(local);
            const workloads::BarrierOutcome out =
                program.bspApply(store.cur(local), store.acc(local), v);
            store.cur(local) = out.newCur;
            store.acc(local) = out.newAcc;
            if (out.active)
                next.push_back(v);
        }
        p.mpu->clearTouched();
    }
}

void
Machine::dumpStats(std::ostream &os) const
{
    net->statistics().dump(os);
    for (const auto &em : edgeMems)
        em->statistics().dump(os);
    for (const auto &p : pes) {
        p.cache->statistics().dump(os);
        p.vertexMem->statistics().dump(os);
        p.vmu->statistics().dump(os);
        p.mpu->statistics().dump(os);
        p.mgu->statistics().dump(os);
    }
}

RunResult
Machine::collect(std::uint64_t supersteps)
{
    // Invariants at quiescence: nothing tracked, buffered or queued.
    for (auto &p : pes) {
        NOVA_ASSERT(p.vmu->pendingWork() == 0,
                    "quiescent with pending VMU work");
    }

    RunResult result;
    result.bspIterations = supersteps;
    result.ticks = sharded ? sched->now() : serialEq->now();
    result.props.resize(g.numVertices());
    for (graph::VertexId v = 0; v < g.numVertices(); ++v)
        result.props[v] = pes[map.partOf(v)].store->cur(map.localOf(v));
    for (const RunCounters &c : counters) {
        result.messagesProcessed += c.messagesProcessed;
        result.messagesGenerated += c.messagesGenerated;
    }

    double coalesced = 0;
    double useful_prefetch = 0, wasteful_prefetch = 0;
    double cache_hits = 0, cache_misses = 0, cache_writebacks = 0;
    double vmem_read = 0, vmem_written = 0;
    double send_stalls = 0, direct_inserts = 0, spills = 0;
    double fifo_writes = 0, reconciliations = 0;
    double verts_propagated = 0, mshr_rejects = 0;
    double vmem_qlat = 0, vmem_qn = 0;
    for (auto &p : pes) {
        coalesced += p.vmu->coalescedUpdates.value() +
                     p.mpu->bspCoalesced.value();
        useful_prefetch += p.vmu->usefulPrefetchBytes.value();
        wasteful_prefetch += p.vmu->wastefulPrefetchBytes.value();
        cache_hits += p.cache->hits.value();
        cache_misses += p.cache->misses.value();
        cache_writebacks += p.cache->writebacks.value();
        vmem_read += p.vertexMem->channel(0).bytesRead.value();
        vmem_written += p.vertexMem->channel(0).bytesWritten.value();
        send_stalls += p.mgu->sendStalls.value();
        direct_inserts += p.vmu->directInserts.value();
        spills += p.vmu->spills.value();
        fifo_writes += p.vmu->fifoWrites.value();
        reconciliations += p.vmu->counterReconciliations.value();
        verts_propagated += p.mgu->verticesPropagated.value();
        mshr_rejects += p.cache->mshrRejects.value();
        vmem_qlat += p.vertexMem->channel(0).totalQueueLatency.value();
        vmem_qn += p.vertexMem->channel(0).numAccesses.value();
    }
    result.coalescedUpdates = static_cast<std::uint64_t>(coalesced);

    double edge_bytes = 0, edge_peak = 0;
    for (auto &em : edgeMems) {
        edge_bytes += em->totalBytes();
        edge_peak += em->peakBytesPerSec();
    }
    const double seconds = result.seconds();
    auto &extra = result.extra;
    extra["vertexMem.bytesRead"] = vmem_read;
    extra["vertexMem.bytesWritten"] = vmem_written;
    extra["vertexMem.usefulPrefetchBytes"] = useful_prefetch;
    extra["vertexMem.wastefulPrefetchBytes"] = wasteful_prefetch;
    extra["vertexMem.peakBytesPerSec"] =
        cfg.vertexMem.peakBytesPerSec() * numPes;
    extra["edgeMem.bytes"] = edge_bytes;
    extra["edgeMem.peakBytesPerSec"] = edge_peak;
    extra["edgeMem.utilization"] =
        seconds > 0 && edge_peak > 0 ? edge_bytes / (edge_peak * seconds)
                                     : 0;
    extra["mgu.sendStalls"] = send_stalls;
    extra["mgu.verticesPropagated"] = verts_propagated;
    extra["vmu.directInserts"] = direct_inserts;
    extra["vmu.spills"] = spills;
    extra["vmu.fifoWrites"] = fifo_writes;
    extra["vmu.counterReconciliations"] = reconciliations;
    extra["cache.mshrRejects"] = mshr_rejects;
    extra["vertexMem.avgQueueLatency"] =
        vmem_qn > 0 ? vmem_qlat / vmem_qn : 0;
    double edge_qlat = 0, edge_qn = 0;
    double edge_rowhits = 0, edge_rowmiss = 0;
    for (auto &em : edgeMems) {
        for (std::uint32_t c = 0; c < em->numChannels(); ++c) {
            edge_qlat += em->channel(c).totalQueueLatency.value();
            edge_qn += em->channel(c).numAccesses.value();
            edge_rowhits += em->channel(c).rowHits.value();
            edge_rowmiss += em->channel(c).rowMisses.value();
        }
    }
    extra["edgeMem.rowHits"] = edge_rowhits;
    extra["edgeMem.rowMisses"] = edge_rowmiss;
    extra["edgeMem.avgQueueLatency"] =
        edge_qn > 0 ? edge_qlat / edge_qn : 0;
    extra["net.sendRejects"] = net->sendRejects.value();
    extra["cache.hits"] = cache_hits;
    extra["cache.misses"] = cache_misses;
    extra["cache.writebacks"] = cache_writebacks;
    extra["net.messages"] = net->messagesSent.value();
    extra["net.bytes"] = net->bytesSent.value();
    extra["net.crossGpnMessages"] = net->crossGpnMessages.value();
    extra["net.selfMessages"] = net->selfMessages.value();
    extra["net.avgLatency"] =
        net->messagesSent.value() + net->selfMessages.value() > 0
            ? net->totalLatency.value() /
                  (net->messagesSent.value() + net->selfMessages.value())
            : 0;
    extra["sim.events"] = static_cast<double>(
        sharded ? sched->executed() : serialEq->executed());
    // Low 52 bits only: the fingerprint must round-trip through the
    // double-valued stats map without losing information. In sharded
    // mode this is the combined per-shard fold — thread-count
    // invariant, but a different (coarser-grained) quantity than the
    // serial fingerprint.
    constexpr std::uint64_t fp_mask = (std::uint64_t(1) << 52) - 1;
    extra["sim.fingerprint"] = static_cast<double>(
        (sharded ? sched->fingerprint() : serialEq->fingerprint()) &
        fp_mask);
    if (sharded) {
        extra["sim.shards"] = static_cast<double>(cfg.numGpns);
        if (cfg.deterministicMerge)
            extra["sim.mergedFingerprint"] = static_cast<double>(
                sched->mergedFingerprint() & fp_mask);
    }

    if (sim::profile::Registry::armed()) {
        const auto rows = sim::profile::Registry::instance().report(true);
        for (const auto &row : rows) {
            const std::string base = "profile." + row.kind;
            extra[base + ".calls"] = static_cast<double>(row.calls);
            extra[base + ".total_ns"] =
                static_cast<double>(row.totalNanos);
            extra[base + ".self_ns"] = static_cast<double>(row.selfNanos);
        }
    }

    // Fault-injection outcome (only when an injector was armed, so a
    // fault-free result map is unchanged from earlier builds).
    if (injector) {
        double dram_ecc = 0, dram_rereads = 0, dram_txn = 0;
        double cache_ecc = 0, scrubs = 0, recomputes = 0;
        for (auto &p : pes) {
            dram_ecc += p.vertexMem->channel(0).eccCorrected.value();
            dram_rereads += p.vertexMem->channel(0).eccRereads.value();
            dram_txn += p.vertexMem->channel(0).txnRetries.value();
            cache_ecc += p.cache->eccCorrected.value();
            scrubs += p.vmu->spillScrubs.value();
            recomputes += p.mpu->reduceRecomputes.value();
        }
        for (auto &em : edgeMems) {
            for (std::uint32_t c = 0; c < em->numChannels(); ++c) {
                dram_ecc += em->channel(c).eccCorrected.value();
                dram_rereads += em->channel(c).eccRereads.value();
                dram_txn += em->channel(c).txnRetries.value();
            }
        }
        extra["fault.injected"] =
            static_cast<double>(injector->totalFired());
        extra["fault.dram.eccCorrected"] = dram_ecc;
        extra["fault.dram.eccRereads"] = dram_rereads;
        extra["fault.dram.txnRetries"] = dram_txn;
        extra["fault.cache.eccCorrected"] = cache_ecc;
        extra["fault.vmu.spillScrubs"] = scrubs;
        extra["fault.mpu.reduceRecomputes"] = recomputes;
        extra["fault.net.flitsDropped"] = net->flitsDropped.value();
        extra["fault.net.flitsCorrupted"] = net->flitsCorrupted.value();
        extra["fault.net.flitsDuplicated"] = net->flitsDuplicated.value();
        extra["fault.net.retries"] = net->retries.value();
        extra["fault.net.retryBackoffTicks"] =
            net->retryBackoffTicks.value();
        extra["fault.net.duplicatesDiscarded"] =
            net->duplicatesDiscarded.value();
        extra["fault.net.reorders"] = net->reorders.value();
        extra["fault.recoveries"] = dram_ecc + dram_rereads + dram_txn +
                                    cache_ecc + scrubs + recomputes +
                                    net->retries.value() +
                                    net->duplicatesDiscarded.value();
    }
    return result;
}

/** A BSP program's scheduled activations, keyed by superstep. */
class LevelSchedule
{
  public:
    LevelSchedule(const VertexProgram &program, const graph::Csr &g)
    {
        if (program.mode() != ExecMode::Bsp)
            return;
        for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
            const std::int64_t k = program.scheduledActivation(v);
            if (k >= 0)
                due[k].push_back(v);
        }
    }

    /** Remove and return the activations due at `superstep`. */
    std::vector<graph::VertexId>
    take(std::uint64_t superstep)
    {
        std::vector<graph::VertexId> vs;
        if (auto node = due.extract(static_cast<std::int64_t>(superstep)))
            vs = std::move(node.mapped());
        return vs;
    }

    bool empty() const { return due.empty(); }

  private:
    std::map<std::int64_t, std::vector<graph::VertexId>> due;
};

} // namespace

RunResult
NovaSystem::run(VertexProgram &program, const graph::Csr &g,
                const graph::VertexMapping &map)
{
    if (map.parts() != cfg.totalPes())
        sim::fatal("mapping has ", map.parts(), " parts but the system has ",
                   cfg.totalPes(), " PEs");
    program.bind(g);

    Machine m(cfg, program, g, map);
    // A PanicError escaping the run gets the recent-event ring and a
    // stats snapshot written while the components are still alive.
    sim::crash::Scope crash_scope(
        &m.crashQueue(), [&m](std::ostream &os) { m.dumpStats(os); });
    LevelSchedule schedule(program, g);
    std::uint64_t iter = 0;
    std::vector<graph::VertexId> next;
    try {
        m.inject(program.initialActive());
        m.inject(schedule.take(0));
        m.start();
        for (;;) {
            m.drain();
            if (program.mode() != ExecMode::Bsp)
                break;
            m.barrier(next);
            if (++iter >= program.maxIterations())
                break;
            // Skip over empty supersteps while later scheduled
            // activations remain.
            const bool due = m.inject(schedule.take(iter));
            if (!m.inject(next) && !due && schedule.empty())
                break;
        }
    } catch (const sim::PanicError &e) {
        sim::crash::writeBundle(e.what());
        throw;
    }
    return m.collect(iter);
}

} // namespace nova::core
