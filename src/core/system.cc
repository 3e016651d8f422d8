#include "core/system.hh"

#include <fstream>
#include <map>
#include <memory>
#include <optional>

#include "core/mgu.hh"
#include "core/mpu.hh"
#include "core/vmu.hh"
#include "noc/sharded.hh"
#include "sim/checkpoint.hh"
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

/** Degraded-mode outcome counters; they ride in the checkpoint. */
struct FailoverCounts
{
    std::uint64_t gpnsFailed = 0;
    std::uint64_t migratedVertices = 0;
    std::uint64_t linksDown = 0;
    std::uint64_t spillRegionsLost = 0;
    std::uint64_t shardCrashes = 0;
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
 *    the last barrier, gather the next frontier and apply the hard
 *    faults that have come due;
 *  - collect: final properties, work counters and statistics.
 *
 * Checkpoints are written and restored between barrier and inject,
 * where the whole machine is plain data.
 */
class Machine
{
  public:
    Machine(const NovaConfig &config, const CheckpointPolicy &policy,
            VertexProgram &prog, const graph::Csr &graph,
            const graph::VertexMapping &mapping);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Activate every vertex of `vs`; false when `vs` is empty. */
    bool inject(const std::vector<graph::VertexId> &vs);

    /** Start the MGUs pulling; after the initial injection. */
    void start();

    void drain();

    /** The barrier ending superstep `iter`; refills the next frontier. */
    void barrier(std::uint64_t iter, std::vector<graph::VertexId> &next);

    RunResult collect(std::uint64_t supersteps);

    /**
     * Checkpoint the quiescent machine after the barrier of superstep
     * `iter`; `frontier` is the not-yet-injected activation set.
     */
    void writeCheckpoint(std::uint64_t iter,
                         const std::vector<graph::VertexId> &frontier);

    /**
     * Restore the newest valid checkpoint generation at the policy's
     * resume path. Fills `frontier` and returns the superstep the
     * checkpoint was written at.
     */
    std::uint64_t resume(std::vector<graph::VertexId> &frontier);

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

    /**
     * Apply hard fault `idx`. `replay` re-creates the degraded topology
     * during resume — state changes only: no checkpoint write, no
     * crash, no counter bumps (those are restored from the
     * checkpoint's own meta section).
     */
    void applyHardFault(std::size_t idx, bool replay, std::uint64_t iter,
                        const std::vector<graph::VertexId> &frontier);

    const NovaConfig &cfg;
    const CheckpointPolicy &ckpt;
    VertexProgram &program;
    const graph::Csr &g;
    const std::uint32_t numPes;
    const bool sharded;
    const bool bsp;

    /**
     * The run's own mutable copy of the placement: GPN failover
     * reassigns a dead GPN's vertices here, and every component reads
     * placement through it.
     */
    graph::VertexMapping liveMap;
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

    /**
     * Hard-fault (permanent failure) bookkeeping, one flag per
     * scheduled hard fault. It rides in the checkpoint's meta section
     * so a resumed run replays exactly the degraded topology the
     * checkpoint was written under, *before* the per-component state
     * (whose shapes depend on it) is restored.
     */
    std::vector<std::uint8_t> hardApplied;
    std::vector<std::uint8_t> deadGpn;
    FailoverCounts failover;
};

Machine::Machine(const NovaConfig &config, const CheckpointPolicy &policy,
                 VertexProgram &prog, const graph::Csr &graph,
                 const graph::VertexMapping &mapping)
    : cfg(config), ckpt(policy), program(prog), g(graph),
      numPes(cfg.totalPes()), sharded(cfg.threads > 0),
      bsp(prog.mode() == ExecMode::Bsp), liveMap(mapping),
      counters(sharded ? cfg.numGpns : 1), deadGpn(cfg.numGpns, 0)
{
    // The fault injector must exist before any component registers its
    // injection points, and the schedule must be installed before that.
    // With no schedule the injector is absent entirely, so a fault-free
    // run is bit-identical to a build without the subsystem.
    if (!cfg.faultSchedule.empty()) {
        injector.emplace(cfg.faultSeed);
        injector->configure(cfg.faultSchedule);
        hardApplied.assign(injector->hardFaults().size(), 0);
    }

    // The sharded model is deterministic in its own right —
    // fingerprints depend on the shard count (numGpns), never on the
    // thread count.
    if (sharded) {
        if (injector && injector->hasTransient())
            sim::fatal("--threads does not support transient fault "
                       "injection (the injector's draw order is "
                       "schedule-global); hard tick= kinds are fine");
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
    // their transient points. Shard queues never carry an injector
    // (the sharded fabric asserts that); hard faults don't need
    // opportunity points — the machine applies them at barriers.
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
        p.store = std::make_unique<VertexStore>(g, liveMap, pe, cfg,
                                                program);
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
                                      program, liveMap, countersFor(pe));
        p.mgu = std::make_unique<Mgu>(base + ".mgu", peq, cfg, pe,
                                      *p.store,
                                      *edgeMems[pe / cfg.pesPerGpn], *net,
                                      *p.vmu, program, liveMap,
                                      countersFor(pe));
    }
    for (auto &p : pes)
        p.mpu->startup();

    if (cfg.watchdogIntervalEvents > 0)
        armWatchdog();

    if (ckpt.any() && !bsp)
        sim::fatal("checkpoint/resume needs a BSP program; ",
                   program.name(), " runs asynchronously (its only "
                   "quiescent point is completion)");
    if (!hardApplied.empty() && !bsp)
        sim::fatal("hard faults apply at BSP barriers; ", program.name(),
                   " runs asynchronously (no global quiescent point to "
                   "fail over at)");
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
        PeParts &p = pes[liveMap.partOf(v)];
        const graph::VertexId local = liveMap.localOf(v);
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
Machine::barrier(std::uint64_t iter, std::vector<graph::VertexId> &next)
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

    // Permanent faults strike at the barrier — the only point of global
    // quiescence, where no vertex is buffered and no message is in
    // flight — in schedule order, once their tick threshold is reached.
    if (!hardApplied.empty()) {
        const sim::Tick t = sharded ? sched->now() : serialEq->now();
        for (std::size_t i = 0; i < hardApplied.size(); ++i)
            if (!hardApplied[i] && injector->hardFaults()[i].atTick <= t)
                applyHardFault(i, false, iter, next);
    }
}

void
Machine::applyHardFault(std::size_t idx, bool replay, std::uint64_t iter,
                        const std::vector<graph::VertexId> &frontier)
{
    const sim::HardFault &h = injector->hardFaults()[idx];
    hardApplied[idx] = 1;
    switch (h.kind) {
      case sim::HardFault::Kind::GpnDead: {
        if (h.target >= cfg.numGpns)
            sim::fatal("gpn.dead@gpn", h.target, " is out of range (",
                       cfg.numGpns, " GPNs)");
        if (deadGpn[h.target])
            break; // duplicate schedule entry; already dead
        deadGpn[h.target] = 1;
        std::vector<std::uint32_t> survivors;
        for (std::uint32_t pe = 0; pe < numPes; ++pe)
            if (!deadGpn[pe / cfg.pesPerGpn])
                survivors.push_back(pe);
        if (survivors.empty())
            sim::fatal("gpn.dead@gpn", h.target,
                       ": no surviving GPN to fail over to");
        // Deal the dead GPN's vertices round-robin onto the survivors
        // in ascending global order — a pure function of (mapping,
        // fault order), so a resumed run replays the identical layout.
        liveMap.materialize();
        std::vector<std::vector<AdoptedVertex>> adopted(numPes);
        std::uint64_t dealt = 0;
        for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
            const std::uint32_t pe = liveMap.partOf(v);
            if (pe / cfg.pesPerGpn != h.target)
                continue;
            VertexStore &dead = *pes[pe].store;
            const graph::VertexId local = liveMap.localOf(v);
            NOVA_ASSERT(!dead.isActiveNow(local) &&
                            dead.bufferCount(local) == 0,
                        "migrating a non-quiescent vertex");
            const std::uint32_t to = survivors[dealt % survivors.size()];
            ++dealt;
            adopted[to].push_back(
                AdoptedVertex{v, dead.cur(local), dead.acc(local)});
            liveMap.reassign(v, to);
        }
        for (const std::uint32_t pe : survivors) {
            if (adopted[pe].empty())
                continue;
            pes[pe].store->adoptVertices(g, adopted[pe]);
            pes[pe].vmu->onStoreGrown();
            pes[pe].mpu->onStoreGrown();
        }
        if (sharded)
            sched->retireShard(h.target, survivors.front() / cfg.pesPerGpn);
        if (!replay) {
            ++failover.gpnsFailed;
            failover.migratedVertices += dealt;
        }
        break;
      }
      case sim::HardFault::Kind::LinkDown:
        if (h.target >= cfg.numGpns)
            sim::fatal("noc.linkdown@gpn", h.target, " is out of range (",
                       cfg.numGpns, " GPNs)");
        net->setLinkDown(h.target);
        if (!replay)
            ++failover.linksDown;
        break;
      case sim::HardFault::Kind::SpillLoss:
        if (h.target >= numPes)
            sim::fatal("spill.loss@pe", h.target, " is out of range (",
                       numPes, " PEs)");
        pes[h.target].vmu->loseSpillRegion();
        if (!replay)
            ++failover.spillRegionsLost;
        break;
      case sim::HardFault::Kind::ShardCrash:
        if (replay)
            break; // the crash already happened pre-checkpoint
        ++failover.shardCrashes;
        // Record the crash as applied *inside* a forced checkpoint so
        // the restarted run resumes past this barrier instead of
        // crash-looping on it.
        if (ckpt.any())
            writeCheckpoint(iter, frontier);
        sim::panic("injected hard fault: shard.crash@gpn", h.target,
                   " at iteration ", iter);
    }
}

void
Machine::writeCheckpoint(std::uint64_t iter,
                         const std::vector<graph::VertexId> &frontier)
{
    // Atomic + durable: write <path>.tmp, fsync, rotate the generation
    // chain, rename into place. A crash mid-write can only lose the tmp
    // file, never an existing generation.
    const std::string tmp = ckpt.path + ".tmp";
    std::ofstream os(tmp, std::ios::trunc);
    if (!os)
        sim::fatal("cannot write checkpoint file ", tmp);
    sim::CheckpointWriter w(os);
    w.section("meta");
    w.str("engine", "nova");
    w.str("program", program.name());
    w.u64("vertices", g.numVertices());
    w.u64("pes", numPes);
    w.u64("iter", iter);
    w.str("faultSchedule", cfg.faultSchedule);
    w.u64("faultSeed", cfg.faultSeed);
    // Scheduler-mode marker: 0 = serial, else the shard count. Resume
    // requires the same mode and shard count; the host thread count is
    // free to differ (the sharded schedule is thread-count invariant).
    w.u64("shards", sharded ? cfg.numGpns : 0);
    w.u64vec("hardApplied", std::vector<std::uint64_t>(
                                hardApplied.begin(), hardApplied.end()));
    w.u64("gpnsFailed", failover.gpnsFailed);
    w.u64("migratedVertices", failover.migratedVertices);
    w.u64("linksDown", failover.linksDown);
    w.u64("spillRegionsLost", failover.spillRegionsLost);
    w.u64("shardCrashes", failover.shardCrashes);
    w.section("eventq");
    if (sharded) {
        for (std::uint32_t s = 0; s < cfg.numGpns; ++s) {
            sim::Tick tick = 0;
            std::uint64_t next_seq = 0, executed = 0, fp = 0;
            sched->shard(s).saveSchedulingState(tick, next_seq, executed,
                                                fp);
            const std::string sfx = std::to_string(s);
            w.u64("tick" + sfx, tick);
            w.u64("nextSeq" + sfx, next_seq);
            w.u64("executed" + sfx, executed);
            w.u64("fingerprint" + sfx, fp);
        }
        w.u64("mergedFingerprint", sched->mergedFingerprint());
    } else {
        sim::Tick tick = 0;
        std::uint64_t next_seq = 0, executed = 0, fp = 0;
        serialEq->saveSchedulingState(tick, next_seq, executed, fp);
        w.u64("tick", tick);
        w.u64("nextSeq", next_seq);
        w.u64("executed", executed);
        w.u64("fingerprint", fp);
    }
    w.section("counters");
    std::vector<std::uint64_t> processed, generated;
    for (const RunCounters &c : counters) {
        processed.push_back(c.messagesProcessed);
        generated.push_back(c.messagesGenerated);
    }
    if (sharded) {
        w.u64vec("messagesProcessed", processed);
        w.u64vec("messagesGenerated", generated);
    } else {
        w.u64("messagesProcessed", processed[0]);
        w.u64("messagesGenerated", generated[0]);
    }
    w.section("injector");
    w.u64("present", injector ? 1 : 0);
    if (injector)
        injector->saveState(w);
    w.section("program");
    program.saveCheckpoint(w);
    for (std::uint32_t pe = 0; pe < numPes; ++pe) {
        w.section("pe" + std::to_string(pe));
        pes[pe].store->saveState(w);
        pes[pe].vertexMem->saveState(w);
        pes[pe].cache->saveState(w);
        pes[pe].vmu->saveState(w);
        pes[pe].mpu->saveState(w);
        pes[pe].mgu->saveState(w);
    }
    for (std::uint32_t gpn = 0; gpn < cfg.numGpns; ++gpn) {
        w.section("edgeMem" + std::to_string(gpn));
        edgeMems[gpn]->saveState(w);
    }
    w.section("net");
    net->saveState(w);
    w.section("frontier");
    w.u64vec("nextActive",
             std::vector<std::uint64_t>(frontier.begin(), frontier.end()));
    w.finish();
    os.flush();
    if (!w.good() || !os)
        sim::fatal("writing checkpoint ", tmp, " failed");
    os.close();
    sim::commitCheckpointDurable(tmp, ckpt.path, ckpt.keepGenerations);
    sim::setCheckpointContext("gen 0 (" + ckpt.path + "), iter " +
                              std::to_string(iter));
}

std::uint64_t
Machine::resume(std::vector<graph::VertexId> &frontier)
{
    // Self-healing resume: walk the generation chain and restore from
    // the newest file that passes validation. A truncated or
    // bit-flipped newest generation falls back to the previous one
    // instead of killing the run.
    const sim::GenerationPick pick =
        sim::newestValidCheckpoint(ckpt.resumePath, ckpt.keepGenerations);
    if (pick.path.empty()) {
        std::string detail;
        for (const std::string &rej : pick.rejected)
            detail += "\n  " + rej;
        sim::fatal("no valid checkpoint generation at ", ckpt.resumePath,
                   " (keep=", ckpt.keepGenerations, "):", detail);
    }
    for (const std::string &rej : pick.rejected)
        sim::warn("checkpoint fallback: skipping ", rej);
    std::ifstream is(pick.path);
    if (!is)
        sim::fatal("cannot open checkpoint ", pick.path);
    sim::CheckpointReader r(is);
    r.section("meta");
    if (r.str("engine") != "nova")
        sim::fatal("checkpoint was not written by the nova engine");
    const std::string prog_name = r.str("program");
    if (prog_name != program.name())
        sim::fatal("checkpoint belongs to program '", prog_name,
                   "', not '", program.name(), "'");
    if (r.u64("vertices") != g.numVertices())
        sim::fatal("checkpoint graph size mismatch");
    if (r.u64("pes") != numPes)
        sim::fatal("checkpoint PE count mismatch");
    const std::uint64_t iter = r.u64("iter");
    if (r.str("faultSchedule") != cfg.faultSchedule)
        sim::fatal("checkpoint fault schedule mismatch (resume with "
                   "the same --faults)");
    if (r.u64("faultSeed") != cfg.faultSeed)
        sim::fatal("checkpoint fault seed mismatch");
    const std::uint64_t ck_shards = r.u64("shards");
    if (ck_shards != (sharded ? cfg.numGpns : 0))
        sim::fatal("checkpoint scheduler mode mismatch: written with ",
                   ck_shards == 0
                       ? std::string("the serial scheduler")
                       : std::to_string(ck_shards) + " shards",
                   ", resuming with ",
                   sharded ? std::to_string(cfg.numGpns) + " shards"
                           : std::string("the serial scheduler"),
                   " (--threads toggles sharding; the thread count "
                   "itself is free)");
    const std::vector<std::uint64_t> applied_v = r.u64vec("hardApplied");
    if (applied_v.size() != hardApplied.size())
        sim::fatal("checkpoint hard-fault count mismatch (",
                   applied_v.size(), " recorded, schedule has ",
                   hardApplied.size(), ")");
    failover.gpnsFailed = r.u64("gpnsFailed");
    failover.migratedVertices = r.u64("migratedVertices");
    failover.linksDown = r.u64("linksDown");
    failover.spillRegionsLost = r.u64("spillRegionsLost");
    failover.shardCrashes = r.u64("shardCrashes");
    // Replay the degraded topology the checkpoint was written under
    // *before* restoring component state: the pe-section shapes (store
    // sizes, VMU counters, retired shards) depend on it.
    for (std::size_t i = 0; i < applied_v.size(); ++i)
        if (applied_v[i] != 0)
            applyHardFault(i, true, iter, frontier);
    r.section("eventq");
    if (sharded) {
        for (std::uint32_t s = 0; s < cfg.numGpns; ++s) {
            const std::string sfx = std::to_string(s);
            const sim::Tick tick = r.u64("tick" + sfx);
            const std::uint64_t next_seq = r.u64("nextSeq" + sfx);
            const std::uint64_t executed = r.u64("executed" + sfx);
            const std::uint64_t fp = r.u64("fingerprint" + sfx);
            sched->shard(s).restoreSchedulingState(tick, next_seq,
                                                   executed, fp);
        }
        sched->setMergedFingerprint(r.u64("mergedFingerprint"));
    } else {
        const sim::Tick tick = r.u64("tick");
        const std::uint64_t next_seq = r.u64("nextSeq");
        const std::uint64_t executed = r.u64("executed");
        const std::uint64_t fp = r.u64("fingerprint");
        serialEq->restoreSchedulingState(tick, next_seq, executed, fp);
    }
    r.section("counters");
    if (sharded) {
        const std::vector<std::uint64_t> processed =
            r.u64vec("messagesProcessed");
        const std::vector<std::uint64_t> generated =
            r.u64vec("messagesGenerated");
        if (processed.size() != counters.size() ||
            generated.size() != counters.size())
            sim::fatal("checkpoint counter shard count mismatch");
        for (std::size_t i = 0; i < counters.size(); ++i) {
            counters[i].messagesProcessed = processed[i];
            counters[i].messagesGenerated = generated[i];
        }
    } else {
        counters[0].messagesProcessed = r.u64("messagesProcessed");
        counters[0].messagesGenerated = r.u64("messagesGenerated");
    }
    r.section("injector");
    const bool had_injector = r.u64("present") != 0;
    if (had_injector != injector.has_value())
        sim::fatal("checkpoint fault configuration mismatch");
    if (injector)
        injector->restoreState(r);
    r.section("program");
    program.restoreCheckpoint(r);
    for (std::uint32_t pe = 0; pe < numPes; ++pe) {
        r.section("pe" + std::to_string(pe));
        pes[pe].store->restoreState(r);
        pes[pe].vertexMem->restoreState(r);
        pes[pe].cache->restoreState(r);
        pes[pe].vmu->restoreState(r);
        pes[pe].mpu->restoreState(r);
        pes[pe].mgu->restoreState(r);
    }
    for (std::uint32_t gpn = 0; gpn < cfg.numGpns; ++gpn) {
        r.section("edgeMem" + std::to_string(gpn));
        edgeMems[gpn]->restoreState(r);
    }
    r.section("net");
    net->restoreState(r);
    r.section("frontier");
    frontier.clear();
    for (const std::uint64_t v : r.u64vec("nextActive"))
        frontier.push_back(static_cast<graph::VertexId>(v));
    r.finish();
    sim::setCheckpointContext("gen " + std::to_string(pick.generation) +
                              " (" + pick.path + "), iter " +
                              std::to_string(iter));
    return iter;
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
        result.props[v] =
            pes[liveMap.partOf(v)].store->cur(liveMap.localOf(v));
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
        // Degraded-mode outcome, present only when the schedule carries
        // permanent (hard) faults.
        if (!hardApplied.empty()) {
            double applied = 0;
            for (const std::uint8_t a : hardApplied)
                applied += a;
            double degraded_inserts = 0;
            for (auto &p : pes)
                degraded_inserts += p.vmu->degradedInserts.value();
            extra["failover.hardFaultsApplied"] = applied;
            extra["failover.gpnsFailed"] =
                static_cast<double>(failover.gpnsFailed);
            extra["failover.migratedVertices"] =
                static_cast<double>(failover.migratedVertices);
            extra["failover.linksDown"] =
                static_cast<double>(failover.linksDown);
            extra["failover.spillRegionsLost"] =
                static_cast<double>(failover.spillRegionsLost);
            extra["failover.shardCrashes"] =
                static_cast<double>(failover.shardCrashes);
            extra["failover.degradedInserts"] = degraded_inserts;
            extra["failover.net.reroutes"] = net->reroutes.value();
            extra["failover.net.rerouteRetries"] =
                net->rerouteRetries.value();
            extra["failover.net.rerouteDelayTicks"] =
                net->rerouteDelayTicks.value();
        }
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

    /**
     * Drop what supersteps before `superstep` consumed: a run resumed
     * there has already injected them.
     */
    void
    dropBefore(std::uint64_t superstep)
    {
        due.erase(due.begin(),
                  due.lower_bound(static_cast<std::int64_t>(superstep)));
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
    // Each run starts with a clean checkpoint-generation error context;
    // resume and every successful write update it.
    sim::setCheckpointContext("");

    Machine m(cfg, ckpt, program, g, map);
    // A PanicError escaping the run gets the recent-event ring and a
    // stats snapshot written while the components are still alive.
    sim::crash::Scope crash_scope(
        &m.crashQueue(), [&m](std::ostream &os) { m.dumpStats(os); });
    LevelSchedule schedule(program, g);
    std::uint64_t iter = 0;
    std::vector<graph::VertexId> next;
    bool stopped = false;
    try {
        // A resumed run enters the loop at the injection step: the
        // checkpoint was written after a barrier, before injection.
        bool resumed = !ckpt.resumePath.empty();
        if (resumed) {
            iter = m.resume(next);
            schedule.dropBefore(iter);
        } else {
            m.inject(program.initialActive());
            m.inject(schedule.take(0));
        }
        m.start();
        for (;; resumed = false) {
            if (!resumed) {
                m.drain();
                if (program.mode() != ExecMode::Bsp)
                    break;
                m.barrier(++iter, next);
                if (iter >= program.maxIterations())
                    break;
                stopped = ckpt.stopAfterIters > 0 &&
                          iter == ckpt.stopAfterIters;
                if (stopped || (ckpt.everyIters > 0 &&
                                iter % ckpt.everyIters == 0))
                    m.writeCheckpoint(iter, next);
                if (stopped)
                    break;
            }
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
    RunResult result = m.collect(iter);
    result.stoppedAtCheckpoint = stopped;
    return result;
}

} // namespace nova::core
