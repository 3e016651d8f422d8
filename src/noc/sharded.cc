#include "noc/sharded.hh"

#include "sim/logging.hh"

namespace nova::noc
{

namespace
{

/** Depth bound of a stage's input queue before trySend backpressure
 *  (matches network.cc's stageCapacity). */
constexpr std::size_t stageCapacity = 64;

} // namespace

ShardedHierarchicalNetwork::ShardedHierarchicalNetwork(
    std::string name, sim::ParallelScheduler &scheduler,
    const NetworkConfig &config)
    : Network(std::move(name), scheduler.shard(0), config),
      sched(scheduler)
{
    const std::uint32_t num_gpns = cfg.numPes / cfg.pesPerGpn;
    NOVA_ASSERT(num_gpns == sched.numShards(),
                "sharded fabric needs one shard per GPN");
    NOVA_ASSERT(sched.lookahead() <= minCrossLookahead(cfg),
                "scheduler lookahead exceeds the crossbar's minimum "
                "cross-shard latency");

    const Tick link_ser = serializationTicks(cfg.linkGBs);
    const Tick port_ser = serializationTicks(cfg.portGBs);

    shards.reserve(num_gpns);
    for (std::uint32_t g = 0; g < num_gpns; ++g) {
        shards.push_back(std::make_unique<Shard>());
        Shard &sh = *shards.back();
        sim::EventQueue &q = sched.shard(g);
        sh.inbound.resize(cfg.pesPerGpn);
        sh.notify.resize(cfg.pesPerGpn);
        sh.intraCredits.assign(cfg.pesPerGpn, cfg.creditsPerDst);
        sh.channelCredits.assign(num_gpns, cfg.creditsPerDst);

        auto wake = [this, g] { wakeShardSenders(*shards[g]); };
        auto local_exit = [this, g](const Message &msg, Tick inject,
                                    Tick exit_tick) {
            // Exit delivery runs on the destination GPN's own queue:
            // stage g's pipeline is owned by shard g, so this never
            // crosses a shard boundary.
            // novalint: shard-local
            sched.shard(g).schedule(exit_tick, [this, g, msg, inject] {
                deliverLocal(g, msg, inject);
            });
        };

        sh.intra.resize(cfg.pesPerGpn);
        for (std::uint32_t s = 0; s < cfg.pesPerGpn; ++s) {
            sh.intra[s].resize(cfg.pesPerGpn);
            for (std::uint32_t d = 0; d < cfg.pesPerGpn; ++d)
                if (s != d)
                    sh.intra[s][d] = std::make_unique<ShardStage>(
                        q, link_ser, cfg.linkLatency, local_exit, wake);
        }

        // The uplink finishes across shards: a message leaves at
        // now + port_ser + xbarLatency >= now + lookahead, which is
        // exactly why the conservative window is sound.
        auto uplink_exit = [this, g](const Message &msg, Tick inject,
                                     Tick exit_tick) {
            const std::uint32_t dst = gpnOf(msg.dstPe);
            sched.postCross(g, dst, exit_tick, sim::defaultPriority,
                            [this, dst, msg, inject] {
                                shards[dst]->downlink->push(msg, inject);
                            });
        };
        sh.uplink = std::make_unique<ShardStage>(
            q, port_ser, cfg.xbarLatency, uplink_exit, wake);
        sh.downlink = std::make_unique<ShardStage>(
            q, port_ser, cfg.linkLatency, local_exit, wake);
    }
}

void
ShardedHierarchicalNetwork::ShardStage::work()
{
    if (pending.empty())
        return;
    Pending p = pending.front();
    pending.pop_front();
    const Tick done_ser = sim::tickAdd(q.now(), serTicks);
    exitFn(p.msg, p.injected, sim::tickAdd(done_ser, latTicks));
    if (!pending.empty())
        workEvent.schedule(done_ser);
    freedFn();
}

bool
ShardedHierarchicalNetwork::trySend(const Message &msg)
{
    NOVA_ASSERT(msg.dstPe < cfg.numPes && msg.srcPe < cfg.numPes);
    const std::uint32_t src_gpn = gpnOf(msg.srcPe);
    Shard &sh = *shards[src_gpn];
    sim::EventQueue &q = sched.shard(src_gpn);
    const Tick inject = q.now();

    if (msg.dstPe == msg.srcPe) {
        const std::uint32_t local = localOf(msg.dstPe);
        if (sh.intraCredits[local] == 0) {
            ++sh.d.sendRejects;
            return false;
        }
        --sh.intraCredits[local];
        ++sh.inFlight;
        ++sh.d.selfMessages;
        Message copy = msg;
        // Self-delivery on the sender's own shard queue (src == dst).
        // novalint: shard-local
        q.scheduleIn(cfg.selfLatency, [this, src_gpn, copy, inject] {
            deliverLocal(src_gpn, copy, inject);
        });
        return true;
    }

    if (gpnOf(msg.dstPe) == src_gpn) {
        const std::uint32_t local = localOf(msg.dstPe);
        if (sh.intraCredits[local] == 0) {
            ++sh.d.sendRejects;
            return false;
        }
        ShardStage &link =
            *sh.intra[localOf(msg.srcPe)][local];
        if (link.depth() >= stageCapacity) {
            ++sh.d.sendRejects;
            return false;
        }
        link.push(msg, inject);
        --sh.intraCredits[local];
        ++sh.inFlight;
        ++sh.d.messagesSent;
        sh.d.bytesSent += cfg.messageBytes;
        return true;
    }

    // Cross-GPN: flow-controlled by the source-owned channel pool.
    const std::uint32_t dst_gpn = gpnOf(msg.dstPe);
    if (sh.channelCredits[dst_gpn] == 0) {
        ++sh.d.sendRejects;
        return false;
    }
    if (sh.uplink->depth() >= stageCapacity) {
        ++sh.d.sendRejects;
        return false;
    }
    sh.uplink->push(msg, inject);
    --sh.channelCredits[dst_gpn];
    ++sh.inFlight;
    ++sh.d.messagesSent;
    ++sh.d.crossGpnMessages;
    sh.d.bytesSent += cfg.messageBytes;
    return true;
}

void
ShardedHierarchicalNetwork::waitForSpace(std::uint32_t src_pe,
                                         sim::EventFn retry)
{
    shards[gpnOf(src_pe)]->waiters.emplace_back(src_pe,
                                               std::move(retry));
}

bool
ShardedHierarchicalNetwork::inboundEmpty(std::uint32_t pe) const
{
    return shards[gpnOf(pe)]->inbound[localOf(pe)].empty();
}

std::size_t
ShardedHierarchicalNetwork::inboundSize(std::uint32_t pe) const
{
    return shards[gpnOf(pe)]->inbound[localOf(pe)].size();
}

Message
ShardedHierarchicalNetwork::popInbound(std::uint32_t pe)
{
    const std::uint32_t dst_gpn = gpnOf(pe);
    Shard &sh = *shards[dst_gpn];
    auto &q = sh.inbound[localOf(pe)];
    NOVA_ASSERT(!q.empty(), "popInbound on empty queue");
    Message msg = q.front();
    q.pop_front();

    if (gpnOf(msg.srcPe) == dst_gpn) {
        ++sh.intraCredits[localOf(pe)];
        --sh.inFlight;
        wakeShardSenders(sh);
    } else {
        // Return the channel credit to the source shard. The return
        // travels with the full lookahead delay, so the source keeps
        // the message in its in-flight count until the credit is home —
        // global quiescence therefore implies every pool is full again.
        const std::uint32_t src_gpn = gpnOf(msg.srcPe);
        const Tick when =
            sim::tickAdd(sched.shard(dst_gpn).now(), sched.lookahead());
        sched.postCross(
            dst_gpn, src_gpn, when, sim::defaultPriority,
            [this, src_gpn, dst_gpn] {
                Shard &src = *shards[src_gpn];
                ++src.channelCredits[dst_gpn];
                NOVA_ASSERT(src.inFlight > 0,
                            "credit return without an in-flight message");
                --src.inFlight;
                wakeShardSenders(src);
            });
    }
    return msg;
}

void
ShardedHierarchicalNetwork::setInboundNotify(std::uint32_t pe,
                                             std::function<void()> fn)
{
    shards[gpnOf(pe)]->notify[localOf(pe)] = std::move(fn);
}

std::uint64_t
ShardedHierarchicalNetwork::messagesInNetwork() const
{
    std::uint64_t n = 0;
    for (const auto &sh : shards)
        n += sh->inFlight;
    return n;
}

void
ShardedHierarchicalNetwork::deliverLocal(std::uint32_t shard_idx,
                                         const Message &msg,
                                         Tick inject_tick)
{
    Shard &sh = *shards[shard_idx];
    const std::uint32_t local = localOf(msg.dstPe);
    sh.d.totalLatency += static_cast<double>(
        sim::tickSub(sched.shard(shard_idx).now(), inject_tick));
    auto &q = sh.inbound[local];
    const bool was_empty = q.empty();
    q.push_back(msg);
    if (was_empty && sh.notify[local])
        sh.notify[local]();
}

void
ShardedHierarchicalNetwork::wakeShardSenders(Shard &sh)
{
    if (sh.waiters.empty())
        return;
    auto pending = std::move(sh.waiters);
    sh.waiters = std::move(sh.spareWaiters);
    for (auto &[pe, retry] : pending)
        retry();
    pending.clear();
    sh.spareWaiters = std::move(pending);
}

void
ShardedHierarchicalNetwork::foldStats()
{
    // Runs on the coordinator after quiescence; shard index order is
    // fixed, so this reduction's order is canonical by construction.
    // novalint: canonical-order
    for (auto &shp : shards) {
        StatDeltas &d = shp->d;
        messagesSent += static_cast<double>(d.messagesSent);
        selfMessages += static_cast<double>(d.selfMessages);
        crossGpnMessages += static_cast<double>(d.crossGpnMessages);
        sendRejects += static_cast<double>(d.sendRejects);
        bytesSent += d.bytesSent;
        totalLatency += d.totalLatency;
        d = StatDeltas{};
    }
}

bool
ShardedHierarchicalNetwork::route(const Message &msg)
{
    (void)msg;
    sim::panic("sharded fabric routes through trySend only");
}

} // namespace nova::noc
