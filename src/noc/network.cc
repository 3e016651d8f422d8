#include "noc/network.hh"

#include <cmath>

#include "sim/logging.hh"

namespace nova::noc
{

namespace
{

/** Depth bound of a stage's input queue before trySend backpressure. */
constexpr std::size_t stageCapacity = 64;

} // namespace

Network::Network(std::string name, sim::EventQueue &queue,
                 const NetworkConfig &config)
    : SimObject(std::move(name), queue), cfg(config),
      inbound(cfg.numPes), inboundNotify(cfg.numPes),
      credits(cfg.numPes, cfg.creditsPerDst), lastInjectAt(cfg.numPes, 0)
{
    NOVA_ASSERT(cfg.numPes > 0 && cfg.pesPerGpn > 0);
    NOVA_ASSERT(cfg.numPes % cfg.pesPerGpn == 0,
                "numPes must be a multiple of pesPerGpn");
    statistics().addScalar("messagesSent", &messagesSent);
    statistics().addScalar("bytesSent", &bytesSent);
    statistics().addScalar("selfMessages", &selfMessages);
    statistics().addScalar("crossGpnMessages", &crossGpnMessages);
    statistics().addScalar("totalLatency", &totalLatency);
    statistics().addScalar("sendRejects", &sendRejects);
    statistics().addScalar("flitsDropped", &flitsDropped);
    statistics().addScalar("flitsCorrupted", &flitsCorrupted);
    statistics().addScalar("flitsDuplicated", &flitsDuplicated);
    statistics().addScalar("retries", &retries);
    statistics().addScalar("retryBackoffTicks", &retryBackoffTicks);
    statistics().addScalar("duplicatesDiscarded", &duplicatesDiscarded);
    statistics().addScalar("reorders", &reorders);

    if (sim::FaultInjector *inj = queue.faultInjector()) {
        dropPoint = inj->registerPoint("noc.drop", this->name());
        corruptPoint = inj->registerPoint("noc.corrupt", this->name());
        dupPoint = inj->registerPoint("noc.dup", this->name());
    }
}

Tick
Network::serializationTicks(double gbps) const
{
    // bytes / (GB/s) in picoseconds: B / (B/ps).
    const double bytes_per_ps = gbps * 1e9 / 1e12;
    return std::max<Tick>(
        1, static_cast<Tick>(std::llround(
               static_cast<double>(cfg.messageBytes) / bytes_per_ps)));
}

bool
Network::trySend(const Message &msg)
{
    NOVA_ASSERT(msg.dstPe < cfg.numPes && msg.srcPe < cfg.numPes);
    if (credits[msg.dstPe] == 0) {
        ++sendRejects;
        return false;
    }

    const Tick inject = now();
    if (msg.dstPe == msg.srcPe) {
        --credits[msg.dstPe];
        ++inFlight;
        ++selfMessages;
        Message copy = msg;
        eventQueue().scheduleIn(cfg.selfLatency,
                                [this, copy, inject] {
                                    deliver(copy, inject);
                                });
        return true;
    }

    if (!route(msg)) {
        ++sendRejects;
        return false;
    }
    --credits[msg.dstPe];
    ++inFlight;
    ++messagesSent;
    bytesSent += cfg.messageBytes;
    if (gpnOf(msg.dstPe) != gpnOf(msg.srcPe))
        ++crossGpnMessages;
    return true;
}

void
Network::waitForSpace(std::uint32_t src_pe, sim::EventFn retry)
{
    waiters.emplace_back(src_pe, std::move(retry));
}

Message
Network::popInbound(std::uint32_t pe)
{
    NOVA_ASSERT(!inbound[pe].empty(), "popInbound on empty queue");
    Message msg = inbound[pe].front();
    inbound[pe].pop_front();
    ++credits[pe];
    --inFlight;
    wakeSenders();
    return msg;
}

void
Network::deliver(const Message &msg, Tick inject_tick)
{
    deliverAttempt(msg, inject_tick, 0);
}

void
Network::deliverAttempt(const Message &msg, Tick inject_tick,
                        std::uint32_t attempt)
{
    // Fault injection at the single point every message funnels
    // through. A dropped flit (lost in transit, detected by the
    // sender's ack timeout) and a corrupted flit (CRC failure at the
    // receiver, nack'd) are both recovered by retransmitting the
    // original after an exponentially backed-off wait; the message
    // never leaves the in-flight accounting, so credits and quiescence
    // detection are unaffected.
    const bool dropped = dropPoint && dropPoint->fire();
    const bool corrupted = !dropped && corruptPoint && corruptPoint->fire();
    if (dropped || corrupted) {
        (dropped ? flitsDropped : flitsCorrupted) += 1;
        retries += 1;
        const std::uint32_t shift =
            attempt < cfg.retryBackoffCap ? attempt : cfg.retryBackoffCap;
        const Tick wait = sim::tickMul(cfg.retryTimeout, Tick(1) << shift);
        retryBackoffTicks += static_cast<double>(wait);
        Message copy = msg;
        eventQueue().scheduleIn(wait, [this, copy, inject_tick, attempt] {
            deliverAttempt(copy, inject_tick, attempt + 1);
        });
        return;
    }
    if (dupPoint && dupPoint->fire()) {
        // A spurious extra copy arrives one timeout later; the
        // receiver's sequence-number dedup discards it without touching
        // the inbound queue or credit accounting.
        flitsDuplicated += 1;
        eventQueue().scheduleIn(cfg.retryTimeout,
                                [this] { duplicatesDiscarded += 1; });
    }

    if (inject_tick < lastInjectAt[msg.dstPe])
        reorders += 1;
    lastInjectAt[msg.dstPe] = inject_tick;

    totalLatency += static_cast<double>(sim::tickSub(now(), inject_tick));
    auto &q = inbound[msg.dstPe];
    const bool was_empty = q.empty();
    q.push_back(msg);
    if (was_empty && inboundNotify[msg.dstPe])
        inboundNotify[msg.dstPe]();
}

void
Network::onStageExit(Stage &stage, const Message &msg, Tick inject_tick)
{
    (void)stage;
    deliver(msg, inject_tick);
}

void
Network::wakeSenders()
{
    if (waiters.empty())
        return;
    // Retries may register again: run them from the current buffer and
    // hand `waiters` the spare one, so neither reallocates. (A nested
    // wake finds no spare buffer and allocates once.)
    auto pending = std::move(waiters);
    waiters = std::move(spareWaiters);
    for (auto &[pe, retry] : pending)
        retry();
    pending.clear();
    spareWaiters = std::move(pending);
}

Network::Stage::Stage(Network &owner, Tick serialization, Tick latency)
    : net(owner), serTicks(serialization), latTicks(latency),
      workEvent(owner.eventQueue(), [this] { work(); })
{
}

void
Network::Stage::push(Message msg, Tick inject_tick)
{
    q.push_back(Pending{msg, inject_tick});
    if (!workEvent.scheduled())
        workEvent.schedule(net.now());
}

void
Network::Stage::work()
{
    if (q.empty())
        return;
    Pending p = q.front();
    q.pop_front();

    const Tick done_ser = sim::tickAdd(net.now(), serTicks);
    net.eventQueue().schedule(sim::tickAdd(done_ser, latTicks), [this, p] {
        net.onStageExit(*this, p.msg, p.injected);
    });
    if (!q.empty())
        workEvent.schedule(done_ser);
    net.wakeSendersFromStage();
}

PePointToPointNetwork::PePointToPointNetwork(std::string name,
                                             sim::EventQueue &queue,
                                             const NetworkConfig &config)
    : Network(std::move(name), queue, config)
{
    NOVA_ASSERT(cfg.numPes == cfg.pesPerGpn,
                "point-to-point fabric models a single GPN");
    const Tick ser = serializationTicks(cfg.linkGBs);
    links.resize(cfg.numPes);
    for (std::uint32_t s = 0; s < cfg.numPes; ++s) {
        links[s].resize(cfg.numPes);
        for (std::uint32_t d = 0; d < cfg.numPes; ++d)
            if (s != d)
                links[s][d] = std::make_unique<Stage>(*this, ser,
                                                      cfg.linkLatency);
    }
}

bool
PePointToPointNetwork::route(const Message &msg)
{
    Stage &link = *links[msg.srcPe][msg.dstPe];
    if (link.depth() >= stageCapacity)
        return false;
    link.push(msg, now());
    return true;
}

HierarchicalNetwork::HierarchicalNetwork(std::string name,
                                         sim::EventQueue &queue,
                                         const NetworkConfig &config)
    : Network(std::move(name), queue, config)
{
    const std::uint32_t num_gpns = cfg.numPes / cfg.pesPerGpn;
    const Tick link_ser = serializationTicks(cfg.linkGBs);
    const Tick port_ser = serializationTicks(cfg.portGBs);

    intraLinks.resize(cfg.numPes);
    for (std::uint32_t s = 0; s < cfg.numPes; ++s) {
        intraLinks[s].resize(cfg.pesPerGpn);
        for (std::uint32_t d = 0; d < cfg.pesPerGpn; ++d) {
            const std::uint32_t dst_pe = gpnOf(s) * cfg.pesPerGpn + d;
            if (dst_pe != s)
                intraLinks[s][d] = std::make_unique<Stage>(
                    *this, link_ser, cfg.linkLatency);
        }
    }
    for (std::uint32_t g = 0; g < num_gpns; ++g) {
        uplinks.push_back(std::make_unique<Stage>(*this, port_ser,
                                                  cfg.xbarLatency));
        downlinks.push_back(std::make_unique<Stage>(
            *this, port_ser, cfg.linkLatency));
    }
}

bool
HierarchicalNetwork::route(const Message &msg)
{
    if (gpnOf(msg.srcPe) == gpnOf(msg.dstPe)) {
        Stage &link =
            *intraLinks[msg.srcPe][msg.dstPe % cfg.pesPerGpn];
        if (link.depth() >= stageCapacity)
            return false;
        link.push(msg, now());
        return true;
    }
    Stage &up = *uplinks[gpnOf(msg.srcPe)];
    if (up.depth() >= stageCapacity)
        return false;
    up.push(msg, now());
    return true;
}

void
HierarchicalNetwork::onStageExit(Stage &stage, const Message &msg,
                                 Tick inject_tick)
{
    // Messages leaving an uplink hop onto the destination GPN's
    // downlink port; everything else has arrived.
    for (std::size_t g = 0; g < uplinks.size(); ++g) {
        if (&stage == uplinks[g].get()) {
            downlinks[gpnOf(msg.dstPe)]->push(msg, inject_tick);
            return;
        }
    }
    deliver(msg, inject_tick);
}

IdealNetwork::IdealNetwork(std::string name, sim::EventQueue &queue,
                           const NetworkConfig &config)
    : Network(std::move(name), queue, config)
{
}

bool
IdealNetwork::route(const Message &msg)
{
    const Tick inject = now();
    Message copy = msg;
    eventQueue().scheduleIn(cfg.linkLatency, [this, copy, inject] {
        deliver(copy, inject);
    });
    return true;
}

std::unique_ptr<Network>
makeNetwork(FabricKind kind, std::string name, sim::EventQueue &queue,
            const NetworkConfig &config)
{
    switch (kind) {
      case FabricKind::PointToPoint:
        return std::make_unique<PePointToPointNetwork>(std::move(name),
                                                       queue, config);
      case FabricKind::Hierarchical:
        return std::make_unique<HierarchicalNetwork>(std::move(name),
                                                     queue, config);
      case FabricKind::Ideal:
        return std::make_unique<IdealNetwork>(std::move(name), queue,
                                              config);
    }
    sim::panic("unknown fabric kind");
}

} // namespace nova::noc
