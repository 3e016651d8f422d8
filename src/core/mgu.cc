#include "core/mgu.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace nova::core
{

Mgu::Mgu(std::string name, sim::EventQueue &queue, const NovaConfig &cfg_,
         std::uint32_t pe, VertexStore &store_,
         mem::MemorySystem &edge_mem, noc::Network &net_, Vmu &vmu_,
         workloads::VertexProgram &prog, const graph::VertexMapping &map,
         RunCounters &counters_)
    : ClockedObject(std::move(name), queue, cfg_.clockPeriod()), cfg(cfg_),
      peIndex(pe), store(store_), emem(edge_mem), net(net_), vmu(vmu_),
      program(prog), mapping(map), counters(counters_),
      table(cfg_.mguEntryDepth), propEvent(queue, [this] { propWork(); }),
      profProp(sim::profile::Registry::instance().site(this->name(),
                                                       "mgu.propagate")),
      profBurst(sim::profile::Registry::instance().site(this->name(),
                                                        "mgu.burst"))
{
    statistics().addScalar("verticesPropagated", &verticesPropagated);
    statistics().addScalar("edgesRead", &edgesRead);
    statistics().addScalar("messagesSent", &messagesSent);
    statistics().addScalar("rowPtrReads", &rowPtrReads);
    statistics().addScalar("sendStalls", &sendStalls);
    for (std::uint32_t s = cfg.mguEntryDepth; s-- > 0;)
        freeSlots.push_back(s);
}

void
Mgu::startup()
{
    vmu.setEntryNotify([this] { pull(); });
    pull();
}

void
Mgu::pull()
{
    while (entries.size() < cfg.mguEntryDepth && vmu.hasEntry()) {
        const Vmu::Entry e = vmu.pop();
        const std::uint32_t slot = freeSlots.back();
        freeSlots.pop_back();
        table[slot] = EntryState{e.local, e.alpha};
        entries.push_back(slot);
        issueRowPtr(slot);
    }
}

void
Mgu::issueRowPtr(std::uint32_t slot)
{
    const sim::Addr addr = store.rowPtrAddr(table[slot].local);
    const bool ok = emem.tryAccess(addr, 8, false, [this, slot] {
        onRowPtr(slot);
    });
    if (ok) {
        ++rowPtrReads;
    } else {
        emem.waitForSpace([this, slot] { issueRowPtr(slot); });
    }
}

void
Mgu::onRowPtr(std::uint32_t slot)
{
    NOVA_PROF_SCOPE(profBurst);
    EntryState &ent = table[slot];
    ent.rangeKnown = true;
    ent.next = store.edgeBegin(ent.local);
    ent.end = store.edgeEnd(ent.local);
    if (ent.next == ent.end)
        ent.issuedAll = true;
    maybeFinishEntry(slot);
    issueBursts();
}

void
Mgu::issueBursts()
{
    // Issue edge bursts in entry order; an entry whose row pointer is
    // still in flight blocks younger entries (in-order streaming).
    for (const std::uint32_t slot : entries) {
        EntryState &ent = table[slot];
        if (!ent.rangeKnown)
            break;
        while (!ent.issuedAll && burstsInFlight < cfg.mguBurstDepth) {
            const std::uint32_t edges_per_burst =
                std::max<std::uint32_t>(
                    1, cfg.mguBurstBytes / cfg.edgeRecordBytes);
            const auto count = static_cast<std::uint32_t>(std::min<EdgeId>(
                edges_per_burst, ent.end - ent.next));
            const EdgeId start = ent.next;
            ent.next += count;
            if (ent.next == ent.end)
                ent.issuedAll = true;
            ++ent.outstandingBursts;
            ++ent.unprocessedBursts;
            ++burstsInFlight;
            issueBurstRead(slot, start, count);
        }
        if (burstsInFlight >= cfg.mguBurstDepth)
            break;
    }
}

void
Mgu::issueBurstRead(std::uint32_t slot, EdgeId start, std::uint32_t count)
{
    const sim::Addr addr = store.edgeAddr(start);
    const std::uint32_t bytes = count * cfg.edgeRecordBytes;
    const bool ok = emem.tryAccess(addr, bytes, false,
                                   [this, slot, start, count] {
                                       onBurst(slot, start, count);
                                   });
    if (!ok)
        emem.waitForSpace([this, slot, start, count] {
            issueBurstRead(slot, start, count);
        });
}

void
Mgu::onBurst(std::uint32_t slot, EdgeId start, std::uint32_t count)
{
    NOVA_PROF_SCOPE(profBurst);
    NOVA_ASSERT(table[slot].outstandingBursts > 0);
    --table[slot].outstandingBursts;
    edgesRead += count;
    propQueue.push_back(BurstItem{slot, count, start, 0});
    propEvent.schedule(clockEdge(0));
}

void
Mgu::propWork()
{
    NOVA_PROF_SCOPE(profProp);
    std::uint32_t budget = cfg.propagateFusPerPe;
    while (budget > 0 && !propQueue.empty()) {
        BurstItem &b = propQueue.front();
        const std::uint64_t alpha = table[b.entry].alpha;
        while (budget > 0 && b.processed < b.count) {
            const EdgeId e = b.start + b.processed;
            const VertexId dst = store.edgeDest(e);
            noc::Message msg;
            msg.dstVertex = dst;
            msg.update = program.propagate(alpha, store.edgeWeight(e));
            msg.dstPe = mapping.partOf(dst);
            msg.srcPe = peIndex;
            if (!net.trySend(msg)) {
                ++sendStalls;
                net.waitForSpace(peIndex, [this] {
                    propEvent.schedule(clockEdge(0));
                });
                return;
            }
            ++messagesSent;
            ++counters.messagesGenerated;
            ++b.processed;
            --budget;
        }
        if (b.processed == b.count) {
            const std::uint32_t slot = b.entry;
            propQueue.pop_front();
            EntryState &ent = table[slot];
            NOVA_ASSERT(ent.unprocessedBursts > 0);
            --ent.unprocessedBursts;
            NOVA_ASSERT(burstsInFlight > 0);
            --burstsInFlight;
            maybeFinishEntry(slot);
            issueBursts();
        }
    }
    if (!propQueue.empty())
        propEvent.schedule(clockEdge(1));
}

void
Mgu::maybeFinishEntry(std::uint32_t slot)
{
    const EntryState &ent = table[slot];
    if (!ent.rangeKnown || !ent.issuedAll || ent.outstandingBursts ||
        ent.unprocessedBursts)
        return;
    const auto it = std::find(entries.begin(), entries.end(), slot);
    if (it != entries.end()) {
        entries.erase(it);
        freeSlots.push_back(slot);
        ++verticesPropagated;
        pull();
    }
}

} // namespace nova::core
