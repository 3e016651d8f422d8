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
      propEvent(queue, [this] { propWork(); }),
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
        auto ent = std::make_shared<EntryState>();
        ent->local = e.local;
        ent->alpha = e.alpha;
        entries.push_back(ent);
        issueRowPtr(ent);
    }
}

void
Mgu::issueRowPtr(std::shared_ptr<EntryState> ent)
{
    const sim::Addr addr = store.rowPtrAddr(ent->local);
    const bool ok = emem.tryAccess(addr, 8, false, [this, ent] {
        onRowPtr(ent);
    });
    if (ok) {
        ++rowPtrReads;
    } else {
        emem.waitForSpace([this, ent] { issueRowPtr(ent); });
    }
}

void
Mgu::onRowPtr(const std::shared_ptr<EntryState> &ent)
{
    NOVA_PROF_SCOPE(profBurst);
    ent->rangeKnown = true;
    ent->next = store.edgeBegin(ent->local);
    ent->end = store.edgeEnd(ent->local);
    if (ent->next == ent->end)
        ent->issuedAll = true;
    maybeFinishEntry(ent);
    issueBursts();
}

void
Mgu::issueBursts()
{
    // Issue edge bursts in entry order; an entry whose row pointer is
    // still in flight blocks younger entries (in-order streaming).
    for (auto &ent : entries) {
        if (!ent->rangeKnown)
            break;
        while (!ent->issuedAll && burstsInFlight < cfg.mguBurstDepth) {
            const std::uint32_t edges_per_burst =
                std::max<std::uint32_t>(
                    1, cfg.mguBurstBytes / cfg.edgeRecordBytes);
            const auto count = static_cast<std::uint32_t>(std::min<EdgeId>(
                edges_per_burst, ent->end - ent->next));
            const EdgeId start = ent->next;
            ent->next += count;
            if (ent->next == ent->end)
                ent->issuedAll = true;
            ++ent->outstandingBursts;
            ++ent->unprocessedBursts;
            ++burstsInFlight;
            issueBurstRead(ent, start, count);
        }
        if (burstsInFlight >= cfg.mguBurstDepth)
            break;
    }
}

void
Mgu::issueBurstRead(std::shared_ptr<EntryState> ent, EdgeId start,
                    std::uint32_t count)
{
    const sim::Addr addr = store.edgeAddr(start);
    const std::uint32_t bytes = count * cfg.edgeRecordBytes;
    const bool ok = emem.tryAccess(addr, bytes, false,
                                   [this, ent, start, count] {
                                       onBurst(ent, start, count);
                                   });
    if (!ok)
        emem.waitForSpace([this, ent, start, count] {
            issueBurstRead(ent, start, count);
        });
}

void
Mgu::onBurst(const std::shared_ptr<EntryState> &ent, EdgeId start,
             std::uint32_t count)
{
    NOVA_PROF_SCOPE(profBurst);
    NOVA_ASSERT(ent->outstandingBursts > 0);
    --ent->outstandingBursts;
    edgesRead += count;
    propQueue.push_back(BurstItem{ent, start, count, 0});
    propEvent.schedule(clockEdge(0));
}

void
Mgu::propWork()
{
    NOVA_PROF_SCOPE(profProp);
    std::uint32_t budget = cfg.propagateFusPerPe;
    while (budget > 0 && !propQueue.empty()) {
        BurstItem &b = propQueue.front();
        while (budget > 0 && b.processed < b.count) {
            const EdgeId e = b.start + b.processed;
            const VertexId dst = store.edgeDest(e);
            noc::Message msg;
            msg.dstVertex = dst;
            msg.update =
                program.propagate(b.entry->alpha, store.edgeWeight(e));
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
            auto ent = b.entry;
            propQueue.pop_front();
            NOVA_ASSERT(ent->unprocessedBursts > 0);
            --ent->unprocessedBursts;
            NOVA_ASSERT(burstsInFlight > 0);
            --burstsInFlight;
            maybeFinishEntry(ent);
            issueBursts();
        }
    }
    if (!propQueue.empty())
        propEvent.schedule(clockEdge(1));
}

void
Mgu::maybeFinishEntry(const std::shared_ptr<EntryState> &ent)
{
    if (!ent->rangeKnown || !ent->issuedAll || ent->outstandingBursts ||
        ent->unprocessedBursts)
        return;
    const auto it = std::find(entries.begin(), entries.end(), ent);
    if (it != entries.end()) {
        entries.erase(it);
        ++verticesPropagated;
        pull();
    }
}

} // namespace nova::core
