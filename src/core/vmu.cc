#include "core/vmu.hh"

#include "sim/logging.hh"

namespace nova::core
{

Vmu::Vmu(std::string name, sim::EventQueue &queue, const NovaConfig &cfg_,
         VertexStore &store_, mem::MemorySystem &vertex_mem,
         const workloads::VertexProgram &prog)
    : SimObject(std::move(name), queue), cfg(cfg_), store(store_),
      vmem(vertex_mem), program(prog),
      counters(store_.numSuperblocks(), 0),
      profActivate(sim::profile::Registry::instance().site(
          this->name(), "vmu.activate")),
      profFetch(sim::profile::Registry::instance().site(this->name(),
                                                        "vmu.fetch"))
{
    statistics().addScalar("coalescedUpdates", &coalescedUpdates);
    statistics().addScalar("directInserts", &directInserts);
    statistics().addScalar("spills", &spills);
    statistics().addScalar("prefetchBursts", &prefetchBursts);
    statistics().addScalar("usefulPrefetchBytes", &usefulPrefetchBytes);
    statistics().addScalar("wastefulPrefetchBytes",
                           &wastefulPrefetchBytes);
    statistics().addScalar("activeBlocksFetched", &activeBlocksFetched);
    statistics().addScalar("fifoWrites", &fifoWrites);
    statistics().addScalar("counterReconciliations",
                           &counterReconciliations);
    statistics().addScalar("spillScrubs", &spillScrubs);

    if (sim::FaultInjector *inj = queue.faultInjector())
        spillPoint = inj->registerPoint("spill.corrupt", this->name());
}

std::uint32_t
Vmu::freeSlots() const
{
    const auto used =
        static_cast<std::uint32_t>(buffer.size()) + reservedSlots;
    return used >= cfg.activeBufferEntries
               ? 0
               : cfg.activeBufferEntries - used;
}

void
Vmu::activate(VertexId local, std::uint64_t alpha)
{
    NOVA_PROF_SCOPE(profActivate);
    if (cfg.spill == SpillPolicy::OffChipFifo) {
        // Eager policy: no coalescing; duplicates are allowed.
        if (freeSlots() > 0)
            directInsert(local, alpha);
        else
            spillFifo(local);
        return;
    }

    if (store.isActiveNow(local)) {
        // Already spilled and awaiting retrieval: the update folds
        // into the pending propagation (the enlarged coalescing
        // window of the decoupled design).
        ++coalescedUpdates;
        return;
    }
    if (store.bufferCount(local) > 0) {
        // A stale snapshot is already queued; re-track so the new
        // value propagates too.
        spillOverwrite(local);
        return;
    }
    if (freeSlots() > 0)
        directInsert(local, alpha);
    else
        spillOverwrite(local);
}

void
Vmu::directInsert(VertexId local, std::uint64_t alpha)
{
    const bool was_empty = buffer.empty();
    buffer.push_back(Entry{local, alpha});
    ++store.bufferCount(local);
    ++directInserts;
    if (was_empty && entryNotify)
        entryNotify();
}

void
Vmu::spillOverwrite(VertexId local)
{
    // The new value was already written through the MPU's cache; the
    // spill costs no extra bandwidth (Table I).
    store.setActiveNow(local, true);
    const std::uint32_t b = store.blockOf(local);
    const std::uint32_t sb = store.superblockOf(b);
    const bool transition = store.activeCountInBlock(b) == 1;
    if (cfg.tracker == TrackerPolicy::ExactBlockCount) {
        if (transition) {
            ++counters[sb];
            ++totalTracked;
        }
    } else {
        ++counters[sb];
        ++totalTracked;
    }
    ++spills;
    maybePrefetch();
}

void
Vmu::maybePrefetch()
{
    if (cfg.spill == SpillPolicy::OffChipFifo) {
        maybeFifoFetch();
        return;
    }
    if (scanActive || totalTracked == 0)
        return;
    // Clamp so a buffer smaller than the configured threshold can
    // still trigger retrieval (otherwise spills would strand).
    const std::uint32_t threshold =
        std::min(cfg.prefetchThreshold,
                 std::max(1u, cfg.activeBufferEntries / 2));
    if (freeSlots() < threshold)
        return;

    // Resume a partially scanned superblock, else round-robin to the
    // next one with a non-zero counter.
    if (!scanResumed) {
        std::uint32_t sb = cursorSb;
        bool found = false;
        for (std::uint32_t i = 0; i < counters.size(); ++i) {
            const std::uint32_t cand =
                (cursorSb + i) % static_cast<std::uint32_t>(
                    counters.size());
            if (counters[cand] > 0) {
                sb = cand;
                found = true;
                break;
            }
        }
        if (!found)
            return;
        scanSb = sb;
        scanBlock = sb * cfg.superblockDim;
        scanResumed = true;
    }

    const std::uint32_t sb_end = std::min(
        store.numBlocks(), (scanSb + 1) * cfg.superblockDim);
    const std::uint32_t burst_end =
        std::min(sb_end, scanBlock + cfg.prefetchBurstBlocks);
    if (scanBlock >= burst_end) {
        // Nothing left in this superblock (shrunk store); reconcile.
        scanActive = true;
        scanPending = 0;
        endBurst();
        return;
    }

    scanActive = true;
    scanPending = 0;
    ++prefetchBursts;
    for (std::uint32_t b = scanBlock; b < burst_end; ++b) {
        reservedSlots += store.vertsPerBlock();
        ++scanPending;
        issueBlockRead(b);
    }
    scanBlock = burst_end;
}

void
Vmu::issueBlockRead(std::uint32_t block)
{
    const bool ok = vmem.tryAccess(store.blockAddr(block), cfg.blockBytes,
                                   false, [this, block] {
                                       onBlockFetched(block);
                                   });
    if (!ok)
        vmem.waitForSpace([this, block] { issueBlockRead(block); });
}

void
Vmu::onBlockFetched(std::uint32_t block)
{
    NOVA_PROF_SCOPE(profFetch);
    reservedSlots -= store.vertsPerBlock();
    bool any = false;
    for (VertexId v = store.blockFirst(block); v < store.blockEnd(block);
         ++v) {
        if (store.isActiveNow(v)) {
            std::uint64_t mask = 0;
            if (spillPoint && spillPoint->fire(&mask)) {
                // The retrieved spill slot comes back damaged; the
                // checksum catches it and the scrubber restores the
                // good copy before the value is propagated.
                const bool scrubbed = store.corruptAndScrub(v, mask);
                NOVA_ASSERT(scrubbed,
                            "spill-slot corruption escaped the scrubber");
                ++spillScrubs;
            }
            store.setActiveNow(v, false);
            directInsert(v, program.propagateValue(
                                store.cur(v), store.globalOf(v)));
            any = true;
        }
    }
    const std::uint32_t sb = store.superblockOf(block);
    if (any) {
        usefulPrefetchBytes += cfg.blockBytes;
        ++activeBlocksFetched;
        if (counters[sb] > 0) {
            --counters[sb];
            NOVA_ASSERT(totalTracked > 0);
            --totalTracked;
        }
    } else {
        wastefulPrefetchBytes += cfg.blockBytes;
    }
    NOVA_ASSERT(scanPending > 0);
    if (--scanPending == 0)
        endBurst();
}

void
Vmu::endBurst()
{
    const std::uint32_t sb_end = std::min(
        store.numBlocks(), (scanSb + 1) * cfg.superblockDim);
    if (scanBlock >= sb_end) {
        // Superblock fully scanned: reconcile the (possibly
        // over-counting) counter against ground truth so stale counts
        // cannot trigger endless rescans.
        const std::uint32_t exact = store.exactActiveBlocks(scanSb);
        if (counters[scanSb] != exact) {
            ++counterReconciliations;
            totalTracked = totalTracked - counters[scanSb] + exact;
            counters[scanSb] = exact;
        }
        cursorSb = (scanSb + 1) % static_cast<std::uint32_t>(
            counters.size());
        scanResumed = false;
    }
    scanActive = false;
    maybePrefetch();
}

Vmu::Entry
Vmu::pop()
{
    NOVA_ASSERT(!buffer.empty(), "pop from empty active buffer");
    Entry e = buffer.front();
    buffer.pop_front();
    NOVA_ASSERT(store.bufferCount(e.local) > 0);
    --store.bufferCount(e.local);
    maybePrefetch();
    return e;
}

void
Vmu::spillFifo(VertexId local)
{
    // Two writes per spill (Table I): the vertex set write happens via
    // the MPU's cache; the FIFO append is an extra 16 B write.
    fifo.push_back(local);
    ++fifoWrites;
    ++spills;
    postFifoWrite(fifoRegionBase + fifoTail);
    fifoTail += cfg.vertexBytes;
    maybeFifoFetch();
}

void
Vmu::postFifoWrite(sim::Addr addr)
{
    if (!vmem.tryAccess(addr, cfg.vertexBytes, true, {}))
        vmem.waitForSpace([this, addr] { postFifoWrite(addr); });
}

void
Vmu::maybeFifoFetch()
{
    if (fifoFetchActive || fifo.empty())
        return;
    const std::uint32_t threshold =
        std::min(cfg.prefetchThreshold,
                 std::max(1u, cfg.activeBufferEntries / 2));
    if (freeSlots() < threshold)
        return;
    fifoFetchActive = true;
    fifoFetchPending = std::min<std::uint32_t>(
        cfg.prefetchBurstBlocks, static_cast<std::uint32_t>(fifo.size()));
    const std::uint32_t n = fifoFetchPending;
    for (std::uint32_t i = 0; i < n; ++i) {
        const VertexId local = fifo.front();
        fifo.pop_front();
        reservedSlots += 1;
        issueFifoRead();
        // The entry read returns the vertex id; the block read that
        // follows (inside onFifoEntryFetched) supplies the value.
        eventQueue().scheduleIn(0, [this, local] {
            onFifoEntryFetched(local);
        });
    }
}

void
Vmu::issueFifoRead()
{
    const sim::Addr addr = fifoRegionBase + fifoHead;
    fifoHead += cfg.vertexBytes;
    postFifoRead(addr);
}

void
Vmu::postFifoRead(sim::Addr addr)
{
    if (!vmem.tryAccess(addr, cfg.vertexBytes, false, {}))
        vmem.waitForSpace([this, addr] { postFifoRead(addr); });
}

void
Vmu::onFifoEntryFetched(VertexId local)
{
    // Read the vertex block to obtain the current value.
    const std::uint32_t block = store.blockOf(local);
    const bool ok = vmem.tryAccess(
        store.blockAddr(block), cfg.blockBytes, false, [this, local] {
            reservedSlots -= 1;
            directInsert(local, program.propagateValue(
                                    store.cur(local),
                                    store.globalOf(local)));
            usefulPrefetchBytes += cfg.blockBytes + cfg.vertexBytes;
            NOVA_ASSERT(fifoFetchPending > 0);
            if (--fifoFetchPending == 0) {
                fifoFetchActive = false;
                maybeFifoFetch();
            }
        });
    if (!ok)
        vmem.waitForSpace([this, local] { onFifoEntryFetched(local); });
}

} // namespace nova::core
