#include "mem/cache.hh"

#include "sim/logging.hh"

namespace nova::mem
{

DirectMappedCache::DirectMappedCache(std::string name,
                                     sim::EventQueue &queue,
                                     const CacheConfig &config,
                                     MemorySystem &backing)
    : SimObject(std::move(name), queue), cfg(config), mem(backing),
      numLines(std::max<std::size_t>(1, cfg.sizeBytes / cfg.lineBytes)),
      lines(numLines), mshrs(cfg.numMshrs), mshrLine(cfg.numMshrs, noLine)
{
    NOVA_ASSERT(cfg.lineBytes > 0 && cfg.numMshrs > 0);
    for (std::size_t i = 0; i < mshrs.size(); ++i)
        freeMshrs.push_back(i);

    statistics().addScalar("hits", &hits);
    statistics().addScalar("misses", &misses);
    statistics().addScalar("evictions", &evictions);
    statistics().addScalar("writebacks", &writebacks);
    statistics().addScalar("mshrRejects", &mshrRejects);
    statistics().addScalar("eccCorrected", &eccCorrected);

    if (sim::FaultInjector *inj = queue.faultInjector())
        eccPoint = inj->registerPoint("cache.ecc", this->name());
}

bool
DirectMappedCache::contains(sim::Addr addr) const
{
    const sim::Addr line_addr = lineAddrOf(addr);
    const Line &line = lines[indexOf(line_addr)];
    return line.valid && line.tag == tagOf(line_addr);
}

std::size_t
DirectMappedCache::findMshr(sim::Addr line_addr) const
{
    // A handful of MSHRs: a scan beats hashing, and allocates nothing.
    for (std::size_t i = 0; i < mshrLine.size(); ++i)
        if (mshrLine[i] == line_addr)
            return i;
    return mshrs.size();
}

bool
DirectMappedCache::access(sim::Addr addr, bool write, MemCallback done)
{
    const sim::Addr line_addr = lineAddrOf(addr);
    Line &line = lines[indexOf(line_addr)];

    if (line.valid && line.tag == tagOf(line_addr)) {
        ++hits;
        line.dirty = line.dirty || write;
        sim::Tick latency = cfg.hitLatency;
        if (eccPoint && eccPoint->fire()) {
            // Line ECC detects and corrects the flip on the read path;
            // the correction pipeline adds a fixed delay.
            ++eccCorrected;
            latency = sim::tickAdd(latency, cfg.eccCorrectLatency);
        }
        eventQueue().scheduleIn(latency, std::move(done));
        return true;
    }

    // Miss: merge into an outstanding fill when one exists.
    if (const std::size_t m = findMshr(line_addr); m < mshrs.size()) {
        ++misses;
        mshrs[m].targets.emplace_back(write, std::move(done));
        return true;
    }

    if (freeMshrs.empty()) {
        ++mshrRejects;
        return false;
    }

    ++misses;
    const std::size_t slot = freeMshrs.back();
    freeMshrs.pop_back();
    mshrLine[slot] = line_addr;
    mshrs[slot].targets.clear();
    mshrs[slot].targets.emplace_back(write, std::move(done));
    mshrs[slot].issued = false;
    issueFill(slot);
    return true;
}

void
DirectMappedCache::waitForSpace(MemCallback retry)
{
    spaceWaiters.push_back(std::move(retry));
}

void
DirectMappedCache::issueFill(std::size_t mshr_slot)
{
    Mshr &m = mshrs[mshr_slot];
    const bool ok = mem.tryAccess(mshrLine[mshr_slot], cfg.lineBytes, false,
                                  [this, mshr_slot] {
                                      fillDone(mshr_slot);
                                  });
    if (ok) {
        m.issued = true;
    } else {
        mem.waitForSpace([this, mshr_slot] { issueFill(mshr_slot); });
    }
}

void
DirectMappedCache::fillDone(std::size_t mshr_slot)
{
    Mshr &m = mshrs[mshr_slot];
    const sim::Addr line_addr = mshrLine[mshr_slot];
    Line &line = lines[indexOf(line_addr)];
    const std::uint64_t new_tag = tagOf(line_addr);

    // Evict the victim only now that the fill data has arrived.
    if (line.valid && line.tag != new_tag) {
        ++evictions;
        if (line.dirty) {
            ++writebacks;
            const sim::Addr victim_addr =
                (line.tag * numLines + indexOf(line_addr)) *
                cfg.lineBytes;
            if (evictHook)
                evictHook(victim_addr);
            postWriteback(victim_addr);
        }
    }

    line.valid = true;
    line.tag = new_tag;
    line.dirty = false;
    for (auto &[is_write, done] : m.targets) {
        line.dirty = line.dirty || is_write;
        if (done)
            eventQueue().scheduleIn(0, std::move(done));
    }
    m.targets.clear();
    mshrLine[mshr_slot] = noLine;
    freeMshrs.push_back(mshr_slot);

    if (!spaceWaiters.empty()) {
        eventQueue().scheduleIn(0, std::move(spaceWaiters.front()));
        spaceWaiters.erase(spaceWaiters.begin());
    }
}

void
DirectMappedCache::postWriteback(sim::Addr victim_addr)
{
    // Posted write-back, retried until the channel accepts it.
    if (!mem.tryAccess(victim_addr, cfg.lineBytes, true, {}))
        mem.waitForSpace([this, victim_addr] { postWriteback(victim_addr); });
}

void
DirectMappedCache::flushAllDirty()
{
    for (std::size_t idx = 0; idx < lines.size(); ++idx) {
        Line &line = lines[idx];
        if (line.valid && line.dirty) {
            ++writebacks;
            const sim::Addr addr = (line.tag * numLines + idx) *
                                   cfg.lineBytes;
            if (evictHook)
                evictHook(addr);
            line.dirty = false;
        }
    }
}

} // namespace nova::mem
