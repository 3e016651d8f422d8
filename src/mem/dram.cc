#include "mem/dram.hh"

#include <algorithm>
#include <bit>
#include <memory>

#include "sim/logging.hh"

namespace nova::mem
{

double
DramTiming::peakBytesPerSec() const
{
    return static_cast<double>(accessBytes) /
           (static_cast<double>(tBurst) / static_cast<double>(sim::tickS));
}

DramTiming
DramTiming::hbm2Channel()
{
    DramTiming t;
    t.accessBytes = 32;
    t.tBurst = 1000;        // 32 B / 32 GB/s = 1 ns
    t.numBanks = 32;        // 2 pseudo-channels x 16 banks
    t.tRowHit = 14000;      // ~14 ns CAS
    t.tRowMiss = 42000;     // ~42 ns PRE+ACT+CAS
    t.rowBytes = 1024;
    t.frontendLatency = 6000;
    t.queueCapacity = 64;
    t.issueGap = 250;
    return t;
}

DramTiming
DramTiming::ddr4Channel()
{
    DramTiming t;
    t.accessBytes = 64;
    t.tBurst = 3333;        // 64 B / 19.2 GB/s ≈ 3.33 ns
    t.numBanks = 16;
    t.tRowHit = 15000;
    t.tRowMiss = 45000;
    t.rowBytes = 8192;
    t.frontendLatency = 8000;
    t.queueCapacity = 256;
    t.issueGap = 833;
    return t;
}

DramTiming
DramTiming::hbm2eChannel()
{
    DramTiming t = hbm2Channel();
    t.tBurst = 696;         // 32 B / 46 GB/s
    t.tRowHit = 13000;
    t.tRowMiss = 40000;
    t.issueGap = 174;
    return t;
}

DramTiming
DramTiming::ddr5Channel()
{
    DramTiming t = ddr4Channel();
    t.tBurst = 1667;        // 64 B / 38.4 GB/s
    t.numBanks = 32;        // DDR5: more bank groups
    t.issueGap = 417;
    return t;
}

DramTiming
DramTiming::lpddr5Channel()
{
    DramTiming t;
    t.accessBytes = 32;
    t.tBurst = 1250;        // 32 B / 25.6 GB/s
    t.numBanks = 16;
    t.tRowHit = 18000;
    t.tRowMiss = 54000;
    t.rowBytes = 2048;
    t.frontendLatency = 8000;
    t.queueCapacity = 64;
    t.issueGap = 313;
    return t;
}

DramChannel::DramChannel(std::string name, sim::EventQueue &queue,
                         const DramTiming &timing)
    : SimObject(std::move(name), queue), cfg(timing),
      bankReadyAt(cfg.numBanks, 0), openRow(cfg.numBanks, -1),
      issueEvent(queue, [this] { issueOne(); }),
      profIssue(sim::profile::Registry::instance().site(this->name(),
                                                        "dram.issue"))
{
    statistics().addScalar("bytesRead", &bytesRead);
    statistics().addScalar("bytesWritten", &bytesWritten);
    statistics().addScalar("rowHits", &rowHits);
    statistics().addScalar("rowMisses", &rowMisses);
    statistics().addScalar("busBusyTicks", &busBusyTicks);
    statistics().addScalar("totalQueueLatency", &totalQueueLatency);
    statistics().addScalar("numAccesses", &numAccesses);
    statistics().addScalar("eccCorrected", &eccCorrected);
    statistics().addScalar("eccRereads", &eccRereads);
    statistics().addScalar("txnRetries", &txnRetries);

    this->queue.reserve(cfg.queueCapacity);
    keys.reserve(cfg.queueCapacity);

    if (sim::FaultInjector *inj = queue.faultInjector()) {
        bitflipPoint = inj->registerPoint("dram.bitflip", this->name());
        txnPoint = inj->registerPoint("dram.txn", this->name());
    }
}

std::uint32_t
DramChannel::bankOf(Addr addr) const
{
    return static_cast<std::uint32_t>((addr / cfg.accessBytes) %
                                      cfg.numBanks);
}

std::uint64_t
DramChannel::rowOf(Addr addr) const
{
    const std::uint64_t atoms_per_row = cfg.rowBytes / cfg.accessBytes;
    return (addr / cfg.accessBytes) / (cfg.numBanks * atoms_per_row);
}

bool
DramChannel::tryAccess(Addr addr, bool write, MemCallback done)
{
    if (queue.size() >= cfg.queueCapacity)
        return false;
    std::uint32_t parked_at = noCallback;
    if (done) {
        if (freeParked.empty()) {
            parked_at = static_cast<std::uint32_t>(parked.size());
            parked.push_back(std::move(done));
        } else {
            parked_at = freeParked.back();
            freeParked.pop_back();
            parked[parked_at] = std::move(done);
        }
    }
    queue.push_back(Request{addr, now(), parked_at, write});
    keys.push_back(ScanKey{rowOf(addr), bankOf(addr)});
    trySchedule();
    return true;
}

void
DramChannel::waitForSpace(MemCallback retry)
{
    spaceWaiters.push_back(std::move(retry));
}

void
DramChannel::trySchedule()
{
    if (queue.empty())
        return;
    const Tick target = std::max(now(), nextIssueAt);
    if (issueEvent.scheduled()) {
        // A new arrival may be servable before a previously scheduled
        // bank-ready wait; pull the event forward.
        if (issueEvent.when() <= target)
            return;
        issueEvent.deschedule();
    }
    issueEvent.schedule(target);
}

void
DramChannel::issueOne()
{
    NOVA_PROF_SCOPE(profIssue);
    if (queue.empty())
        return;

    // FR-FCFS-lite: prefer the oldest row hit on a ready bank, then the
    // oldest request on a ready bank, then the overall oldest.
    const Tick t = now();
    std::size_t chosen = queue.size();
    int best_class = 2;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const ScanKey &k = keys[i];
        if (bankReadyAt[k.bank] > t)
            continue;
        if (openRow[k.bank] == static_cast<std::int64_t>(k.row)) {
            chosen = i;
            best_class = 0;
            break;
        }
        if (best_class > 1) {
            best_class = 1;
            chosen = i;
        }
    }

    if (best_class == 2) {
        // No bank can accept a command yet; wait instead of committing
        // a request to a busy bank (which would serialize the banks).
        Tick earliest_ready = sim::maxTick;
        for (const ScanKey &k : keys)
            earliest_ready = std::min(earliest_ready, bankReadyAt[k.bank]);
        issueEvent.schedule(std::max(earliest_ready, nextIssueAt));
        return;
    }

    const std::uint32_t b = keys[chosen].bank;
    const std::uint64_t row = keys[chosen].row;
    const Request req = queue[chosen];
    queue.erase(queue.begin() +
                static_cast<std::ptrdiff_t>(chosen));
    keys.erase(keys.begin() + static_cast<std::ptrdiff_t>(chosen));

    const bool hit = openRow[b] == static_cast<std::int64_t>(row);
    const Tick access_lat = hit ? cfg.tRowHit : cfg.tRowMiss;

    const Tick start = std::max(t, bankReadyAt[b]);
    const Tick data_at = start + cfg.frontendLatency + access_lat;
    const Tick bus_start = std::max(data_at, busFreeAt);
    const Tick bus_end = bus_start + cfg.tBurst;

    busFreeAt = bus_end;
    // The bank recovers after its own row cycle; it must not be held
    // hostage to data-bus queueing or bank-level parallelism collapses.
    bankReadyAt[b] = start + access_lat + cfg.tBurst;
    openRow[b] = static_cast<std::int64_t>(row);

    (hit ? rowHits : rowMisses) += 1;
    (req.write ? bytesWritten : bytesRead) += cfg.accessBytes;
    busBusyTicks += cfg.tBurst;
    numAccesses += 1;
    totalQueueLatency += static_cast<double>(bus_end - req.enqueued);

    // Fault injection on the data path. The returned data is always
    // correct (data lives in the caller's functional arrays); the ECC /
    // retry machinery is modeled as extra completion latency plus the
    // recovery statistics, which is what the architecture pays.
    Tick done_at = bus_end;
    std::uint64_t mask = 0;
    if (!req.write && bitflipPoint && bitflipPoint->fire(&mask)) {
        if (std::popcount(mask) == 1) {
            // SECDED corrects single-bit flips inline.
            eccCorrected += 1;
            done_at = sim::tickAdd(done_at, cfg.eccCorrectLatency);
        } else {
            // Multi-bit flip: detected-uncorrectable, recovered by a
            // full re-read of the atom (worst-case row cycle + burst).
            eccRereads += 1;
            done_at = sim::tickAdd(
                done_at, sim::tickAdd(cfg.tRowMiss, cfg.tBurst));
        }
    }
    if (txnPoint && txnPoint->fire()) {
        // Transaction error (bad CRC on the command/data link): the
        // controller reissues the whole access.
        txnRetries += 1;
        done_at = sim::tickAdd(
            done_at, sim::tickAdd(cfg.frontendLatency,
                                  sim::tickAdd(cfg.tRowMiss, cfg.tBurst)));
    }

    if (req.parkedAt != noCallback) {
        eventQueue().schedule(done_at, std::move(parked[req.parkedAt]));
        freeParked.push_back(req.parkedAt);
    }

    nextIssueAt = t + cfg.issueGap;
    if (!queue.empty())
        issueEvent.schedule(nextIssueAt);

    // Space freed: wake one waiter per freed slot.
    if (!spaceWaiters.empty()) {
        eventQueue().schedule(t, std::move(spaceWaiters.front()));
        spaceWaiters.erase(spaceWaiters.begin());
    }
}

double
DramChannel::achievedBytesPerSec() const
{
    const Tick elapsed = now();
    if (elapsed == 0)
        return 0;
    return (bytesRead.value() + bytesWritten.value()) /
           sim::ticksToSeconds(elapsed);
}

MemorySystem::MemorySystem(std::string name, sim::EventQueue &queue,
                           const DramTiming &timing,
                           std::uint32_t num_channels,
                           std::uint32_t interleave_bytes)
    : SimObject(std::move(name), queue), cfg(timing),
      interleaveBytes(interleave_bytes ? interleave_bytes
                                       : timing.accessBytes),
      atomsPerChannel(num_channels, 0)
{
    NOVA_ASSERT(num_channels > 0);
    for (std::uint32_t i = 0; i < num_channels; ++i) {
        owned.push_back(std::make_unique<DramChannel>(
            this->name() + ".ch" + std::to_string(i), queue, timing));
        channels.push_back(owned.back().get());
        statistics().addChild(&channels.back()->statistics());
    }
}

double
MemorySystem::peakBytesPerSec() const
{
    return cfg.peakBytesPerSec() * static_cast<double>(channels.size());
}

double
MemorySystem::achievedBytesPerSec() const
{
    double sum = 0;
    for (const auto *ch : channels)
        sum += ch->achievedBytesPerSec();
    return sum;
}

DramChannel &
MemorySystem::channelFor(Addr addr)
{
    return *channels[channelIndex(addr)];
}

bool
MemorySystem::tryAccess(Addr addr, std::uint32_t bytes, bool write,
                        MemCallback done)
{
    const Addr first = addr / cfg.accessBytes;
    const Addr last = (addr + std::max<std::uint32_t>(bytes, 1) - 1) /
                      cfg.accessBytes;
    const auto num_atoms = static_cast<std::uint32_t>(last - first + 1);

    if (num_atoms == 1) {
        // Single-atom fast path: no completion counting needed, so the
        // callback goes straight to the channel with no allocation. An
        // empty callback still becomes a no-op completion event, which
        // the counting path always scheduled — event order and replay
        // fingerprints must not depend on which path a request took.
        if (!done)
            done = [] {};
        return channelFor(first * cfg.accessBytes)
            .tryAccess(first * cfg.accessBytes, write, std::move(done));
    }

    // All-or-nothing admission: check capacity first so a multi-atom
    // request is never half-enqueued.
    for (Addr atom = first; atom <= last; ++atom)
        ++atomsPerChannel[channelIndex(atom * cfg.accessBytes)];
    bool fits = true;
    for (std::size_t ci = 0; ci < channels.size(); ++ci) {
        if (channels[ci]->queued() + atomsPerChannel[ci] >
            cfg.queueCapacity)
            fits = false;
        atomsPerChannel[ci] = 0;
    }
    if (!fits)
        return false;

    // Every atom completes as its own event; the last one to finish
    // runs `done` inside its event.
    std::uint32_t s;
    if (freeSplits.empty()) {
        s = static_cast<std::uint32_t>(splits.size());
        splits.emplace_back();
    } else {
        s = freeSplits.back();
        freeSplits.pop_back();
    }
    splits[s].done = std::move(done);
    splits[s].remaining = num_atoms;
    for (Addr atom = first; atom <= last; ++atom) {
        const Addr a = atom * cfg.accessBytes;
        const bool ok =
            channelFor(a).tryAccess(a, write, [this, s] { atomDone(s); });
        NOVA_ASSERT(ok, "channel rejected pre-checked access");
    }
    return true;
}

void
MemorySystem::atomDone(std::uint32_t split)
{
    if (--splits[split].remaining != 0)
        return;
    // Free the record before running `done`: it may issue a new
    // multi-atom access, which can reuse the record or grow `splits`.
    MemCallback done = std::move(splits[split].done);
    freeSplits.push_back(split);
    if (done)
        done();
}

void
MemorySystem::waitForSpace(MemCallback retry)
{
    // Wake the caller when the most loaded channel frees a slot.
    std::size_t worst = 0;
    for (std::size_t i = 1; i < channels.size(); ++i)
        if (channels[i]->queued() > channels[worst]->queued())
            worst = i;
    channels[worst]->waitForSpace(std::move(retry));
}

double
MemorySystem::totalBytes() const
{
    double sum = 0;
    for (const auto *ch : channels)
        sum += ch->bytesRead.value() + ch->bytesWritten.value();
    return sum;
}

} // namespace nova::mem
