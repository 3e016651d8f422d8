/**
 * @file
 * Allocation guard for the event path.
 *
 * This program replaces the global operator new with a counting one and
 * requires that a warmed-up simulator performs no heap allocation at
 * all in steady state:
 *
 *   nova_alloc_guard events  1M events whose closures each carry a
 *                            noc::Message and a tick, at horizons from
 *                            the same tick to beyond the calendar window
 *   nova_alloc_guard memory  a DirectMappedCache over a MemorySystem
 *                            serving a closed-loop mix of hits, misses
 *                            (with MSHR merges and dirty write-backs)
 *                            and multi-atom reads, with back-pressure
 *
 * It is its own executable because the test framework allocates. Exit
 * code 0 when the measured phase allocated nothing, 1 otherwise.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "noc/message.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace
{

/** Heap allocations so far; the program is single-threaded. */
std::uint64_t allocations = 0;

void *
countedAlloc(std::size_t n)
{
    ++allocations;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace
{

using namespace nova;
using sim::Tick;

/**
 * Message-carrying event chains. Each chain reschedules itself with a
 * fixed period and posts a same-tick acknowledgement; the periods are
 * powers of two up to twice the calendar window, so the pending set
 * repeats exactly every 2^19 ticks and a warm-up of two such periods
 * reaches every capacity the queue will need.
 */
class EventChains
{
  public:
    static constexpr Tick cycle = Tick(1) << 19;

    explicit EventChains(std::uint32_t chains)
    {
        static constexpr Tick periods[] = {128, 1024, 65536, cycle};
        for (std::uint32_t c = 0; c < chains; ++c) {
            noc::Message msg;
            msg.dstVertex = c;
            msg.dstPe = c % 64;
            msg.srcPe = c % 7;
            const Tick period = periods[c % 4];
            eq.schedule(Tick(c) * 8, [this, msg, period] {
                fire(msg, period);
            });
        }
    }

    sim::EventQueue eq{sim::EventQueue::Impl::Calendar};
    std::uint64_t checksum = 0;

  private:
    void
    fire(noc::Message msg, Tick period)
    {
        const Tick sent = eq.now();
        ++msg.update;
        eq.scheduleIn(0, [this, msg, sent] {
            checksum += msg.update ^ msg.dstVertex ^ sent;
        });
        eq.scheduleIn(period, [this, msg, period] { fire(msg, period); });
    }
};

int
guardEvents()
{
    EventChains chains(256);
    chains.eq.run(2 * EventChains::cycle);
    const std::uint64_t before = allocations;
    const std::uint64_t ran = chains.eq.run(sim::maxTick, 1'000'000);
    const std::uint64_t allocated = allocations - before;
    std::printf("events: %llu events after warm-up, %llu allocations "
                "(checksum %llx)\n",
                static_cast<unsigned long long>(ran),
                static_cast<unsigned long long>(allocated),
                static_cast<unsigned long long>(chains.checksum));
    return ran == 1'000'000 && allocated == 0 ? 0 : 1;
}

/**
 * Closed-loop clients of a small cache over a two-channel memory. Each
 * client issues its next operation when the previous one completes, or
 * when the component that refused it has room again.
 */
class MemoryClients
{
  public:
    explicit MemoryClients(std::uint32_t clients)
        : mem("mem", eq, timing(), 2),
          cache("cache", eq, cacheConfig(), mem), rng(11)
    {
        for (std::uint32_t c = 0; c < clients; ++c)
            eq.schedule(c, [this] { issue(); });
    }

    sim::EventQueue eq{sim::EventQueue::Impl::Calendar};
    mem::MemorySystem mem;
    mem::DirectMappedCache cache;
    std::uint64_t completed = 0;

  private:
    static mem::DramTiming
    timing()
    {
        mem::DramTiming t = mem::DramTiming::hbm2Channel();
        t.queueCapacity = 8;
        return t;
    }

    static mem::CacheConfig
    cacheConfig()
    {
        mem::CacheConfig c;
        c.sizeBytes = 4096;
        c.numMshrs = 4;
        return c;
    }

    void
    issue()
    {
        const std::uint64_t pick = rng.nextBounded(8);
        if (pick < 3) {
            // Hit set: 32 lines that stay resident.
            access(rng.nextBounded(32) * 32, pick == 0);
        } else if (pick < 6) {
            // Misses over 1 MiB, conflicting with the hit set now and
            // then; writes leave dirty lines to evict.
            access(4096 + rng.nextBounded(1 << 15) * 32, pick == 3);
        } else if (pick == 6) {
            // A line another client is likely filling: MSHR merge.
            access(4096 + (lastMiss % (1 << 15)) * 32, false);
        } else {
            // Multi-atom read straight from memory (3 atoms).
            const sim::Addr a = (1 << 21) + rng.nextBounded(1 << 14) * 96;
            if (!mem.tryAccess(a, 96, false, [this] { done(); }))
                mem.waitForSpace([this] { issue(); });
        }
    }

    void
    access(sim::Addr addr, bool write)
    {
        lastMiss = addr / 32;
        if (!cache.access(addr, write, [this] { done(); }))
            cache.waitForSpace([this] { issue(); });
    }

    void
    done()
    {
        ++completed;
        issue();
    }

    sim::Rng rng;
    std::uint64_t lastMiss = 0;
};

int
guardMemory()
{
    MemoryClients clients(24);
    clients.eq.run(sim::maxTick, 300'000);
    const std::uint64_t before = allocations;
    const std::uint64_t ran = clients.eq.run(sim::maxTick, 300'000);
    const std::uint64_t allocated = allocations - before;
    std::printf("memory: %llu events after warm-up (%.0f hits, %.0f "
                "misses, %.0f write-backs, %llu completions), %llu "
                "allocations\n",
                static_cast<unsigned long long>(ran),
                clients.cache.hits.value(), clients.cache.misses.value(),
                clients.cache.writebacks.value(),
                static_cast<unsigned long long>(clients.completed),
                static_cast<unsigned long long>(allocated));
    const bool mixed = clients.cache.hits.value() > 0 &&
                       clients.cache.misses.value() > 0 &&
                       clients.cache.writebacks.value() > 0;
    return ran == 300'000 && mixed && allocated == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "events") == 0)
        return guardEvents();
    if (argc == 2 && std::strcmp(argv[1], "memory") == 0)
        return guardMemory();
    std::fprintf(stderr, "usage: nova_alloc_guard events|memory\n");
    return 2;
}
