#include "core/mpu.hh"

#include "workloads/programs.hh"

namespace nova::core
{

Mpu::Mpu(std::string name, sim::EventQueue &queue, const NovaConfig &cfg_,
         std::uint32_t pe, VertexStore &store_,
         mem::DirectMappedCache &cache_, noc::Network &net_, Vmu &vmu_,
         workloads::VertexProgram &prog, const graph::VertexMapping &map,
         RunCounters &counters_)
    : ClockedObject(std::move(name), queue, cfg_.clockPeriod()), cfg(cfg_),
      peIndex(pe), store(store_), cache(cache_), net(net_), vmu(vmu_),
      program(prog), mapping(map), counters(counters_),
      bspMode(prog.mode() == workloads::ExecMode::Bsp),
      workEvent(queue, [this] { work(); }),
      profWork(sim::profile::Registry::instance().site(this->name(),
                                                       "mpu.work")),
      profReduce(sim::profile::Registry::instance().site(this->name(),
                                                         "mpu.reduce"))
{
    statistics().addScalar("reductions", &reductions);
    statistics().addScalar("activations", &activations);
    statistics().addScalar("bspCoalesced", &bspCoalesced);
    statistics().addScalar("reduceRecomputes", &reduceRecomputes);
    if (sim::FaultInjector *inj = queue.faultInjector())
        reducePoint = inj->registerPoint("reduce.bitflip", this->name());
    if (bspMode)
        touchedFlag.assign(store.numLocal(), 0);
}

void
Mpu::startup()
{
    net.setInboundNotify(peIndex, [this] { wake(); });
}

void
Mpu::wake()
{
    workEvent.schedule(clockEdge(0));
}

void
Mpu::work()
{
    NOVA_PROF_SCOPE(profWork);
    std::uint32_t issued = 0;
    while (issued < cfg.reduceFusPerPe) {
        if (!stalled) {
            if (net.inboundEmpty(peIndex))
                break;
            stalled = net.popInbound(peIndex);
        }
        const noc::Message msg = *stalled;
        const VertexId local = mapping.localOf(msg.dstVertex);
        const sim::Addr addr = store.blockAddr(store.blockOf(local));
        const bool ok = cache.access(addr, true, [this, msg] {
            finishReduce(msg);
        });
        if (!ok) {
            // No MSHR: hold the message and retry when one frees.
            cache.waitForSpace([this] { wake(); });
            return;
        }
        stalled.reset();
        ++issued;
    }
    if (stalled || !net.inboundEmpty(peIndex))
        workEvent.schedule(clockEdge(1));
}

void
Mpu::finishReduce(const noc::Message &msg)
{
    NOVA_PROF_SCOPE(profReduce);
    const VertexId local = mapping.localOf(msg.dstVertex);
    ++reductions;
    ++counters.messagesProcessed;

    if (!bspMode) {
        const std::uint64_t old = store.cur(local);
        const std::uint64_t next = checkedReduce(old, msg.update, old);
        store.cur(local) = next;
        if (program.activates(old, next)) {
            ++activations;
            vmu.activate(local, program.propagateValue(
                                    next, store.globalOf(local)));
        }
        return;
    }

    // BSP: reduce into the accumulator; the barrier applies it.
    const std::uint64_t old_acc = store.acc(local);
    store.acc(local) =
        checkedReduce(old_acc, msg.update, store.cur(local));
    if (!touchedFlag[local]) {
        touchedFlag[local] = 1;
        touchedList.push_back(local);
    } else {
        ++bspCoalesced;
    }
}

std::uint64_t
Mpu::checkedReduce(std::uint64_t into, std::uint64_t update,
                   std::uint64_t cur)
{
    const std::uint64_t good = program.reduce(into, update, cur);
    std::uint64_t mask = 0;
    if (reducePoint && reducePoint->fire(&mask)) {
        // The FU produced `good ^ mask`; the residue check catches the
        // mismatch and the reduction is replayed on the spare pass.
        if ((good ^ mask) != good)
            ++reduceRecomputes;
    }
    return good;
}

void
Mpu::clearTouched()
{
    for (const VertexId v : touchedList)
        touchedFlag[v] = 0;
    touchedList.clear();
}

} // namespace nova::core
