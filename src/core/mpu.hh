/**
 * @file
 * The Message Processing Unit (Sec. III-B): consumes network messages,
 * reads the target vertex block through the per-PE direct-mapped cache,
 * applies the reduce function and reports activations to the VMU.
 *
 * The MPU never blocks on the VMU or MGU — the deadlock-freedom
 * requirement of the decoupled design (Sec. III, point 2).
 */

#ifndef NOVA_CORE_MPU_HH
#define NOVA_CORE_MPU_HH

#include <optional>
#include <vector>

#include "core/config.hh"
#include "core/run_state.hh"
#include "core/vertex_store.hh"
#include "core/vmu.hh"
#include "mem/cache.hh"
#include "noc/network.hh"
#include "sim/profile.hh"
#include "sim/sim_object.hh"

namespace nova::core
{

/** The message processing unit of one PE. */
class Mpu : public sim::ClockedObject
{
  public:
    Mpu(std::string name, sim::EventQueue &queue, const NovaConfig &cfg,
        std::uint32_t pe, VertexStore &store, mem::DirectMappedCache &cache,
        noc::Network &net, Vmu &vmu, workloads::VertexProgram &prog,
        const graph::VertexMapping &map, RunCounters &counters);

    void startup() override;

    /** Vertices whose accumulator was touched this BSP superstep. */
    const std::vector<VertexId> &touched() const { return touchedList; }

    /** Reset the touched set at a BSP barrier. */
    void clearTouched();

    /** Messages popped but not yet reduced (0 once drained). */
    std::uint64_t pendingWork() const { return stalled ? 1 : 0; }

    /** @{ @name Statistics */
    sim::stats::Scalar reductions;
    sim::stats::Scalar activations;
    sim::stats::Scalar bspCoalesced;
    /** @} */

  private:
    void wake();
    void work();
    void finishReduce(const noc::Message &msg);

    const NovaConfig &cfg;
    std::uint32_t peIndex;
    VertexStore &store;
    mem::DirectMappedCache &cache;
    noc::Network &net;
    Vmu &vmu;
    workloads::VertexProgram &program;
    const graph::VertexMapping &mapping;
    RunCounters &counters;
    bool bspMode;

    sim::SelfEvent workEvent;
    std::optional<noc::Message> stalled;
    sim::profile::Site &profWork;   ///< host time in work()
    sim::profile::Site &profReduce; ///< host time in finishReduce()

    std::vector<std::uint8_t> touchedFlag;
    std::vector<VertexId> touchedList;
};

} // namespace nova::core

#endif // NOVA_CORE_MPU_HH
