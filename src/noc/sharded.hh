/**
 * @file
 * The hierarchical fabric re-expressed per scheduler shard.
 *
 * Under the parallel scheduler every GPN is a shard with a private
 * event queue, so the single-queue HierarchicalNetwork cannot be used:
 * its inbound queues, credit pools, stages and statistics are all
 * shared mutable state. ShardedHierarchicalNetwork keeps every piece
 * of state inside the shard that touches it:
 *
 *  - intra-GPN links, the GPN's crossbar uplink and its downlink are
 *    stages on that shard's own queue;
 *  - inbound queues, intra-GPN credit pools, waiters and
 *    reorder-detection trackers belong to the destination shard;
 *  - cross-GPN flow control uses per-(source shard, destination GPN)
 *    channel credit pools owned by the *source* shard — the credit is
 *    returned by a cross-shard message posted when the destination
 *    pops the message, so quiescence (messagesInNetwork() == 0)
 *    implies every credit is home;
 *  - statistics accumulate in per-shard plain counters, folded into
 *    the base class's Scalar stats at quiescence (foldStats()).
 *
 * The only inter-shard interactions are ParallelScheduler mailbox
 * posts: a message leaving a crossbar uplink at tick t arrives at the
 * destination shard at t + port serialization + xbarLatency, and a
 * credit return travels back with the scheduler's lookahead delay —
 * both at least the lookahead, which is what makes the conservative
 * window sound (docs/PARALLEL.md derives the bound).
 *
 * Timing of the cross path is identical to HierarchicalNetwork's:
 * uplink port serialization + crossbar traversal, then downlink port
 * serialization + intra-GPN link latency.
 */

#ifndef NOVA_NOC_SHARDED_HH
#define NOVA_NOC_SHARDED_HH

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "noc/network.hh"
#include "sim/parallel.hh"

namespace nova::noc
{

/** Hierarchical fabric over the parallel scheduler's shards. */
class ShardedHierarchicalNetwork : public Network
{
  public:
    ShardedHierarchicalNetwork(std::string name,
                               sim::ParallelScheduler &scheduler,
                               const NetworkConfig &config);

    /**
     * The minimum latency of any cross-shard interaction this fabric
     * generates: one tick of port serialization plus the crossbar
     * traversal. The scheduler's lookahead must not exceed this.
     */
    static Tick
    minCrossLookahead(const NetworkConfig &config)
    {
        return sim::tickAdd(config.xbarLatency, 1);
    }

    bool trySend(const Message &msg) override;
    void waitForSpace(std::uint32_t src_pe, sim::EventFn retry) override;
    bool inboundEmpty(std::uint32_t pe) const override;
    std::size_t inboundSize(std::uint32_t pe) const override;
    Message popInbound(std::uint32_t pe) override;
    void setInboundNotify(std::uint32_t pe,
                          std::function<void()> fn) override;
    std::uint64_t messagesInNetwork() const override;

    /**
     * Fold the per-shard statistic deltas into the base Scalar stats.
     * Coordinator thread only, at quiescence; idempotent (each delta is
     * zeroed as it is added).
     */
    void foldStats();

  protected:
    /** Unreachable: trySend is fully overridden. */
    [[noreturn]] bool route(const Message &msg) override;

  private:
    /**
     * A serializing pipe stage owned by one shard. Like
     * Network::Stage, but bound to the shard's queue and finishing
     * through an explicit exit closure (which for the uplink crosses
     * shards via the scheduler's mailboxes instead of scheduling
     * locally).
     */
    class ShardStage
    {
      public:
        using ExitFn =
            std::function<void(const Message &, Tick inject_tick,
                               Tick exit_tick)>;

        ShardStage(sim::EventQueue &queue, Tick serialization,
                   Tick latency, ExitFn on_exit,
                   std::function<void()> on_slot_freed)
            : q(queue), serTicks(serialization), latTicks(latency),
              exitFn(std::move(on_exit)),
              freedFn(std::move(on_slot_freed)),
              workEvent(queue, [this] { work(); })
        {
        }

        void
        push(Message msg, Tick inject_tick)
        {
            pending.push_back(Pending{msg, inject_tick});
            if (!workEvent.scheduled())
                workEvent.schedule(q.now());
        }

        std::size_t depth() const { return pending.size(); }

      private:
        void work();

        sim::EventQueue &q;
        Tick serTicks;
        Tick latTicks;
        ExitFn exitFn;
        std::function<void()> freedFn;
        struct Pending
        {
            Message msg;
            Tick injected;
        };
        std::deque<Pending> pending;
        sim::SelfEvent workEvent;
    };

    /** Per-shard statistic deltas (folded at quiescence). */
    struct StatDeltas
    {
        std::uint64_t messagesSent = 0;
        std::uint64_t selfMessages = 0;
        std::uint64_t crossGpnMessages = 0;
        std::uint64_t sendRejects = 0;
        std::uint64_t reorders = 0;
        double bytesSent = 0;
        double totalLatency = 0;
    };

    struct alignas(64) Shard
    {
        std::vector<std::deque<Message>> inbound;       ///< [localPe]
        std::vector<std::function<void()>> notify;      ///< [localPe]
        std::vector<std::uint32_t> intraCredits;        ///< [localDst]
        std::vector<std::uint32_t> channelCredits;      ///< [dstGpn]
        std::vector<std::pair<std::uint32_t, sim::EventFn>> waiters;
        /** Swapped in by wakeShardSenders() (see Network::wakeSenders). */
        std::vector<std::pair<std::uint32_t, sim::EventFn>> spareWaiters;
        std::uint64_t inFlight = 0;
        std::vector<Tick> lastInjectAt; ///< [localPe]
        StatDeltas d;
        std::vector<std::vector<std::unique_ptr<ShardStage>>> intra;
        std::unique_ptr<ShardStage> uplink;
        std::unique_ptr<ShardStage> downlink;
    };

    std::uint32_t localOf(std::uint32_t pe) const
    {
        return pe % cfg.pesPerGpn;
    }

    void deliverLocal(std::uint32_t shard_idx, const Message &msg,
                      Tick inject_tick);
    void wakeShardSenders(Shard &sh);

    sim::ParallelScheduler &sched;
    std::vector<std::unique_ptr<Shard>> shards;
};

} // namespace nova::noc

#endif // NOVA_NOC_SHARDED_HH
