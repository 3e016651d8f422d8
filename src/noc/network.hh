/**
 * @file
 * Interconnect models (Sec. IV-C).
 *
 * Three topologies are provided:
 *  - PePointToPointNetwork: the intra-GPN 8x8 electrical network with a
 *    dedicated serializing link per PE pair (Table II, 1.2 GB/s/link);
 *  - HierarchicalNetwork: intra-GPN point-to-point links plus an
 *    inter-GPN crossbar with 60 GB/s ports (the proposed system);
 *  - IdealNetwork: infinite bandwidth, fixed latency (the Fig. 9c
 *    comparison point).
 *
 * All networks expose the same contract: senders call trySend() (which
 * may refuse under backpressure), receivers pop per-PE inbound queues.
 * End-to-end backpressure is modelled with per-destination credits.
 */

#ifndef NOVA_NOC_NETWORK_HH
#define NOVA_NOC_NETWORK_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "noc/message.hh"
#include "sim/sim_object.hh"

namespace nova::noc
{

using sim::Tick;

/** Shared configuration of all network models. */
struct NetworkConfig
{
    /** Total number of PEs attached (numGpns * pesPerGpn). */
    std::uint32_t numPes = 8;
    /** PEs per GPN (defines locality domains). */
    std::uint32_t pesPerGpn = 8;
    /** Wire size of one message in bytes (vertex id + update). */
    std::uint32_t messageBytes = 8;
    /** Outstanding messages allowed per destination PE. */
    std::uint32_t creditsPerDst = 96;
    /** Intra-GPN link bandwidth in GB/s (Table II: 1.2). */
    double linkGBs = 1.2;
    /** Intra-GPN link propagation latency. */
    Tick linkLatency = 5000;
    /** Inter-GPN crossbar port bandwidth in GB/s (Table II: 60). */
    double portGBs = 60.0;
    /** Crossbar traversal latency. */
    Tick xbarLatency = 100000;
    /** Latency of a message to a vertex on the sending PE itself. */
    Tick selfLatency = 500;
};

/**
 * Base class: inbound queues, credits, stats and the staged-pipe
 * machinery subclasses route through.
 */
class Network : public sim::SimObject
{
  public:
    Network(std::string name, sim::EventQueue &queue,
            const NetworkConfig &config);

    const NetworkConfig &config() const { return cfg; }

    /**
     * Try to inject a message. Fails (returns false) when the
     * destination is out of credits or the first hop is saturated; the
     * sender should register with waitForSpace().
     *
     * The endpoint contract (trySend / waitForSpace / popInbound /
     * inboundEmpty / inboundSize / setInboundNotify /
     * messagesInNetwork) is virtual so the sharded fabric of the
     * parallel scheduler can keep the state per shard while MPU/MGU
     * stay agnostic.
     */
    virtual bool trySend(const Message &msg);

    /** One-shot retry callback for a sender blocked by trySend(). */
    virtual void waitForSpace(std::uint32_t src_pe, sim::EventFn retry);

    /** True when PE `pe` has no waiting inbound message. */
    virtual bool inboundEmpty(std::uint32_t pe) const
    {
        return inbound[pe].empty();
    }

    /** Number of waiting inbound messages for PE `pe`. */
    virtual std::size_t inboundSize(std::uint32_t pe) const
    {
        return inbound[pe].size();
    }

    /** Pop the next inbound message for PE `pe`. @pre !inboundEmpty. */
    virtual Message popInbound(std::uint32_t pe);

    /** Callback fired whenever a message lands in pe's empty queue. */
    virtual void setInboundNotify(std::uint32_t pe,
                                  std::function<void()> fn)
    {
        inboundNotify[pe] = std::move(fn);
    }

    /** Messages currently inside the network or in inbound queues. */
    virtual std::uint64_t messagesInNetwork() const { return inFlight; }

    /** @{ @name Statistics */
    sim::stats::Scalar messagesSent;
    sim::stats::Scalar bytesSent;
    sim::stats::Scalar selfMessages;
    sim::stats::Scalar crossGpnMessages;
    sim::stats::Scalar totalLatency;
    sim::stats::Scalar sendRejects;
    /** @} */

  protected:
    /** One serializing pipe stage (a link or a switch port). */
    class Stage
    {
      public:
        Stage(Network &owner, Tick serialization, Tick latency);

        /** Queue a message; `deliver` fires after ser + latency. */
        void push(Message msg, Tick inject_tick);

        std::size_t depth() const { return q.size(); }

      private:
        void work();

        Network &net;
        Tick serTicks;
        Tick latTicks;
        struct Pending
        {
            Message msg;
            Tick injected;
        };
        std::deque<Pending> q;
        sim::SelfEvent workEvent;
    };

    friend class Stage;

    /**
     * Subclass routing: enqueue the message into its first stage, or
     * return false when that stage is saturated. The subclass's stages
     * must eventually call deliver().
     */
    virtual bool route(const Message &msg) = 0;

    /** Final hop: place the message into the destination's inbound. */
    void deliver(const Message &msg, Tick inject_tick);

    /**
     * Called when a message finishes traversing a stage. The default
     * delivers to the destination; multi-hop fabrics override this to
     * chain stages.
     */
    virtual void onStageExit(Stage &stage, const Message &msg,
                             Tick inject_tick);

    /** Stages call this after freeing a queue slot. */
    void wakeSendersFromStage() { wakeSenders(); }

    /** Helper: serialization ticks for one message at `gbps` GB/s. */
    Tick serializationTicks(double gbps) const;

    std::uint32_t gpnOf(std::uint32_t pe) const
    {
        return pe / cfg.pesPerGpn;
    }

    NetworkConfig cfg;

  private:
    void wakeSenders();

    std::vector<std::deque<Message>> inbound;
    std::vector<std::function<void()>> inboundNotify;
    std::vector<std::uint32_t> credits;
    std::vector<std::pair<std::uint32_t, sim::EventFn>> waiters;
    /** The buffer wakeSenders() swaps in, so neither list reallocates. */
    std::vector<std::pair<std::uint32_t, sim::EventFn>> spareWaiters;
    std::uint64_t inFlight = 0;
};

/** Intra-GPN full point-to-point mesh; valid for a single GPN. */
class PePointToPointNetwork : public Network
{
  public:
    PePointToPointNetwork(std::string name, sim::EventQueue &queue,
                          const NetworkConfig &config);

  protected:
    bool route(const Message &msg) override;

  private:
    /** links[src][dst], lazily built. */
    std::vector<std::vector<std::unique_ptr<Stage>>> links;
};

/**
 * The proposed system fabric: point-to-point links inside a GPN and a
 * crossbar between GPNs (uplink port -> switch -> downlink port).
 */
class HierarchicalNetwork : public Network
{
  public:
    HierarchicalNetwork(std::string name, sim::EventQueue &queue,
                        const NetworkConfig &config);

  protected:
    bool route(const Message &msg) override;
    void onStageExit(Stage &stage, const Message &msg,
                     Tick inject_tick) override;

  private:
    std::vector<std::vector<std::unique_ptr<Stage>>> intraLinks;
    std::vector<std::unique_ptr<Stage>> uplinks;
    std::vector<std::unique_ptr<Stage>> downlinks;
};

/** Infinite-bandwidth fixed-latency network (Fig. 9c "P2P" ideal). */
class IdealNetwork : public Network
{
  public:
    IdealNetwork(std::string name, sim::EventQueue &queue,
                 const NetworkConfig &config);

  protected:
    bool route(const Message &msg) override;
};

/** The fabric choices exposed in configs and benches. */
enum class FabricKind
{
    PointToPoint,
    Hierarchical,
    Ideal,
};

/** Factory used by the system builder. */
std::unique_ptr<Network> makeNetwork(FabricKind kind, std::string name,
                                     sim::EventQueue &queue,
                                     const NetworkConfig &config);

} // namespace nova::noc

#endif // NOVA_NOC_NETWORK_HH
