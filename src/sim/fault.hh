/**
 * @file
 * Deterministic fault injection, watchdog supervision and crash bundles.
 *
 * A single FaultInjector per simulation owns a parsed fault schedule and
 * hands out FaultPoint handles to components (DRAM channels, caches, NoC
 * fabrics, the VMU spill path). A point is an *opportunity counter*: the
 * component asks `fire()` at every opportunity (a DRAM read completing, a
 * message being delivered, ...) and the injector decides — from the
 * schedule and a per-point seeded Rng — whether a fault occurs there.
 * With no schedule configured every `fire()` is a counter increment and a
 * null check, consumes no random numbers and schedules no events, so a
 * fault-free run is bit-identical to a build without the subsystem.
 *
 * Schedule grammar (shell-safe; also embeddable in replay tokens):
 *
 *   schedule := entry ('+' entry)*
 *   entry    := kind ['@' instance-prefix] ':' trigger [':' 'mask=' hex]
 *   trigger  := 'n=' N        fire exactly at the N-th opportunity (1-based)
 *             | 'every=' N    fire at every N-th opportunity
 *             | 'p=' P        fire with probability P per opportunity
 *
 * e.g. `dram.bitflip:every=64:mask=3+noc.drop@gpn0:n=5`. Known kinds are
 * listed in docs/RESILIENCE.md; configure() rejects unknown kinds and
 * malformed entries via fatal().
 *
 * The Watchdog detects hangs without perturbing the event stream: the
 * EventQueue invokes its check out-of-band every N executed events (no
 * event is scheduled, no sequence number consumed, so the event-order
 * fingerprint is unchanged). Livelock = a full strike budget of check
 * intervals with no progress heartbeat advancing; deadlock = the queue
 * drained while pending-work probes report outstanding work. Both abort
 * with a diagnosis (probe values + recent-event ring) via panic().
 *
 * Crash bundles: when a PanicError escapes to the CLI, the installed
 * crash context (event queue, stats dump, replay token) is written to a
 * bundle file so the failure can be reproduced with one command.
 */

#ifndef NOVA_SIM_FAULT_HH
#define NOVA_SIM_FAULT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/random.hh"

namespace nova::sim
{

class EventQueue;

/** One parsed schedule entry: which points it arms and when they fire. */
struct FaultAction
{
    enum class Trigger
    {
        Nth,   ///< fire exactly at the n-th opportunity (1-based)
        Every, ///< fire at every n-th opportunity
        Prob,  ///< fire with probability p per opportunity
    };

    std::string kind;           ///< e.g. "dram.bitflip"
    std::string instancePrefix; ///< empty matches every instance
    Trigger trigger = Trigger::Every;
    std::uint64_t n = 1;        ///< for Nth / Every
    double p = 0;               ///< for Prob
    std::uint64_t mask = 1;     ///< payload (e.g. bits to flip)
};

/**
 * A registered injection opportunity stream inside one component.
 *
 * Obtained from FaultInjector::registerPoint; components keep the raw
 * pointer (the injector owns the point and outlives the components of
 * one run).
 */
class FaultPoint
{
  public:
    /**
     * Record one opportunity; true when a fault fires here.
     * @param mask_out receives the firing action's mask when non-null.
     */
    bool fire(std::uint64_t *mask_out = nullptr);

    const std::string &kind() const { return kindName; }
    const std::string &instance() const { return instanceName; }
    std::uint64_t opportunities() const { return count; }
    std::uint64_t fired() const { return nFired; }

  private:
    friend class FaultInjector;

    FaultPoint(std::string kind, std::string instance)
        : kindName(std::move(kind)), instanceName(std::move(instance))
    {
    }

    struct Match
    {
        const FaultAction *action;
        Rng rng; ///< private stream for Prob triggers
    };

    std::string kindName;
    std::string instanceName;
    std::vector<Match> matches;
    std::uint64_t count = 0;
    std::uint64_t nFired = 0;
};

/**
 * Central, seeded, schedule-driven fault source for one simulation.
 *
 * Lifecycle: construct with a seed, configure() with a schedule string,
 * attach to the EventQueue, then build components (they register their
 * points in their constructors). configure() must precede registration.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(std::uint64_t seed_value = 0);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Parse and install a schedule; fatal() on malformed input. */
    void configure(const std::string &schedule);

    /** Empty string when valid, otherwise a description of the error. */
    static std::string validateSchedule(const std::string &schedule);

    /** True when at least one schedule entry is armed. */
    bool enabled() const { return !actions.empty(); }

    /** The schedule string this injector was configured with. */
    const std::string &schedule() const { return scheduleText; }

    /**
     * Register an injection point. Instance names are dotted component
     * names (e.g. "gpn0.pe1.vertexMem.ch0") matched by schedule entries
     * via prefix.
     */
    FaultPoint *registerPoint(const std::string &kind,
                              const std::string &instance);

    /** All registered points, in registration order. */
    const std::vector<std::unique_ptr<FaultPoint>> &points() const
    {
        return pts;
    }

    /** Total faults fired across every point. */
    std::uint64_t totalFired() const;

  private:
    std::uint64_t seed;
    std::string scheduleText;
    std::vector<FaultAction> actions;
    std::vector<std::unique_ptr<FaultPoint>> pts;
};

/**
 * Deadlock/livelock supervisor for one EventQueue.
 *
 * Progress probes are monotonically increasing counters that must
 * advance while real work happens (messages processed, memory traffic).
 * Pending probes report outstanding work that must be zero when the
 * queue drains. arm() hooks the queue's out-of-band periodic check.
 */
class Watchdog
{
  public:
    Watchdog(EventQueue &queue, std::uint64_t check_interval_events,
             std::uint32_t strike_budget);
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Register a heartbeat counter that advances with useful work. */
    void addProgress(std::string probe_name,
                     std::function<std::uint64_t()> probe);

    /** Register an outstanding-work gauge (0 at true quiescence). */
    void addPending(std::string probe_name,
                    std::function<std::uint64_t()> probe);

    /** Install the periodic check on the queue. */
    void arm();

    /** Remove the periodic check. */
    void disarm();

    /**
     * Livelock check, invoked by the queue every check interval. Panics
     * with a diagnosis after `strike_budget` intervals without any
     * progress probe advancing.
     */
    void check();

    /**
     * Deadlock check after the queue drained: panics with a diagnosis
     * when any pending probe still reports outstanding work.
     */
    void checkQuiescence() const;

  private:
    struct Probe
    {
        std::string name;
        std::function<std::uint64_t()> fn;
        std::uint64_t last = 0;
    };

    std::string diagnosis(const std::string &verdict) const;

    EventQueue &eq;
    std::uint64_t interval;
    std::uint32_t strikeBudget;
    std::uint32_t strikesUsed = 0;
    std::vector<Probe> progressProbes;
    std::vector<Probe> pendingProbes;
    bool armed = false;
};

namespace crash
{

/**
 * RAII installer for the crash-bundle context of one run: the event
 * queue (for the recent-event ring and fingerprint) and a stats dumper.
 */
class Scope
{
  public:
    Scope(const EventQueue *queue,
          std::function<void(std::ostream &)> stats_dump);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
};

/** One-line token/command that reproduces the failing run. */
void setReplayToken(const std::string &token);
const std::string &replayToken();

/** Where writeBundle() writes; empty selects "nova_crash.txt". */
void setBundlePath(const std::string &path);

/**
 * Write a crash bundle (diagnosis, replay token, recent-event ring,
 * stats snapshot) for a caught PanicError.
 * @return the path written, or empty when writing failed.
 */
std::string writeBundle(const std::string &what);

/**
 * Path of the last bundle writeBundle() produced (empty when none was
 * written). Lets an outer handler tell that an inner one — e.g.
 * NovaSystem::run's catch, which runs while the components are still
 * alive — already wrote the bundle for the in-flight panic.
 */
const std::string &lastBundle();

} // namespace crash

} // namespace nova::sim

#endif // NOVA_SIM_FAULT_HH
