/**
 * @file
 * Base classes for simulated hardware components (gem5 SimObjects).
 */

#ifndef NOVA_SIM_SIM_OBJECT_HH
#define NOVA_SIM_SIM_OBJECT_HH

#include <string>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace nova::sim
{

/**
 * A named simulation component attached to an event queue.
 *
 * SimObjects are constructed once per run, wired to each other by the
 * system builder, and then driven entirely by events.
 */
class SimObject
{
  public:
    SimObject(std::string object_name, EventQueue &queue)
        : objName(std::move(object_name)), eq(queue),
          statGroup(objName)
    {
    }

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return objName; }
    EventQueue &eventQueue() { return eq; }
    Tick now() const { return eq.now(); }

    /** Statistics exposed by this component. */
    stats::Group &statistics() { return statGroup; }
    const stats::Group &statistics() const { return statGroup; }

    /** Called once after the whole system has been wired together. */
    virtual void startup() {}

  protected:
    /** Schedule a closure `delta` ticks in the future. */
    template <class F>
    void
    scheduleIn(Tick delta, F &&fn, int priority = defaultPriority)
    {
        eq.scheduleIn(delta, std::forward<F>(fn), priority);
    }

  private:
    std::string objName;
    EventQueue &eq;
    stats::Group statGroup;
};

/**
 * A SimObject that belongs to a clock domain.
 *
 * Provides cycle/tick conversion and edge alignment so that models can
 * express latencies in their own cycles.
 */
class ClockedObject : public SimObject
{
  public:
    ClockedObject(std::string object_name, EventQueue &queue,
                  Tick clock_period)
        : SimObject(std::move(object_name), queue), period(clock_period)
    {
        NOVA_ASSERT(period > 0, "clock period must be positive");
    }

    /** The clock period in ticks. */
    Tick clockPeriod() const { return period; }

    /** Convert a cycle count of this domain to ticks. */
    Tick cyclesToTicks(Cycles c) const { return tickMul(c, period); }

    /** The current cycle number (floor). */
    Cycles curCycle() const { return now() / period; }

    /**
     * The tick of the clock edge `cycles` cycles after the next edge
     * at-or-after now. clockEdge(0) is the first edge >= now.
     */
    Tick
    clockEdge(Cycles cycles = 0) const
    {
        const Tick t = now();
        const Tick aligned = tickMul(tickAdd(t, period - 1) / period, period);
        return tickAdd(aligned, tickMul(cycles, period));
    }

  private:
    Tick period;
};

} // namespace nova::sim

#endif // NOVA_SIM_SIM_OBJECT_HH
