/**
 * @file
 * Machine-contention probe: a fixed pointer chase over 64 MiB, timed
 * before every pass. On a shared host the simulator's speed tracks how
 * busy the memory system is, so the probe's time explains drift between
 * runs; it never scales another metric.
 *
 * The chase runs in a child process forked at start-up, so its buffer
 * does not count toward the benchmark's peak resident set.
 */

#ifndef NOVA_PERFBENCH_PROBE_HH
#define NOVA_PERFBENCH_PROBE_HH

#include <sys/types.h>

namespace perfbench
{

class MemProbe
{
  public:
    /**
     * Fork the probe process and wait until its buffer is built. Call
     * before any thread is started and with stdout flushed.
     */
    MemProbe();

    /** Close the request pipe and wait for the probe process to end. */
    ~MemProbe();

    MemProbe(const MemProbe &) = delete;
    MemProbe &operator=(const MemProbe &) = delete;

    /** Run the fixed chase once; returns its host milliseconds. */
    double measureMs();

  private:
    void stop();

    pid_t child = -1;
    int toChild = -1;
    int fromChild = -1;
};

} // namespace perfbench

#endif // NOVA_PERFBENCH_PROBE_HH
