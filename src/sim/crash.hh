/**
 * @file
 * Crash bundles: when a PanicError escapes to the CLI, the installed
 * crash context (event queue, stats dump, replay token) is written to a
 * bundle file so the failure can be reproduced with one command.
 */

#ifndef NOVA_SIM_CRASH_HH
#define NOVA_SIM_CRASH_HH

#include <functional>
#include <ostream>
#include <string>

namespace nova::sim
{

class EventQueue;

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

#endif // NOVA_SIM_CRASH_HH
