#include "sim/crash.hh"

#include <fstream>

#include "sim/event_queue.hh"

namespace nova::sim::crash
{

namespace
{

struct Context
{
    const EventQueue *eq = nullptr;
    std::function<void(std::ostream &)> statsDump;
    std::string token;
    std::string path;
    std::string lastWritten;
};

Context &
ctx()
{
    // Installed and read on the thread that calls NovaSystem::run (the
    // sharded scheduler's coordinator); shard workers never touch it.
    // novalint:allow(shard-safety) caller thread only, never a worker
    static Context c;
    return c;
}

} // namespace

Scope::Scope(const EventQueue *queue,
             std::function<void(std::ostream &)> stats_dump)
{
    ctx().eq = queue;
    ctx().statsDump = std::move(stats_dump);
    ctx().lastWritten.clear();
}

Scope::~Scope()
{
    ctx().eq = nullptr;
    ctx().statsDump = nullptr;
}

void
setReplayToken(const std::string &token)
{
    ctx().token = token;
}

const std::string &
replayToken()
{
    return ctx().token;
}

void
setBundlePath(const std::string &path)
{
    ctx().path = path;
}

std::string
writeBundle(const std::string &what)
{
    const std::string path =
        ctx().path.empty() ? "nova_crash.txt" : ctx().path;
    std::ofstream os(path);
    if (!os)
        return "";
    os << "NOVA crash bundle\n";
    os << "=================\n";
    os << "error: " << what << "\n";
    if (!ctx().token.empty())
        os << "replay: " << ctx().token << "\n";
    if (ctx().eq) {
        const EventQueue &eq = *ctx().eq;
        os << "tick: " << eq.now() << "\n";
        os << "events-executed: " << eq.executed() << "\n";
        os << "queue-depth: " << eq.size() << "\n";
        os << "fingerprint: 0x" << std::hex << eq.fingerprint() << std::dec
           << "\n";
        os << "recent-events (oldest first):\n";
        for (const RecentEvent &e : eq.recentEvents())
            os << "  tick=" << e.when << " priority=" << e.priority
               << " seq=" << e.seq << "\n";
    }
    if (ctx().statsDump) {
        os << "stats:\n";
        ctx().statsDump(os);
    }
    os.flush();
    if (!os.good())
        return "";
    ctx().lastWritten = path;
    return path;
}

const std::string &
lastBundle()
{
    return ctx().lastWritten;
}

} // namespace nova::sim::crash
