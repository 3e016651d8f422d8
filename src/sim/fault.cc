#include "sim/fault.hh"

#include <fstream>
#include <sstream>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace nova::sim
{

namespace
{

/** Kinds with a wired injection point; configure() rejects others. */
const char *const knownKinds[] = {
    "dram.bitflip", "dram.txn",    "cache.ecc",     "noc.drop",
    "noc.corrupt",  "noc.dup",     "spill.corrupt", "reduce.bitflip",
};

bool
kindKnown(const std::string &kind)
{
    for (const char *k : knownKinds)
        if (kind == k)
            return true;
    return false;
}

bool
scheduleCharset(const std::string &s)
{
    for (char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                        c == '@' || c == ':' || c == '=' || c == '+' ||
                        c == '-';
        if (!ok)
            return false;
    }
    return true;
}

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    try {
        std::size_t pos = 0;
        out = std::stoull(s, &pos);
        return pos == s.size();
    } catch (const std::invalid_argument &) {
        return false;
    } catch (const std::out_of_range &) {
        return false;
    }
}

bool
parseHex(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.size() > 16)
        return false;
    out = 0;
    for (char c : s) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            digit = c - 'A' + 10;
        else
            return false;
        out = (out << 4) | static_cast<std::uint64_t>(digit);
    }
    return true;
}

bool
parseProb(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    try {
        std::size_t pos = 0;
        out = std::stod(s, &pos);
        return pos == s.size() && out > 0 && out <= 1;
    } catch (const std::invalid_argument &) {
        return false;
    } catch (const std::out_of_range &) {
        return false;
    }
}

/** Parse one schedule into actions; empty = success. */
std::string
parseSchedule(const std::string &schedule, std::vector<FaultAction> &out)
{
    if (schedule.empty())
        return "";
    if (!scheduleCharset(schedule))
        return "schedule contains characters outside [A-Za-z0-9_.@:=+-]";
    for (const std::string &entry : splitOn(schedule, '+')) {
        if (entry.empty())
            return "empty schedule entry (stray '+')";
        std::vector<std::string> fields = splitOn(entry, ':');
        if (fields.size() < 2 || fields.size() > 3)
            return "entry '" + entry +
                   "' is not kind[@instance]:trigger[:mask=hex]";

        FaultAction action;
        const std::string &target = fields[0];
        const std::size_t at = target.find('@');
        action.kind = target.substr(0, at);
        if (at != std::string::npos)
            action.instancePrefix = target.substr(at + 1);

        if (!kindKnown(action.kind))
            return "unknown fault kind '" + action.kind + "'";

        const std::string &trig = fields[1];
        if (trig.rfind("n=", 0) == 0) {
            action.trigger = FaultAction::Trigger::Nth;
            if (!parseU64(trig.substr(2), action.n) || action.n == 0)
                return "bad trigger '" + trig + "' (want n=<positive int>)";
        } else if (trig.rfind("every=", 0) == 0) {
            action.trigger = FaultAction::Trigger::Every;
            if (!parseU64(trig.substr(6), action.n) || action.n == 0)
                return "bad trigger '" + trig +
                       "' (want every=<positive int>)";
        } else if (trig.rfind("p=", 0) == 0) {
            action.trigger = FaultAction::Trigger::Prob;
            if (!parseProb(trig.substr(2), action.p))
                return "bad trigger '" + trig + "' (want p=<prob in (0,1]>)";
        } else {
            return "unknown trigger '" + trig + "' (want n=/every=/p=)";
        }

        if (fields.size() == 3) {
            if (fields[2].rfind("mask=", 0) != 0 ||
                !parseHex(fields[2].substr(5), action.mask))
                return "bad mask field '" + fields[2] + "' (want mask=<hex>)";
            if (action.mask == 0)
                return "mask must be non-zero";
        }
        out.push_back(action);
    }
    return "";
}

std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    constexpr std::uint64_t prime = 0x100000001b3ULL;
    for (char c : s)
        h = (h ^ static_cast<unsigned char>(c)) * prime;
    return h;
}

} // namespace

bool
FaultPoint::fire(std::uint64_t *mask_out)
{
    ++count;
    if (matches.empty())
        return false;
    // Evaluate every match first: probabilistic streams must advance
    // independently of which entry ends up firing, so adding an entry to
    // a schedule never perturbs another entry's decisions.
    const FaultAction *firing = nullptr;
    for (Match &m : matches) {
        bool hit = false;
        switch (m.action->trigger) {
          case FaultAction::Trigger::Nth:
            hit = count == m.action->n;
            break;
          case FaultAction::Trigger::Every:
            hit = count % m.action->n == 0;
            break;
          case FaultAction::Trigger::Prob:
            hit = m.rng.nextBool(m.action->p);
            break;
        }
        if (hit && !firing)
            firing = m.action;
    }
    if (!firing)
        return false;
    ++nFired;
    if (mask_out)
        *mask_out = firing->mask;
    return true;
}

FaultInjector::FaultInjector(std::uint64_t seed_value) : seed(seed_value) {}

std::string
FaultInjector::validateSchedule(const std::string &schedule)
{
    std::vector<FaultAction> scratch;
    return parseSchedule(schedule, scratch);
}

void
FaultInjector::configure(const std::string &schedule)
{
    NOVA_ASSERT(pts.empty(),
                "FaultInjector::configure after points were registered");
    std::vector<FaultAction> parsed;
    const std::string err = parseSchedule(schedule, parsed);
    if (!err.empty())
        fatal("bad fault schedule '", schedule, "': ", err);
    scheduleText = schedule;
    actions = std::move(parsed);
}

FaultPoint *
FaultInjector::registerPoint(const std::string &kind,
                             const std::string &instance)
{
    // Private constructor: make_unique cannot reach it.
    std::unique_ptr<FaultPoint> p( // novalint:allow(raw-new)
        new FaultPoint(kind, instance));
    for (std::size_t i = 0; i < actions.size(); ++i) {
        const FaultAction &a = actions[i];
        if (a.kind != kind)
            continue;
        if (!a.instancePrefix.empty() &&
            instance.rfind(a.instancePrefix, 0) != 0)
            continue;
        // Seed the per-(point, entry) stream from content, not from
        // registration order, so construction-order changes elsewhere
        // cannot shift fault decisions.
        std::uint64_t h = fnv1a(0xcbf29ce484222325ULL ^ seed, kind);
        h = fnv1a(h, "@" + instance);
        h = fnv1a(h, "#" + std::to_string(i));
        p->matches.push_back(FaultPoint::Match{&a, Rng(h)});
    }
    pts.push_back(std::move(p));
    return pts.back().get();
}

std::uint64_t
FaultInjector::totalFired() const
{
    std::uint64_t total = 0;
    for (const auto &p : pts)
        total += p->nFired;
    return total;
}

Watchdog::Watchdog(EventQueue &queue, std::uint64_t check_interval_events,
                   std::uint32_t strike_budget)
    : eq(queue), interval(check_interval_events), strikeBudget(strike_budget)
{
    NOVA_ASSERT(strikeBudget > 0, "watchdog strike budget must be positive");
}

Watchdog::~Watchdog()
{
    if (armed)
        disarm();
}

void
Watchdog::addProgress(std::string probe_name,
                      std::function<std::uint64_t()> probe)
{
    Probe p;
    p.name = std::move(probe_name);
    p.fn = std::move(probe);
    p.last = p.fn();
    progressProbes.push_back(std::move(p));
}

void
Watchdog::addPending(std::string probe_name,
                     std::function<std::uint64_t()> probe)
{
    Probe p;
    p.name = std::move(probe_name);
    p.fn = std::move(probe);
    pendingProbes.push_back(std::move(p));
}

void
Watchdog::arm()
{
    if (interval == 0)
        return;
    armed = true;
    eq.setPeriodicCheck(interval, [this] { check(); });
}

void
Watchdog::disarm()
{
    armed = false;
    eq.setPeriodicCheck(0, nullptr);
}

std::string
Watchdog::diagnosis(const std::string &verdict) const
{
    std::ostringstream os;
    os << "watchdog: " << verdict << " at tick " << eq.now() << " after "
       << eq.executed() << " events (queue depth " << eq.size() << ")";
    os << "; progress{";
    for (std::size_t i = 0; i < progressProbes.size(); ++i) {
        if (i)
            os << ", ";
        os << progressProbes[i].name << "=" << progressProbes[i].fn();
    }
    os << "} pending{";
    for (std::size_t i = 0; i < pendingProbes.size(); ++i) {
        if (i)
            os << ", ";
        os << pendingProbes[i].name << "=" << pendingProbes[i].fn();
    }
    os << "} recent-events[";
    const std::vector<RecentEvent> recents = eq.recentEvents();
    const std::size_t show = recents.size() < 8 ? recents.size() : 8;
    for (std::size_t i = recents.size() - show; i < recents.size(); ++i) {
        const RecentEvent &e = recents[i];
        os << " (t=" << e.when << ",p=" << e.priority << ",s=" << e.seq
           << ")";
    }
    os << " ]";
    return os.str();
}

void
Watchdog::check()
{
    bool advanced = false;
    for (Probe &p : progressProbes) {
        const std::uint64_t v = p.fn();
        if (v != p.last)
            advanced = true;
        p.last = v;
    }
    if (advanced) {
        strikesUsed = 0;
        return;
    }
    ++strikesUsed;
    if (strikesUsed >= strikeBudget)
        panic(diagnosis("livelock suspected: " +
                        std::to_string(strikesUsed) + " check intervals (" +
                        std::to_string(interval) +
                        " events each) with no progress heartbeat"));
}

void
Watchdog::checkQuiescence() const
{
    std::uint64_t outstanding = 0;
    for (const Probe &p : pendingProbes)
        outstanding += p.fn();
    if (outstanding)
        panic(diagnosis(
            "deadlock suspected: event queue drained with outstanding "
            "work"));
}

namespace crash
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
    // Fault injection is serial-only: the sharded fabric refuses an
    // armed injector (see the ShardedHierarchicalNetwork constructor
    // assertion), so this registry is never touched from a worker.
    // novalint:allow(shard-safety) serial-only, sharded fabric asserts
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

} // namespace crash

} // namespace nova::sim
