#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <sstream>

#include "model.hh"

namespace nova::lint
{

namespace
{

// ---------------------------------------------------------------------
// Analysis unit: the prepared text (pass 0) plus the symbol model
// (pass 1). Rules are pass 2.
// ---------------------------------------------------------------------

struct Unit
{
    PreparedFile p;
    FileModel m;
};

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
suppressed(const PreparedFile &p, std::size_t line_idx,
           const std::string &rule)
{
    if (p.fileAllows.count(rule))
        return true;
    if (line_idx < p.allows.size() && p.allows[line_idx].count(rule))
        return true;
    if (line_idx > 0 && p.allows[line_idx - 1].count(rule))
        return true;
    return false;
}

void
emit(std::vector<Diagnostic> &out, const PreparedFile &p,
     std::size_t line_idx, const std::string &rule,
     const std::string &message)
{
    if (suppressed(p, line_idx, rule))
        return;
    out.push_back(Diagnostic{p.src->path, static_cast<int>(line_idx + 1),
                             rule, message});
}

/** Flag every line matching `re` with the same rule/message. */
void
flagLines(std::vector<Diagnostic> &out, const PreparedFile &p,
          const std::regex &re, const std::string &rule,
          const std::string &message)
{
    for (std::size_t i = 0; i < p.code.size(); ++i) {
        if (std::regex_search(p.code[i], re))
            emit(out, p, i, rule, message);
    }
}

/** 0-based line of codeText offset `at`. */
std::size_t
lineOfOffset(const std::string &text, std::size_t at)
{
    return static_cast<std::size_t>(
        std::count(text.begin(),
                   text.begin() + static_cast<std::ptrdiff_t>(at), '\n'));
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

/**
 * capture-default: `[&]`/`[=]` lambdas in event-scheduling files. A
 * defaulted reference capture handed to EventQueue::schedule dangles as
 * soon as the enclosing frame unwinds before the event fires; demanding
 * explicit captures makes every captured lifetime reviewable.
 */
void
ruleCaptureDefault(std::vector<Diagnostic> &out, const PreparedFile &p)
{
    if (!p.eventFile)
        return;
    static const std::regex re(R"(\[\s*[&=]\s*[\],])");
    flagLines(out, p, re, "capture-default",
              "capture-default lambda in an event-scheduling file; list "
              "captures explicitly (by value for scheduled closures)");
}

/**
 * unordered-iteration: iterating an unordered container in an
 * event-scheduling file. Bucket order depends on hash seeding and
 * allocation history, so any event scheduled from such a loop executes
 * in nondeterministic order across runs.
 */
void
ruleUnorderedIteration(std::vector<Diagnostic> &out, const Unit &u,
                       const std::map<std::string, const Unit *> &by_path)
{
    const PreparedFile &p = u.p;
    if (!p.eventFile)
        return;
    // Names declared in this file, plus — for a .cc — members declared
    // in its same-stem header (iteration usually lives in the .cc).
    std::set<std::string> names = u.m.unorderedNames;
    if (!p.header) {
        auto it = by_path.find(p.stem + ".hh");
        if (it != by_path.end())
            names.insert(it->second->m.unorderedNames.begin(),
                         it->second->m.unorderedNames.end());
    }
    if (names.empty())
        return;
    for (const std::string &name : names) {
        // `.end()` alone is a find()-comparison idiom, not iteration;
        // iterating always needs some flavour of begin().
        const std::regex use(
            "(for\\s*\\([^;)]*:\\s*" + name + "\\b)|(\\b" + name +
            "\\s*\\.\\s*c?r?begin\\s*\\()");
        flagLines(out, p, use, "unordered-iteration",
                  "iteration over unordered container '" + name +
                      "' in an event-scheduling file; bucket order is "
                      "nondeterministic — use std::map/std::set or sort "
                      "before iterating");
    }
}

/**
 * wall-clock: entropy or wall-clock sources outside src/sim/random.*.
 * Every stochastic choice must flow through sim::Rng so a seed
 * reproduces a run bit-for-bit (the whole verify/replay harness relies
 * on this).
 */
void
ruleWallClock(std::vector<Diagnostic> &out, const PreparedFile &p)
{
    if (endsWith(p.stem, "sim/random"))
        return;
    static const std::regex re(
        R"(\bstd\s*::\s*rand\b|\bsrand\s*\(|\brandom_device\b)"
        R"(|\bmt19937|\bsystem_clock\b|\bsteady_clock\b)"
        R"(|\bhigh_resolution_clock\b|\bclock_gettime\b|\bgettimeofday\b)"
        R"(|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\))");
    flagLines(out, p, re, "wall-clock",
              "nondeterministic entropy/wall-clock source; route all "
              "randomness through sim::Rng (src/sim/random.*)");
}

/**
 * raw-exit: direct process termination. A raw exit()/abort() skips the
 * crash bundle and the nova_cli exit-code contract (0/1/2) — errors
 * must travel through sim::fatal()/sim::panic() instead.
 */
void
ruleRawExit(std::vector<Diagnostic> &out, const PreparedFile &p)
{
    static const std::regex re(
        R"((?:\bstd\s*::\s*)?\b(?:exit|abort|quick_exit|_Exit)\s*\()"
        R"(|\b_exit\s*\()");
    flagLines(out, p, re, "raw-exit",
              "raw process termination; throw sim::fatal()/sim::panic() "
              "so the exit-code contract and crash bundle stay intact");
}

/**
 * raw-new: raw `new` expressions. Components must be owned by
 * std::unique_ptr (std::make_unique or Simulator::create) so teardown
 * order is deterministic and leaks are impossible by construction.
 */
void
ruleRawNew(std::vector<Diagnostic> &out, const PreparedFile &p)
{
    static const std::regex re(R"(\bnew\b\s*(?:\(|[A-Za-z_:<]))");
    flagLines(out, p, re, "raw-new",
              "raw 'new': own objects with std::make_unique / "
              "Simulator::create instead");
}

/**
 * tick-arith: unchecked arithmetic on Tick-valued expressions outside
 * the sim kernel. Tick is unsigned 64-bit picoseconds; a wrapped sum
 * silently schedules an event in the distant past/future. The checked
 * helpers (sim::tickAdd/tickSub/tickMul) assert instead.
 */
void
ruleTickArith(std::vector<Diagnostic> &out, const PreparedFile &p)
{
    if (p.src->path.find("src/sim/") != std::string::npos)
        return;
    static const std::regex re(
        R"((\bnow\s*\(\s*\)|\bcurTick\b|\bclockEdge\s*\([^()]*\)|\bmaxTick\b)\s*[-+*][^=])");
    flagLines(out, p, re, "tick-arith",
              "raw arithmetic on a Tick-valued expression; use the "
              "overflow-checked sim::tickAdd/tickSub/tickMul helpers");
}

/**
 * unregistered-stat: a stats::Scalar/Histogram member declared in a
 * header but never registered (addScalar/addHistogram takes `&member`)
 * in the header or its same-stem `.cc`. Unregistered stats silently
 * vanish from dumps and from the differential-verify comparisons.
 */
void
ruleUnregisteredStat(std::vector<Diagnostic> &out, const PreparedFile &p,
                     const std::map<std::string, const Unit *> &by_path)
{
    if (!p.header)
        return;
    static const std::regex decl(
        R"(\bstats::(?:Scalar|Histogram)\s+([A-Za-z_]\w*)\s*;)");
    const PreparedFile *pair = nullptr;
    auto it = by_path.find(p.stem + ".cc");
    if (it != by_path.end())
        pair = &it->second->p;
    for (std::size_t i = 0; i < p.code.size(); ++i) {
        auto begin = std::sregex_iterator(p.code[i].begin(),
                                          p.code[i].end(), decl);
        for (auto m = begin; m != std::sregex_iterator(); ++m) {
            const std::string name = (*m)[1].str();
            const std::regex reg("&\\s*" + name + "\\b");
            const bool registered =
                std::regex_search(p.codeText, reg) ||
                (pair && std::regex_search(pair->codeText, reg));
            if (!registered) {
                emit(out, p, i, "unregistered-stat",
                     "stat '" + name +
                         "' is declared but never registered with "
                         "addScalar/addHistogram in this header or its "
                         "paired .cc");
            }
        }
    }
}

/** using-namespace-std: `using namespace std` in a header. */
void
ruleUsingNamespaceStd(std::vector<Diagnostic> &out, const PreparedFile &p)
{
    if (!p.header)
        return;
    static const std::regex re(R"(\busing\s+namespace\s+std\b)");
    flagLines(out, p, re, "using-namespace-std",
              "'using namespace std' in a header pollutes every includer; "
              "qualify names instead");
}

/**
 * virtual-dtor: a class that declares virtual member functions, has no
 * base class, and no virtual destructor. Deleting a derivative through
 * the base pointer is undefined behaviour.
 */
void
ruleVirtualDtor(std::vector<Diagnostic> &out, const PreparedFile &p)
{
    const std::string &text = p.codeText;
    static const std::regex cls(R"(\b(class|struct)\s+([A-Za-z_]\w*))");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), cls);
         it != std::sregex_iterator(); ++it) {
        // Skip `enum class` and elaborated uses.
        const std::size_t at = static_cast<std::size_t>(it->position());
        std::size_t before = at;
        while (before > 0 && std::isspace(static_cast<unsigned char>(
                                 text[before - 1])))
            --before;
        if (before >= 4 && text.compare(before - 4, 4, "enum") == 0)
            continue;
        if (before >= 6 && text.compare(before - 6, 6, "friend") == 0)
            continue;

        // Scan the class head: find `{` (definition), bail on `;`
        // (forward declaration), `:` (has a base: destructor virtuality
        // is the base's concern), or template punctuation.
        std::size_t pos = at + it->length();
        bool open = false;
        while (pos < text.size()) {
            const char c = text[pos];
            if (c == '{') {
                open = true;
                break;
            }
            if (c == ';' || c == '>' || c == '(' || c == ',')
                break;
            if (c == ':') {
                if (pos + 1 < text.size() && text[pos + 1] == ':')
                    pos += 2;
                break; // base clause
            }
            if (!std::isspace(static_cast<unsigned char>(c)) &&
                !std::isalnum(static_cast<unsigned char>(c)) &&
                c != '_')
                break;
            ++pos;
        }
        if (!open)
            continue;

        // Walk the body; only depth-1 tokens belong to this class.
        int depth = 1;
        std::size_t i = pos + 1;
        bool has_virtual = false;
        bool has_virtual_dtor = false;
        static const std::regex vtok(R"(^virtual\b(\s*~)?)");
        while (i < text.size() && depth > 0) {
            const char c = text[i];
            if (c == '{') {
                ++depth;
            } else if (c == '}') {
                --depth;
            } else if (depth == 1 && c == 'v') {
                std::smatch m;
                const std::string rest = text.substr(i, 48);
                if (std::regex_search(rest, m, vtok) &&
                    (i == 0 ||
                     (!std::isalnum(static_cast<unsigned char>(
                          text[i - 1])) &&
                      text[i - 1] != '_'))) {
                    has_virtual = true;
                    if (m[1].matched)
                        has_virtual_dtor = true;
                }
            }
            ++i;
        }
        if (has_virtual && !has_virtual_dtor) {
            emit(out, p, lineOfOffset(text, at), "virtual-dtor",
                 "polymorphic class '" + (*it)[2].str() +
                     "' has virtual functions but no virtual destructor");
        }
    }
}

/**
 * assert-side-effect: NOVA_ASSERT whose condition mutates state. The
 * assertion text compiles out in hardened builds, so a `++`/assignment
 * inside it changes behaviour between build modes.
 */
void
ruleAssertSideEffect(std::vector<Diagnostic> &out, const PreparedFile &p)
{
    const std::string &text = p.codeText;
    const std::string needle = "NOVA_ASSERT";
    std::size_t at = 0;
    while ((at = text.find(needle, at)) != std::string::npos) {
        std::size_t pos = at + needle.size();
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
        if (pos >= text.size() || text[pos] != '(') {
            at = pos;
            continue;
        }
        // Extract the balanced argument list.
        int depth = 0;
        std::size_t start = pos;
        std::size_t end = pos;
        for (; end < text.size(); ++end) {
            if (text[end] == '(')
                ++depth;
            else if (text[end] == ')' && --depth == 0)
                break;
        }
        const std::string args = text.substr(start, end - start);
        bool bad = args.find("++") != std::string::npos ||
                   args.find("--") != std::string::npos;
        for (std::size_t i = 1; !bad && i + 1 < args.size(); ++i) {
            if (args[i] != '=')
                continue;
            const char prev = args[i - 1];
            const char next = args[i + 1];
            if (next == '=') {
                ++i; // `==`
                continue;
            }
            if (prev == '=' || prev == '!' || prev == '<' || prev == '>')
                continue;
            bad = true;
        }
        if (bad) {
            emit(out, p, lineOfOffset(text, at), "assert-side-effect",
                 "NOVA_ASSERT condition has a side effect (++/--/"
                 "assignment); asserts must be removable without "
                 "changing behaviour");
        }
        at = end;
    }
}

/**
 * silent-catch: a catch block that swallows the exception. The
 * simulator reports its own bugs by throwing PanicError; a
 * `catch (...)` that does not rethrow turns that detection into silent
 * corruption, and an empty catch body discards the error entirely.
 * Typed catches with real handling are fine; `catch (...)` must
 * contain a `throw`.
 */
void
ruleSilentCatch(std::vector<Diagnostic> &out, const PreparedFile &p)
{
    const std::string &text = p.codeText;
    static const std::regex kw(R"(\bcatch\s*\()");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), kw);
         it != std::sregex_iterator(); ++it) {
        const std::size_t at = static_cast<std::size_t>(it->position());

        // Balanced parameter list (starts at the '(' the match ends on).
        std::size_t pos = at + it->length() - 1;
        const std::size_t pstart = pos + 1;
        int depth = 0;
        for (; pos < text.size(); ++pos) {
            if (text[pos] == '(')
                ++depth;
            else if (text[pos] == ')' && --depth == 0)
                break;
        }
        if (pos >= text.size())
            continue;
        std::string param = text.substr(pstart, pos - pstart);
        param.erase(std::remove_if(param.begin(), param.end(),
                                   [](unsigned char c) {
                                       return std::isspace(c);
                                   }),
                    param.end());

        // Balanced handler body.
        const std::size_t open = text.find('{', pos);
        if (open == std::string::npos)
            continue;
        int braces = 1;
        std::size_t end = open + 1;
        while (end < text.size() && braces > 0) {
            if (text[end] == '{')
                ++braces;
            else if (text[end] == '}')
                --braces;
            ++end;
        }
        const std::string body = text.substr(open + 1, end - open - 2);

        const bool empty_body =
            body.find_first_not_of(" \t\n\r") == std::string::npos;
        static const std::regex rethrow(R"(\bthrow\b)");
        const bool rethrows = std::regex_search(body, rethrow);
        const std::size_t line_idx = lineOfOffset(text, at);
        if (empty_body) {
            emit(out, p, line_idx, "silent-catch",
                 "empty catch body discards the exception; handle it or "
                 "rethrow");
        } else if (param == "..." && !rethrows) {
            emit(out, p, line_idx, "silent-catch",
                 "catch (...) without a rethrow swallows PanicError/"
                 "FatalError; catch a specific type or add 'throw;'");
        }
    }
}

/**
 * include-guard: headers must open with a matching
 * `#ifndef NOVA_*_HH` / `#define` pair (no #pragma once), so double
 * inclusion is impossible and guard names stay greppable.
 */
void
ruleIncludeGuard(std::vector<Diagnostic> &out, const PreparedFile &p)
{
    if (!p.header)
        return;
    static const std::regex ifndef(R"(^\s*#\s*ifndef\s+([A-Za-z0-9_]+))");
    static const std::regex define(R"(^\s*#\s*define\s+([A-Za-z0-9_]+))");
    static const std::regex guard_name(R"(^NOVA_[A-Z0-9_]+_HH$)");
    for (std::size_t i = 0; i < p.code.size(); ++i) {
        std::smatch m;
        if (!std::regex_search(p.code[i], m, ifndef))
            continue;
        const std::string guard = m[1].str();
        std::string defined;
        for (std::size_t j = i + 1; j < p.code.size() && j <= i + 2; ++j) {
            std::smatch d;
            if (std::regex_search(p.code[j], d, define)) {
                defined = d[1].str();
                break;
            }
        }
        if (!std::regex_match(guard, guard_name) || defined != guard) {
            emit(out, p, i, "include-guard",
                 "header guard must be a matching #ifndef/#define pair "
                 "named NOVA_<PATH>_HH (got '" + guard + "')");
        }
        return; // only the first #ifndef is the guard
    }
    emit(out, p, 0, "include-guard",
         "header has no NOVA_*_HH include guard");
}

// ---------------------------------------------------------------------
// Flow-aware rule families (pass 2 over the FileModel).
// ---------------------------------------------------------------------

/** The paired unit (same stem, other extension), or nullptr. */
const Unit *
pairedUnit(const PreparedFile &p,
           const std::map<std::string, const Unit *> &by_path)
{
    for (const char *ext : {".hh", ".cc", ".hpp", ".cpp", ".h"}) {
        if (endsWith(p.src->path, ext))
            continue;
        auto it = by_path.find(p.stem + ext);
        if (it != by_path.end())
            return it->second;
    }
    return nullptr;
}

/**
 * First line (0-based) where `name` is used inside a function body of
 * `u`, other than `skip_line`; -1 when unused. main() is excluded: the
 * coordinator's startup path runs before any worker thread exists.
 */
int
findUseInFunctions(const Unit &u, const std::string &name, int skip_line)
{
    const std::regex use("\\b" + name + "\\b");
    for (const FunctionSpan &fn : u.m.functions) {
        if (fn.name == "main")
            continue;
        const std::string body = u.p.codeText.substr(
            fn.bodyBegin, fn.bodyEnd - fn.bodyBegin);
        for (auto it = std::sregex_iterator(body.begin(), body.end(), use);
             it != std::sregex_iterator(); ++it) {
            const int line = static_cast<int>(
                fn.bodyBeginLine +
                static_cast<int>(std::count(
                    body.begin(),
                    body.begin() + it->position(), '\n')));
            if (line != skip_line)
                return line;
        }
    }
    return -1;
}

/**
 * shard-safety: state that can be touched concurrently from several
 * shards' event streams.
 *
 * (a) A mutable namespace-scope/static variable declared in an
 *     event-scheduling or shard-aware file and used inside a function
 *     body is a cross-shard data race (and a determinism hazard even
 *     under a lock, because acquisition order varies), unless its
 *     declaration carries a shard-local or guarded-by(mutex)
 *     annotation.
 * (b) Scheduling directly on a queue obtained from
 *     ParallelScheduler::shard(...) — either inline or through an
 *     EventQueue& alias — bypasses the mailbox API; if the target is
 *     another shard, the post races the owner. Cross-shard work must go
 *     through postCross; genuinely same-shard scheduling is declared
 *     with a shard-local annotation.
 */
void
ruleShardSafety(std::vector<Diagnostic> &out, const Unit &u,
                const std::map<std::string, const Unit *> &by_path)
{
    const PreparedFile &p = u.p;
    const Unit *pair = pairedUnit(p, by_path);

    // (a) Mutable static-storage state in shard-visible code.
    if (p.eventFile || p.parallelFile) {
        for (const VarDecl &v : u.m.mutableStatics) {
            if (u.m.mutexes.count(v.name))
                continue; // the lock itself is the synchronization
            if (findAnnotation(u.m, v.line, Annotation::Kind::ShardLocal) ||
                findAnnotation(u.m, v.line, Annotation::Kind::GuardedBy))
                continue;
            int used = findUseInFunctions(u, v.name, v.line);
            if (used < 0 && pair)
                used = findUseInFunctions(*pair, v.name, -1);
            if (used < 0)
                continue;
            const char *what =
                v.storage == VarDecl::Storage::NamespaceScope
                    ? "namespace-scope variable"
                    : (v.storage == VarDecl::Storage::StaticLocal
                           ? "function-local static"
                           : "static data member");
            emit(out, p, v.line, "shard-safety",
                 std::string("mutable ") + what + " '" + v.name +
                     "' is touched from event-handler/worker code "
                     "(first use near line " + std::to_string(used + 1) +
                     "); confine it to one shard and annotate the "
                     "declaration with novalint: shard-local, or guard "
                     "it and annotate with novalint: guarded-by(<mutex>)");
        }
    }

    // (b) Direct scheduling on a shard queue outside the scheduler's
    //     own implementation.
    if (!p.parallelFile ||
        p.src->path.find("sim/parallel.") != std::string::npos)
        return;

    static const std::regex direct(
        R"(\.\s*shard\s*\([^;{]*\)\s*\.\s*schedule(In)?\s*\()");
    for (std::size_t i = 0; i < p.code.size(); ++i) {
        if (!std::regex_search(p.code[i], direct))
            continue;
        if (findAnnotation(u.m, static_cast<int>(i),
                           Annotation::Kind::ShardLocal))
            continue;
        emit(out, p, i, "shard-safety",
             "direct EventQueue::schedule on a ParallelScheduler shard "
             "queue bypasses the mailbox API; cross-shard work must use "
             "postCross (same-shard scheduling is declared with a "
             "novalint: shard-local annotation)");
    }
    for (const QueueAlias &alias : u.m.queueAliases) {
        const std::regex call("\\b" + alias.name +
                              "\\s*\\.\\s*schedule(In)?\\s*\\(");
        const int lo = alias.functionIdx >= 0
                           ? u.m.functions[alias.functionIdx].bodyBeginLine
                           : 0;
        const int hi = alias.functionIdx >= 0
                           ? u.m.functions[alias.functionIdx].bodyEndLine
                           : static_cast<int>(p.code.size()) - 1;
        for (int i = lo; i <= hi &&
                         i < static_cast<int>(p.code.size()); ++i) {
            if (i == alias.line ||
                !std::regex_search(p.code[static_cast<std::size_t>(i)],
                                   call))
                continue;
            if (findAnnotation(u.m, i, Annotation::Kind::ShardLocal) ||
                findAnnotation(u.m, alias.line,
                               Annotation::Kind::ShardLocal))
                continue;
            emit(out, p, static_cast<std::size_t>(i), "shard-safety",
                 "'" + alias.name +
                     "' aliases a ParallelScheduler shard queue; "
                     "scheduling on it bypasses the mailbox API — use "
                     "postCross for cross-shard work, or declare the "
                     "call site novalint: shard-local");
        }
    }
}

/** Determinism sinks: where an iteration-ordered value becomes output. */
const std::regex &
sinkRegex()
{
    static const std::regex re(
        R"([Ff]ingerprint|\bstats::|\baddScalar\b|\baddHistogram\b|\bsaveGroupStats\b)");
    return re;
}

/** Names assigned (=, +=, …) or grown (push_back/insert) in `text`. */
void
collectAssignedNames(const std::string &text, std::set<std::string> &names)
{
    static const std::regex asg(
        R"(([A-Za-z_]\w*)(?:\s*\[[^\]]*\])?\s*([+\-*|^]?=))");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), asg);
         it != std::sregex_iterator(); ++it) {
        const std::size_t after = static_cast<std::size_t>(
            it->position() + it->length());
        if (after < text.size() && text[after] == '=')
            continue; // comparison (==, +==? never), not assignment
        if ((*it)[2].str() == "=") {
            // Reject `<=`, `>=`, `!=` — the char before the '=' sign.
            const std::size_t eq = after - 1;
            if (eq > 0 && (text[eq - 1] == '<' || text[eq - 1] == '>' ||
                           text[eq - 1] == '!'))
                continue;
        }
        names.insert((*it)[1].str());
    }
    static const std::regex grow(
        R"(([A-Za-z_]\w*)\s*\.\s*(?:push_back|emplace_back|insert|emplace)\s*\()");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), grow);
         it != std::sregex_iterator(); ++it)
        names.insert((*it)[1].str());
}

/**
 * The span [start, end) of the statement or compound body following the
 * loop head whose parenthesis opens at `paren` in `text`.
 */
void
loopBodySpan(const std::string &text, std::size_t paren,
             std::size_t *start, std::size_t *end)
{
    int depth = 0;
    std::size_t i = paren;
    for (; i < text.size(); ++i) {
        if (text[i] == '(')
            ++depth;
        else if (text[i] == ')' && --depth == 0)
            break;
    }
    ++i;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
        ++i;
    *start = i;
    if (i < text.size() && text[i] == '{') {
        int braces = 0;
        for (; i < text.size(); ++i) {
            if (text[i] == '{')
                ++braces;
            else if (text[i] == '}' && --braces == 0)
                break;
        }
        *end = std::min(i + 1, text.size());
    } else {
        const std::size_t semi = text.find(';', i);
        *end = semi == std::string::npos ? text.size() : semi + 1;
    }
}

/**
 * determinism-taint: iteration order of an unordered (hash-ordered) or
 * pointer-keyed (address-ordered) container flowing into a fingerprint
 * or statistics within the same function — plus the degenerate cases
 * of hashing or printing raw pointer values, which leak the allocator's
 * address layout straight into output.
 */
void
ruleDeterminismTaint(std::vector<Diagnostic> &out, const Unit &u,
                     const std::map<std::string, const Unit *> &by_path)
{
    const PreparedFile &p = u.p;
    const Unit *pair = pairedUnit(p, by_path);

    std::set<std::string> unordered = u.m.unorderedNames;
    std::set<std::string> ptrkeyed = u.m.pointerKeyedNames;
    if (pair) {
        unordered.insert(pair->m.unorderedNames.begin(),
                         pair->m.unorderedNames.end());
        ptrkeyed.insert(pair->m.pointerKeyedNames.begin(),
                        pair->m.pointerKeyedNames.end());
    }

    const auto scanLoops = [&](const std::set<std::string> &names,
                               const char *order_kind) {
        for (const std::string &name : names) {
            const std::regex head(
                "(for\\s*(\\()[^;)]*:\\s*(?:\\*\\s*)?" + name +
                "\\b)|(\\b" + name + "\\s*\\.\\s*c?r?begin\\s*\\()");
            for (const FunctionSpan &fn : u.m.functions) {
                const std::string body = p.codeText.substr(
                    fn.bodyBegin, fn.bodyEnd - fn.bodyBegin);
                for (auto it = std::sregex_iterator(body.begin(),
                                                    body.end(), head);
                     it != std::sregex_iterator(); ++it) {
                    // Loop span: from the `for (` head when present,
                    // else the enclosing statement of the begin() call.
                    std::size_t start = 0;
                    std::size_t end = 0;
                    if ((*it)[2].matched) {
                        loopBodySpan(body,
                                     static_cast<std::size_t>(
                                         it->position(2)),
                                     &start, &end);
                    } else {
                        const std::size_t at = static_cast<std::size_t>(
                            it->position());
                        const std::size_t stmt_begin =
                            body.rfind(';', at);
                        start = stmt_begin == std::string::npos
                                    ? 0
                                    : stmt_begin + 1;
                        const std::size_t semi = body.find(';', at);
                        end = semi == std::string::npos ? body.size()
                                                        : semi + 1;
                    }
                    const std::string span =
                        body.substr(start, end - start);

                    // Sinks inside the iteration itself.
                    for (auto sit = std::sregex_iterator(
                             span.begin(), span.end(), sinkRegex());
                         sit != std::sregex_iterator(); ++sit) {
                        const std::size_t line =
                            fn.bodyBeginLine +
                            lineOfOffset(body,
                                         start + static_cast<std::size_t>(
                                                     sit->position()));
                        emit(out, p, line, "determinism-taint",
                             std::string("value ordered by ") +
                                 order_kind + " iteration of '" + name +
                                 "' reaches a fingerprint/stats sink; "
                                 "establish a canonical order (sort, or "
                                 "an ordered container) first");
                    }

                    // Values accumulated in the loop reaching a sink
                    // later in the same function. Walking the remainder
                    // line by line lets a std::sort() of the tainted
                    // value launder it: sorting IS the canonical order.
                    std::set<std::string> tainted;
                    collectAssignedNames(span, tainted);
                    tainted.erase(name);
                    if (tainted.empty())
                        continue;
                    std::istringstream rest(body.substr(end));
                    std::string rest_line;
                    std::size_t off = end;
                    while (std::getline(rest, rest_line)) {
                        const std::size_t line_off = off;
                        off += rest_line.size() + 1;
                        static const std::regex launder(
                            R"(\b(?:sort|stable_sort)\s*\()");
                        if (std::regex_search(rest_line, launder)) {
                            for (auto t = tainted.begin();
                                 t != tainted.end();) {
                                const std::regex tre("\\b" + *t +
                                                     "\\b");
                                if (std::regex_search(rest_line, tre))
                                    t = tainted.erase(t);
                                else
                                    ++t;
                            }
                            continue;
                        }
                        if (!std::regex_search(rest_line, sinkRegex()))
                            continue;
                        bool hit = false;
                        for (const std::string &t : tainted) {
                            const std::regex tre("\\b" + t + "\\b");
                            if (std::regex_search(rest_line, tre)) {
                                hit = true;
                                break;
                            }
                        }
                        if (!hit)
                            continue;
                        const std::size_t line =
                            fn.bodyBeginLine +
                            lineOfOffset(body, line_off);
                        emit(out, p, line, "determinism-taint",
                             std::string("value accumulated while "
                                         "iterating '") +
                                 name + "' (" + order_kind +
                                 " order) flows into a fingerprint/"
                                 "stats sink; establish a canonical "
                                 "order (e.g. std::sort) before it is "
                                 "consumed");
                    }
                }
            }
        }
    };
    scanLoops(unordered, "hash-bucket");
    scanLoops(ptrkeyed, "host-address");

    // Raw pointer identity leaking into output.
    static const std::regex hash_ptr(R"(std\s*::\s*hash\s*<[^>;]*\*)");
    flagLines(out, p, hash_ptr, "determinism-taint",
              "hashing a raw pointer value bakes the allocator's address "
              "layout (ASLR) into the result; hash a stable id instead");
    static const std::regex cast_ptr(
        R"(reinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>)");
    flagLines(out, p, cast_ptr, "determinism-taint",
              "converting a pointer to an integer exposes the host "
              "address; derive ids from construction order instead");
    static const std::regex print_fn(
        R"(printf|sprintf|snprintf|format|log)");
    for (std::size_t i = 0; i < p.raw.size(); ++i) {
        if (p.raw[i].find("%p") != std::string::npos &&
            std::regex_search(p.raw[i], print_fn)) {
            emit(out, p, i, "determinism-taint",
                 "printing a raw pointer (%p) leaks the host address "
                 "layout into output; print a stable id instead");
        }
    }
}

/**
 * reduction-order: floating-point accumulation inside loops of
 * functions reachable from per-shard merge paths. FP addition is not
 * associative; if the iteration order ever depends on thread count or
 * container order, merged statistics differ bit-for-bit between runs.
 * The accumulation must be declared to run in a canonical order via a
 * novalint: canonical-order annotation on the loop or the accumulation.
 */
void
ruleReductionOrder(std::vector<Diagnostic> &out, const Unit &u,
                   const std::map<std::string, const Unit *> &by_path)
{
    const PreparedFile &p = u.p;
    const Unit *pair = pairedUnit(p, by_path);
    if (u.m.functions.empty())
        return;

    // Seed merge-path functions: fold/merge-ish names, or bodies that
    // walk per-shard state.
    static const std::regex seed_name(
        R"(merge|fold|combine|reduc|aggregat|Merge|Fold|Combine|Reduc|Aggregat)");
    static const std::regex seed_body(
        R"(:\s*\w*[sS]hards?\b|[sS]hards?\s*\[|\bperShard\b)");
    std::vector<bool> merge_path(u.m.functions.size(), false);
    std::vector<std::string> bodies(u.m.functions.size());
    for (std::size_t i = 0; i < u.m.functions.size(); ++i) {
        const FunctionSpan &fn = u.m.functions[i];
        bodies[i] = p.codeText.substr(fn.bodyBegin,
                                      fn.bodyEnd - fn.bodyBegin);
        merge_path[i] = std::regex_search(fn.name, seed_name) ||
                        std::regex_search(bodies[i], seed_body);
    }
    // Propagate reachability one caller hop at a time: a function
    // called from a merge path is itself a merge path.
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t f = 0; f < u.m.functions.size(); ++f) {
            if (!merge_path[f])
                continue;
            for (std::size_t g = 0; g < u.m.functions.size(); ++g) {
                if (merge_path[g] || g == f)
                    continue;
                const std::string &callee = u.m.functions[g].name;
                if (callee.size() < 4)
                    continue; // too short to match reliably
                const std::regex call("\\b" + callee + "\\s*\\(");
                if (std::regex_search(bodies[f], call)) {
                    merge_path[g] = true;
                    changed = true;
                }
            }
        }
    }

    std::set<std::string> floats = u.m.floatNames;
    if (pair)
        floats.insert(pair->m.floatNames.begin(),
                      pair->m.floatNames.end());

    static const std::regex loop_head(R"(\b(?:for|while)\s*(\())");
    static const std::regex accum(
        R"(([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*|\[[^\]]*\])*)\s*[+\-]=)");
    static const std::regex float_rhs(
        R"(static_cast<\s*(?:double|float)\s*>|\d+\.\d|\d+\.[fF]?[;)\s])");
    static const std::regex float_accumulate(
        R"(\baccumulate\s*\([^;]*,\s*(?:0\.0|\d+\.\d*[fF]?)\s*[,)])");

    for (std::size_t f = 0; f < u.m.functions.size(); ++f) {
        if (!merge_path[f])
            continue;
        const FunctionSpan &fn = u.m.functions[f];
        const std::string &body = bodies[f];

        const auto annotated = [&](std::size_t body_off,
                                   std::size_t loop_off) {
            const int line = static_cast<int>(
                fn.bodyBeginLine + lineOfOffset(body, body_off));
            const int head = static_cast<int>(
                fn.bodyBeginLine + lineOfOffset(body, loop_off));
            return findAnnotation(u.m, line,
                                  Annotation::Kind::CanonicalOrder) ||
                   findAnnotation(u.m, head,
                                  Annotation::Kind::CanonicalOrder);
        };

        for (auto it = std::sregex_iterator(body.begin(), body.end(),
                                            loop_head);
             it != std::sregex_iterator(); ++it) {
            std::size_t start = 0;
            std::size_t end = 0;
            loopBodySpan(body,
                         static_cast<std::size_t>(it->position(1)),
                         &start, &end);
            const std::string span = body.substr(start, end - start);
            const std::size_t loop_off =
                static_cast<std::size_t>(it->position());

            for (auto ait = std::sregex_iterator(span.begin(),
                                                 span.end(), accum);
                 ait != std::sregex_iterator(); ++ait) {
                const std::string lhs = (*ait)[1].str();
                // Base identifier: the final member/array component.
                std::string base = lhs;
                const std::size_t dot = base.find_last_of(".>");
                if (dot != std::string::npos)
                    base = base.substr(dot + 1);
                const std::size_t br = base.find('[');
                if (br != std::string::npos)
                    base = base.substr(0, br);
                // RHS up to the end of the statement.
                const std::size_t rhs_at = static_cast<std::size_t>(
                    ait->position() + ait->length());
                const std::size_t semi = span.find(';', rhs_at);
                const std::string rhs = span.substr(
                    rhs_at, (semi == std::string::npos ? span.size()
                                                       : semi) -
                                rhs_at);
                const bool fp = floats.count(base) > 0 ||
                                std::regex_search(rhs, float_rhs);
                if (!fp)
                    continue;
                const std::size_t off =
                    start + static_cast<std::size_t>(ait->position());
                if (annotated(off, loop_off))
                    continue;
                emit(out, p,
                     fn.bodyBeginLine + lineOfOffset(body, off),
                     "reduction-order",
                     "floating-point accumulation into '" + base +
                         "' in a loop reachable from a per-shard merge "
                         "path; FP addition is order-sensitive — "
                         "establish a canonical order and annotate the "
                         "loop with novalint: canonical-order");
            }
        }

        for (auto it = std::sregex_iterator(body.begin(), body.end(),
                                            float_accumulate);
             it != std::sregex_iterator(); ++it) {
            const std::size_t off =
                static_cast<std::size_t>(it->position());
            if (annotated(off, off))
                continue;
            emit(out, p, fn.bodyBeginLine + lineOfOffset(body, off),
                 "reduction-order",
                 "std::accumulate over floating-point values in a "
                 "per-shard merge path; FP addition is order-sensitive "
                 "— establish a canonical order and annotate with "
                 "novalint: canonical-order");
        }
    }
}

/**
 * bad-annotation: the annotation grammar is machine-checked. An
 * annotation that names an unknown directive, a guarded-by whose mutex
 * is not declared in the translation unit, or an annotation attached to
 * nothing the analyzer recognizes is itself an error — a stale or
 * misspelled annotation silently disables a real check.
 */
void
ruleBadAnnotation(std::vector<Diagnostic> &out, const Unit &u,
                  const std::map<std::string, const Unit *> &by_path)
{
    const PreparedFile &p = u.p;
    const Unit *pair = pairedUnit(p, by_path);

    const auto declAt = [&](int line) {
        for (const VarDecl &v : u.m.mutableStatics)
            if (v.line == line)
                return true;
        return false;
    };
    const auto aliasAt = [&](int line) {
        for (const QueueAlias &a : u.m.queueAliases)
            if (a.line == line)
                return true;
        return false;
    };

    static const std::regex sched(R"(\.\s*(schedule(In)?|shard)\s*\()");
    static const std::regex reduction(
        R"([+\-]=|\baccumulate\b|\b(for|while)\s*\()");

    for (const Annotation &a : u.m.annotations) {
        if (a.kind == Annotation::Kind::Unknown) {
            emit(out, p, a.line, "bad-annotation",
                 "unknown novalint annotation '" + a.name +
                     "'; the grammar is shard-local, guarded-by(<mutex>)"
                     ", canonical-order (docs/STATIC_ANALYSIS.md)");
            continue;
        }
        if (a.kind == Annotation::Kind::GuardedBy) {
            if (a.malformed) {
                emit(out, p, a.line, "bad-annotation",
                     "guarded-by needs a parenthesized mutex name: "
                     "guarded-by(<mutex>)");
                continue;
            }
            if (u.m.mutexes.count(a.arg) == 0 &&
                (!pair || pair->m.mutexes.count(a.arg) == 0)) {
                emit(out, p, a.line, "bad-annotation",
                     "guarded-by(" + a.arg +
                         ") names no mutex declared in this translation "
                         "unit; the annotation guards nothing");
                continue;
            }
        }

        // Attachment: the annotation's line or the line below must hold
        // something the annotation can apply to.
        bool attached = false;
        for (int line = a.line; line <= a.line + 1 &&
                                line < static_cast<int>(p.code.size());
             ++line) {
            switch (a.kind) {
            case Annotation::Kind::ShardLocal:
                attached = declAt(line) || aliasAt(line) ||
                           std::regex_search(
                               p.code[static_cast<std::size_t>(line)],
                               sched);
                break;
            case Annotation::Kind::GuardedBy:
                attached = declAt(line);
                break;
            case Annotation::Kind::CanonicalOrder:
                attached = std::regex_search(
                    p.code[static_cast<std::size_t>(line)], reduction);
                break;
            case Annotation::Kind::Unknown:
                break;
            }
            if (attached)
                break;
        }
        if (!attached) {
            emit(out, p, a.line, "bad-annotation",
                 "annotation '" + a.name +
                     "' attaches to no declaration, shard-queue "
                     "schedule, or reduction the analyzer recognizes "
                     "on this or the next line");
        }
    }
}

} // namespace

const std::vector<std::string> &
ruleNames()
{
    static const std::vector<std::string> names = {
        "capture-default",  "unordered-iteration", "wall-clock",
        "raw-exit",         "raw-new",             "tick-arith",
        "unregistered-stat",
        "using-namespace-std", "virtual-dtor",     "assert-side-effect",
        "include-guard",    "silent-catch",        "shard-safety",
        "determinism-taint", "reduction-order",    "bad-annotation",
    };
    return names;
}

std::string
ruleDescription(const std::string &rule)
{
    static const std::map<std::string, std::string> descs = {
        {"capture-default",
         "Capture-default lambda in an event-scheduling file"},
        {"unordered-iteration",
         "Iteration over an unordered container in an event-scheduling "
         "file"},
        {"wall-clock",
         "Nondeterministic entropy or wall-clock source outside "
         "sim::Rng"},
        {"raw-exit",
         "Raw exit()/abort() bypassing the exit-code contract and "
         "crash bundle"},
        {"raw-new", "Raw new expression instead of owned allocation"},
        {"tick-arith",
         "Unchecked arithmetic on a Tick-valued expression"},
        {"unregistered-stat",
         "Statistic declared but never registered with its group"},
        {"using-namespace-std", "using namespace std in a header"},
        {"virtual-dtor",
         "Polymorphic class without a virtual destructor"},
        {"assert-side-effect",
         "NOVA_ASSERT condition with a side effect"},
        {"include-guard", "Missing or misnamed NOVA_*_HH include guard"},
        {"silent-catch", "Catch handler that swallows the exception"},
        {"shard-safety",
         "Mutable shared state or direct shard-queue scheduling in "
         "cross-shard code"},
        {"determinism-taint",
         "Hash/address-ordered value flowing into a fingerprint or stats "
         "sink"},
        {"reduction-order",
         "Order-sensitive floating-point reduction in a per-shard merge "
         "path"},
        {"bad-annotation",
         "Malformed, unknown, or unattached novalint annotation"},
    };
    auto it = descs.find(rule);
    return it == descs.end() ? std::string("nova-lint rule") : it->second;
}

std::vector<Diagnostic>
lintFiles(const std::vector<SourceFile> &files,
          const std::set<std::string> &enabled)
{
    std::vector<Unit> units;
    units.reserve(files.size());
    for (const SourceFile &f : files) {
        Unit u;
        u.p = prepareFile(f);
        u.m = buildModel(u.p);
        units.push_back(std::move(u));
    }

    std::map<std::string, const Unit *> by_path;
    for (const Unit &u : units)
        by_path[u.p.src->path] = &u;

    const auto on = [&enabled](const char *rule) {
        return enabled.empty() || enabled.count(rule) > 0;
    };

    std::vector<Diagnostic> out;
    for (const Unit &u : units) {
        const PreparedFile &p = u.p;
        if (on("capture-default"))
            ruleCaptureDefault(out, p);
        if (on("unordered-iteration"))
            ruleUnorderedIteration(out, u, by_path);
        if (on("wall-clock"))
            ruleWallClock(out, p);
        if (on("raw-exit"))
            ruleRawExit(out, p);
        if (on("raw-new"))
            ruleRawNew(out, p);
        if (on("tick-arith"))
            ruleTickArith(out, p);
        if (on("unregistered-stat"))
            ruleUnregisteredStat(out, p, by_path);
        if (on("using-namespace-std"))
            ruleUsingNamespaceStd(out, p);
        if (on("virtual-dtor"))
            ruleVirtualDtor(out, p);
        if (on("assert-side-effect"))
            ruleAssertSideEffect(out, p);
        if (on("include-guard"))
            ruleIncludeGuard(out, p);
        if (on("silent-catch"))
            ruleSilentCatch(out, p);
        if (on("shard-safety"))
            ruleShardSafety(out, u, by_path);
        if (on("determinism-taint"))
            ruleDeterminismTaint(out, u, by_path);
        if (on("reduction-order"))
            ruleReductionOrder(out, u, by_path);
        if (on("bad-annotation"))
            ruleBadAnnotation(out, u, by_path);
    }

    std::sort(out.begin(), out.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const Diagnostic &a, const Diagnostic &b) {
                              return a.file == b.file &&
                                     a.line == b.line &&
                                     a.rule == b.rule &&
                                     a.message == b.message;
                          }),
              out.end());
    return out;
}

std::string
formatDiagnostic(const Diagnostic &d)
{
    std::ostringstream os;
    os << d.file << ":" << d.line << ": error: [" << d.rule << "] "
       << d.message;
    return os.str();
}

} // namespace nova::lint
