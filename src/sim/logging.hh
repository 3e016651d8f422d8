/**
 * @file
 * Error-reporting helpers in the style of gem5's base/logging.hh.
 *
 * panic() is for internal invariant violations (simulator bugs); fatal()
 * is for user errors (bad configuration); warn()/inform() are advisory.
 */

#ifndef NOVA_SIM_LOGGING_HH
#define NOVA_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace nova::sim
{

/** Thrown by fatal(); carries the user-facing error message. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Thrown by panic(); indicates a simulator bug, not a user error. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

namespace detail
{

inline void
appendAll(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
appendAll(std::ostringstream &os, const T &value, const Rest &...rest)
{
    os << value;
    appendAll(os, rest...);
}

template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    appendAll(os, args...);
    return os.str();
}

} // namespace detail

/**
 * Report an internal simulator bug and abort the simulation.
 * Use for conditions that should be impossible regardless of user input.
 */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    throw PanicError("panic: " + detail::concat(args...));
}

/**
 * Report an unrecoverable user error (bad configuration, invalid input).
 */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    throw FatalError("fatal: " + detail::concat(args...));
}

/** Emit a non-fatal warning to stderr. */
template <typename... Args>
void
warn(const Args &...args)
{
    std::fprintf(stderr, "warn: %s\n", detail::concat(args...).c_str());
}

/** Emit an informational message to stderr. */
template <typename... Args>
void
inform(const Args &...args)
{
    std::fprintf(stderr, "info: %s\n", detail::concat(args...).c_str());
}

/** panic() unless the given condition holds. */
#define NOVA_ASSERT(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::nova::sim::panic("assertion '", #cond, "' failed at ",        \
                               __FILE__, ":", __LINE__, " ", ##__VA_ARGS__); \
        }                                                                   \
    } while (0)

} // namespace nova::sim

#endif // NOVA_SIM_LOGGING_HH
