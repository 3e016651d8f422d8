#include "probe.hh"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/profile.hh"

namespace perfbench
{

namespace
{

/** 64 MiB of 8-byte slots: well past any last-level cache here. */
constexpr std::size_t kSlots = (std::size_t(64) << 20) / sizeof(std::uint64_t);

/** About 50 ms of dependent DRAM misses on an idle host. */
constexpr std::size_t kSteps = 250'000;

bool
readAll(int fd, void *buf, std::size_t n)
{
    auto *p = static_cast<char *>(buf);
    while (n > 0) {
        const ssize_t got = ::read(fd, p, n);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;
        p += got;
        n -= static_cast<std::size_t>(got);
    }
    return true;
}

bool
writeAll(int fd, const void *buf, std::size_t n)
{
    const auto *p = static_cast<const char *>(buf);
    while (n > 0) {
        const ssize_t put = ::write(fd, p, n);
        if (put < 0 && errno == EINTR)
            continue;
        if (put <= 0)
            return false;
        p += put;
        n -= static_cast<std::size_t>(put);
    }
    return true;
}

/** The probe process: build one random cycle, then chase on request. */
[[noreturn]] void
serve(int requests, int replies)
{
    std::vector<std::uint64_t> next(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i)
        next[i] = i;
    // Sattolo's shuffle yields a single cycle through every slot; the
    // fixed seed makes every run chase the same cycle.
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = kSlots - 1; i > 0; --i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::swap(next[i], next[x % i]);
    }
    std::uint64_t at = 0;
    char req = 1;
    bool ok = writeAll(replies, &req, 1);
    while (ok && readAll(requests, &req, 1)) {
        const std::uint64_t t0 = nova::sim::profile::hostNow();
        for (std::size_t s = 0; s < kSteps; ++s)
            at = next[at];
        const double ms =
            static_cast<double>(nova::sim::profile::hostNow() - t0) / 1e6;
        // `at` feeds the reply so the chase cannot be optimised away.
        const double reply[2] = {ms, static_cast<double>(at)};
        ok = writeAll(replies, reply, sizeof reply);
    }
    // A forked child must not unwind or flush the parent's state.
    ::_exit(ok ? 0 : 1); // novalint:allow(raw-exit)
}

} // namespace

MemProbe::MemProbe()
{
    int req[2], rep[2];
    if (::pipe(req) != 0)
        throw std::runtime_error("probe: pipe failed");
    if (::pipe(rep) != 0) {
        ::close(req[0]);
        ::close(req[1]);
        throw std::runtime_error("probe: pipe failed");
    }
    child = ::fork();
    if (child < 0) {
        for (int fd : {req[0], req[1], rep[0], rep[1]})
            ::close(fd);
        throw std::runtime_error("probe: fork failed");
    }
    if (child == 0) {
        ::close(req[1]);
        ::close(rep[0]);
        serve(req[0], rep[1]);
    }
    ::close(req[0]);
    ::close(rep[1]);
    toChild = req[1];
    fromChild = rep[0];
    char ready = 0;
    if (!readAll(fromChild, &ready, 1)) {
        stop();
        throw std::runtime_error("probe: process did not start");
    }
}

MemProbe::~MemProbe() { stop(); }

void
MemProbe::stop()
{
    if (toChild >= 0)
        ::close(toChild);
    if (fromChild >= 0)
        ::close(fromChild);
    toChild = fromChild = -1;
    if (child > 0) {
        int status = 0;
        while (::waitpid(child, &status, 0) < 0 && errno == EINTR) {
        }
        child = -1;
    }
}

double
MemProbe::measureMs()
{
    const char req = 1;
    double reply[2] = {0, 0};
    if (!writeAll(toChild, &req, 1) ||
        !readAll(fromChild, reply, sizeof reply))
        throw std::runtime_error("probe: process stopped answering");
    return reply[0];
}

} // namespace perfbench
