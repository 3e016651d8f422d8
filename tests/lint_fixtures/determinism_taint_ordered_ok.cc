// Fixture: same shape as determinism_taint_loop_bad.cc but over a
// value-keyed std::map, whose iteration order is already canonical ->
// clean.
#include <cstdint>
#include <map>

namespace nova
{

std::uint64_t mixFingerprint(std::uint64_t fp, std::uint64_t v);

std::uint64_t
pendingDigest(const std::map<std::uint32_t, std::uint64_t> &pending)
{
    std::uint64_t fp = 0xcbf29ce484222325ULL;
    for (const auto &kv : pending)
        fp = mixFingerprint(fp, kv.second);
    return fp;
}

} // namespace nova
