// Fixture: folding an unordered_map's values straight into an order
// fingerprint -> determinism-taint fires inside the loop (bucket order
// would reach the fingerprint).
#include <cstdint>
#include <unordered_map>

namespace nova
{

std::uint64_t mixFingerprint(std::uint64_t fp, std::uint64_t v);

std::uint64_t
pendingDigest(const std::unordered_map<std::uint32_t, std::uint64_t> &pending)
{
    std::uint64_t fp = 0xcbf29ce484222325ULL;
    for (const auto &kv : pending)
        fp = mixFingerprint(fp, kv.second);
    return fp;
}

} // namespace nova
