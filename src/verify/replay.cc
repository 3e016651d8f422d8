#include "verify/replay.hh"

#include <charconv>
#include <cstdio>
#include <vector>

namespace nova::verify
{

namespace
{

constexpr const char *tokenVersion = "NV1";

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Split on '.'; tokens never contain empty fields. */
std::vector<std::string>
splitFields(const std::string &token)
{
    std::vector<std::string> fields;
    std::size_t pos = 0;
    while (pos <= token.size()) {
        const std::size_t dot = token.find('.', pos);
        if (dot == std::string::npos) {
            fields.push_back(token.substr(pos));
            break;
        }
        fields.push_back(token.substr(pos, dot - pos));
        pos = dot + 1;
    }
    return fields;
}

bool
parseU64(const std::string &s, int base, std::uint64_t &out)
{
    if (s.empty())
        return false;
    const auto [ptr, ec] =
        std::from_chars(s.data(), s.data() + s.size(), out, base);
    return ec == std::errc() && ptr == s.data() + s.size();
}

/** Parse "<key><number>" (e.g. "s1f" with key 's', base 16). */
bool
parseKeyed(const std::string &field, char key, int base,
           std::uint64_t &out)
{
    if (field.size() < 2 || field[0] != key)
        return false;
    return parseU64(field.substr(1), base, out);
}

} // namespace

std::string
encodeReplayToken(const ReplayCase &c)
{
    std::string token = std::string(tokenVersion) + ".s" + hex(c.seed) +
                        ".i" + std::to_string(c.index) + "." +
                        algoName(c.algo) + "." +
                        engineKindName(c.engine) + ".v" +
                        std::to_string(c.fuzzer.maxVertices) + ".e" +
                        std::to_string(c.fuzzer.maxEdges);
    if (c.fault.enabled)
        token += ".f" + std::to_string(c.fault.afterReduces) + "x" +
                 hex(c.fault.xorMask);
    return token;
}

bool
parseReplayToken(const std::string &token, ReplayCase &out)
{
    const std::vector<std::string> fields = splitFields(token);
    if (fields.size() != 7 && fields.size() != 8)
        return false;
    if (fields[0] != tokenVersion)
        return false;

    ReplayCase c;
    std::uint64_t v = 0;
    if (!parseKeyed(fields[1], 's', 16, c.seed))
        return false;
    if (!parseKeyed(fields[2], 'i', 10, c.index))
        return false;
    if (!algoFromName(fields[3], c.algo))
        return false;
    if (!engineKindFromName(fields[4], c.engine))
        return false;
    if (!parseKeyed(fields[5], 'v', 10, v))
        return false;
    c.fuzzer.maxVertices = static_cast<graph::VertexId>(v);
    if (!parseKeyed(fields[6], 'e', 10, c.fuzzer.maxEdges))
        return false;

    if (fields.size() == 8) {
        // "f<afterReduces>x<xorMask:hex>".
        const std::string &f = fields[7];
        const std::size_t x = f.find('x');
        if (f.size() < 4 || f[0] != 'f' || x == std::string::npos ||
            x < 2 || x + 1 >= f.size())
            return false;
        if (!parseU64(f.substr(1, x - 1), 10, c.fault.afterReduces))
            return false;
        if (!parseU64(f.substr(x + 1), 16, c.fault.xorMask))
            return false;
        c.fault.enabled = true;
    }

    out = c;
    return true;
}

std::string
replayCommand(const ReplayCase &c)
{
    return "nova_cli verify --replay=" + encodeReplayToken(c);
}

CaseOutcome
replayCase(const ReplayCase &c)
{
    DiffOptions opt;
    opt.algos = {c.algo};
    opt.engines = {c.engine};
    opt.fuzzer = c.fuzzer;
    opt.fault = c.fault;
    return runCase(c.seed, c.index, opt);
}

} // namespace nova::verify
