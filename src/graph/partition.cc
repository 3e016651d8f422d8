#include "graph/partition.hh"

#include <algorithm>
#include <deque>
#include <numeric>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace nova::graph
{

using sim::Rng;

VertexMapping
VertexMapping::interleave(VertexId num_vertices, std::uint32_t num_parts)
{
    NOVA_ASSERT(num_parts > 0);
    VertexMapping m;
    m.kind = Kind::Interleave;
    m.numVerts = num_vertices;
    m.numParts = num_parts;
    return m;
}

VertexMapping
VertexMapping::chunk(VertexId num_vertices, std::uint32_t num_parts)
{
    NOVA_ASSERT(num_parts > 0);
    VertexMapping m;
    m.kind = Kind::Chunk;
    m.numVerts = num_vertices;
    m.numParts = num_parts;
    m.chunkSize = (num_vertices + num_parts - 1) / num_parts;
    if (m.chunkSize == 0)
        m.chunkSize = 1;
    return m;
}

VertexMapping
VertexMapping::fromAssignment(std::vector<std::uint32_t> part_of,
                              std::uint32_t num_parts)
{
    NOVA_ASSERT(num_parts > 0);
    VertexMapping m;
    m.kind = Kind::Explicit;
    m.numVerts = static_cast<VertexId>(part_of.size());
    m.numParts = num_parts;
    m.partOfVec = std::move(part_of);
    m.localOfVec.resize(m.numVerts);
    m.globals.resize(num_parts);
    for (VertexId v = 0; v < m.numVerts; ++v) {
        const std::uint32_t p = m.partOfVec[v];
        NOVA_ASSERT(p < num_parts, "part id out of range");
        m.localOfVec[v] = static_cast<VertexId>(m.globals[p].size());
        m.globals[p].push_back(v);
    }
    return m;
}

std::uint32_t
VertexMapping::partOf(VertexId v) const
{
    NOVA_ASSERT(v < numVerts);
    switch (kind) {
      case Kind::Interleave:
        return v % numParts;
      case Kind::Chunk:
        return std::min<std::uint32_t>(v / chunkSize, numParts - 1);
      case Kind::Explicit:
        return partOfVec[v];
    }
    return 0;
}

VertexId
VertexMapping::localOf(VertexId v) const
{
    NOVA_ASSERT(v < numVerts);
    switch (kind) {
      case Kind::Interleave:
        return v / numParts;
      case Kind::Chunk:
        return v - partOf(v) * chunkSize;
      case Kind::Explicit:
        return localOfVec[v];
    }
    return 0;
}

VertexId
VertexMapping::globalOf(std::uint32_t part, VertexId local) const
{
    NOVA_ASSERT(part < numParts);
    switch (kind) {
      case Kind::Interleave:
        return local * numParts + part;
      case Kind::Chunk:
        return part * chunkSize + local;
      case Kind::Explicit:
        return globals[part][local];
    }
    return 0;
}

VertexId
VertexMapping::localCount(std::uint32_t part) const
{
    NOVA_ASSERT(part < numParts);
    switch (kind) {
      case Kind::Interleave: {
        const VertexId base = numVerts / numParts;
        return base + (part < numVerts % numParts ? 1 : 0);
      }
      case Kind::Chunk: {
        const VertexId lo = part * chunkSize;
        if (lo >= numVerts)
            return 0;
        return std::min<VertexId>(chunkSize, numVerts - lo);
      }
      case Kind::Explicit:
        return static_cast<VertexId>(globals[part].size());
    }
    return 0;
}

VertexId
VertexMapping::maxLocalCount() const
{
    VertexId best = 0;
    for (std::uint32_t p = 0; p < numParts; ++p)
        best = std::max(best, localCount(p));
    return best;
}

VertexMapping
randomMapping(VertexId num_vertices, std::uint32_t parts, std::uint64_t seed)
{
    // Deal a shuffled deck round-robin so parts stay balanced in vertex
    // count while the assignment is uncorrelated with vertex ids.
    Rng rng(seed);
    std::vector<VertexId> order(num_vertices);
    std::iota(order.begin(), order.end(), 0);
    for (VertexId i = num_vertices; i > 1; --i) {
        const auto j = static_cast<VertexId>(rng.nextBounded(i));
        std::swap(order[i - 1], order[j]);
    }
    std::vector<std::uint32_t> part_of(num_vertices);
    for (VertexId i = 0; i < num_vertices; ++i)
        part_of[order[i]] = i % parts;
    return VertexMapping::fromAssignment(std::move(part_of), parts);
}

VertexMapping
loadBalancedMapping(const Csr &g, std::uint32_t parts)
{
    // Longest-processing-time greedy: highest-degree vertices first,
    // each onto the currently lightest part.
    const VertexId n = g.numVertices();
    std::vector<VertexId> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](VertexId a, VertexId b) {
                         return g.degree(a) > g.degree(b);
                     });
    std::vector<std::uint32_t> part_of(n);
    std::vector<EdgeId> load(parts, 0);
    std::vector<VertexId> verts(parts, 0);
    const VertexId verts_cap = (n + parts - 1) / parts;
    for (const VertexId v : order) {
        std::uint32_t lightest = 0;
        bool found = false;
        for (std::uint32_t p = 0; p < parts; ++p) {
            if (verts[p] >= verts_cap)
                continue; // keep vertex counts balanced too
            if (!found || load[p] < load[lightest]) {
                lightest = p;
                found = true;
            }
        }
        part_of[v] = lightest;
        load[lightest] += g.degree(v);
        ++verts[lightest];
    }
    return VertexMapping::fromAssignment(std::move(part_of), parts);
}

VertexMapping
localityMapping(const Csr &g, std::uint32_t parts, VertexId max_community)
{
    const VertexId n = g.numVertices();
    if (max_community == 0)
        max_community = std::max<VertexId>(16, n / (parts * 8));

    // Grow bounded BFS communities over the (directed) adjacency; this
    // is the lightweight stand-in for RABBIT's incremental aggregation.
    std::vector<std::int32_t> community(n, -1);
    std::vector<std::vector<VertexId>> members;
    std::deque<VertexId> queue;
    for (VertexId seed_v = 0; seed_v < n; ++seed_v) {
        if (community[seed_v] >= 0)
            continue;
        const auto cid = static_cast<std::int32_t>(members.size());
        members.emplace_back();
        community[seed_v] = cid;
        queue.clear();
        queue.push_back(seed_v);
        while (!queue.empty() && members[cid].size() < max_community) {
            const VertexId v = queue.front();
            queue.pop_front();
            members[cid].push_back(v);
            for (VertexId w : g.neighbors(v)) {
                if (community[w] < 0 &&
                    members[cid].size() + queue.size() < max_community) {
                    community[w] = cid;
                    queue.push_back(w);
                }
            }
        }
        // Anything still queued when the community filled up keeps its
        // membership (it was claimed above) and gets flushed here.
        for (VertexId v : queue)
            members[cid].push_back(v);
        queue.clear();
    }

    // Pack whole communities onto the currently lightest part (by edge
    // count) so locality is preserved while load stays roughly even.
    std::vector<EdgeId> load(parts, 0);
    std::vector<std::uint32_t> part_of(n);
    std::vector<std::size_t> comm_order(members.size());
    std::iota(comm_order.begin(), comm_order.end(), 0);
    auto comm_edges = [&](std::size_t c) {
        EdgeId sum = 0;
        for (VertexId v : members[c])
            sum += g.degree(v);
        return sum;
    };
    std::vector<EdgeId> sizes(members.size());
    for (std::size_t c = 0; c < members.size(); ++c)
        sizes[c] = comm_edges(c);
    std::stable_sort(comm_order.begin(), comm_order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return sizes[a] > sizes[b];
                     });
    for (std::size_t c : comm_order) {
        const auto lightest = static_cast<std::uint32_t>(std::distance(
            load.begin(), std::min_element(load.begin(), load.end())));
        for (VertexId v : members[c])
            part_of[v] = lightest;
        load[lightest] += sizes[c];
    }
    return VertexMapping::fromAssignment(std::move(part_of), parts);
}

std::vector<EdgeId>
edgesPerPart(const Csr &g, const VertexMapping &map)
{
    std::vector<EdgeId> counts(map.parts(), 0);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        counts[map.partOf(v)] += g.degree(v);
    return counts;
}

double
cutFraction(const Csr &g, const VertexMapping &map)
{
    if (g.numEdges() == 0)
        return 0;
    EdgeId cut = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        for (VertexId w : g.neighbors(v))
            if (map.partOf(v) != map.partOf(w))
                ++cut;
    return static_cast<double>(cut) / static_cast<double>(g.numEdges());
}

} // namespace nova::graph
