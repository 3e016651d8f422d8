/**
 * @file
 * Spatial vertex-to-PE mappings (Sec. IV-B of the paper).
 *
 * NOVA assigns every vertex (and its out-edges) to exactly one PE; the
 * mapping is fixed at initialization. The paper studies three
 * strategies: random (no preprocessing), load-balanced (degree-aware)
 * and locality-optimized (RABBIT-style communities); Fig. 9b.
 */

#ifndef NOVA_GRAPH_PARTITION_HH
#define NOVA_GRAPH_PARTITION_HH

#include <cstdint>
#include <vector>

#include "graph/csr.hh"

namespace nova::graph
{

/**
 * An invertible assignment of global vertices to (part, local index).
 *
 * Interleaved mappings are computed arithmetically (no tables); explicit
 * mappings store both directions.
 */
class VertexMapping
{
  public:
    VertexMapping() = default;

    /** Round-robin by id: part = v % parts, local = v / parts. */
    static VertexMapping interleave(VertexId num_vertices,
                                    std::uint32_t num_parts);

    /** Contiguous ranges: part = v / ceil(n/parts). */
    static VertexMapping chunk(VertexId num_vertices,
                               std::uint32_t num_parts);

    /**
     * Build from an explicit per-vertex part assignment; local indices
     * are allocated in ascending global-id order within each part.
     */
    static VertexMapping fromAssignment(std::vector<std::uint32_t> part_of,
                                        std::uint32_t num_parts);

    std::uint32_t parts() const { return numParts; }
    VertexId numVertices() const { return numVerts; }

    /** The part owning global vertex v. */
    std::uint32_t partOf(VertexId v) const;

    /** v's index within its owning part. */
    VertexId localOf(VertexId v) const;

    /** Inverse: the global id of the `local`-th vertex of `part`. */
    VertexId globalOf(std::uint32_t part, VertexId local) const;

    /** Number of vertices assigned to `part`. */
    VertexId localCount(std::uint32_t part) const;

    /** Largest localCount over all parts. */
    VertexId maxLocalCount() const;

  private:
    enum class Kind { Interleave, Chunk, Explicit };

    Kind kind = Kind::Interleave;
    VertexId numVerts = 0;
    std::uint32_t numParts = 1;
    VertexId chunkSize = 0;

    std::vector<std::uint32_t> partOfVec;
    std::vector<VertexId> localOfVec;
    std::vector<std::vector<VertexId>> globals;
};

/** Random balanced assignment with no preprocessing cost. */
VertexMapping randomMapping(VertexId num_vertices, std::uint32_t parts,
                            std::uint64_t seed);

/**
 * Load-balanced assignment: vertices sorted by out-degree descending and
 * dealt round-robin, so every part receives a similar number of edges.
 */
VertexMapping loadBalancedMapping(const Csr &g, std::uint32_t parts);

/**
 * Locality-optimized assignment: cluster vertices into connected
 * communities (RABBIT-like, bounded size), then pack whole communities
 * onto parts balancing edge counts. Reduces inter-PE traffic at some
 * load-balance cost.
 */
VertexMapping localityMapping(const Csr &g, std::uint32_t parts,
                              VertexId max_community = 0);

/** Edge count owned by each part under a mapping (load balance check). */
std::vector<EdgeId> edgesPerPart(const Csr &g, const VertexMapping &map);

/**
 * Fraction of edges whose endpoints live on different parts
 * (inter-PE message fraction).
 */
double cutFraction(const Csr &g, const VertexMapping &map);

} // namespace nova::graph

#endif // NOVA_GRAPH_PARTITION_HH
