/**
 * @file
 * A Ligra-style software graph-processing framework (the paper's
 * software baseline, Sec. V).
 *
 * Executes the same VertexProgram abstraction with frontier-based
 * supersteps (edgeMap/vertexMap structure) on the host CPU, but does
 * not time them: it charges a deterministic 1 ns per traversed edge
 * plus 100 ns per superstep, converted to simulation ticks, so runs
 * replay bit for bit. Substitution note (DESIGN.md §3): the paper
 * measured Ligra on an 8-core x86 with 400 GB/s of memory bandwidth;
 * this cost model is not calibrated to that host, so only the
 * software-vs-accelerator shape is meaningful.
 */

#ifndef NOVA_BASELINES_LIGRA_HH
#define NOVA_BASELINES_LIGRA_HH

#include "workloads/engine.hh"

namespace nova::baselines
{

/**
 * Configuration of the software framework.
 *
 * The engine is push-based with sparse frontiers (Ligra's edgeMap /
 * vertexMap structure); direction-optimising pull iteration is not
 * modelled — for the paper's comparison only the software baseline's
 * order of magnitude matters.
 */
struct LigraConfig
{
    /** Reserved for future frontier-density tuning. */
    double denseThreshold = 0.05;
};

/** The Ligra-like software engine. */
class LigraEngine : public workloads::GraphEngine
{
  public:
    explicit LigraEngine(LigraConfig config = {}) : cfg(config) {}

    std::string name() const override { return "ligra"; }

    /** The mapping argument is unused (shared-memory execution). */
    workloads::RunResult run(workloads::VertexProgram &program,
                             const graph::Csr &g,
                             const graph::VertexMapping &map) override;

  private:
    LigraConfig cfg;
};

} // namespace nova::baselines

#endif // NOVA_BASELINES_LIGRA_HH
