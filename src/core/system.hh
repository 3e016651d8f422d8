/**
 * @file
 * NovaSystem: the full accelerator model (Sec. III + IV) behind the
 * GraphEngine interface. A run instantiates GPNs (8 PEs, one HBM2
 * vertex channel per PE, four shared DDR4 edge channels), the
 * interconnect, and the per-PE MPU/VMU/MGU pipelines; drives the
 * event loop to quiescence (with BSP barriers when the program asks
 * for them); and aggregates statistics.
 */

#ifndef NOVA_CORE_SYSTEM_HH
#define NOVA_CORE_SYSTEM_HH

#include <string>

#include "core/config.hh"
#include "workloads/engine.hh"

namespace nova::core
{

/** The NOVA accelerator as a graph-processing engine. */
class NovaSystem : public workloads::GraphEngine
{
  public:
    /** @throws sim::FatalError for a configuration validate() rejects. */
    explicit NovaSystem(NovaConfig config) : cfg(std::move(config))
    {
        cfg.validate();
    }

    std::string name() const override { return "nova"; }

    const NovaConfig &config() const { return cfg; }

    workloads::RunResult run(workloads::VertexProgram &program,
                             const graph::Csr &g,
                             const graph::VertexMapping &map) override;

  private:
    NovaConfig cfg;
};

} // namespace nova::core

#endif // NOVA_CORE_SYSTEM_HH
