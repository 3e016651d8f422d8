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

/**
 * When and where the system writes (or resumes from) checkpoints.
 * Checkpoints are taken at BSP barriers — the only points of global
 * quiescence — so the policy only applies to BSP programs; requesting
 * one for an async program is a user error (fatal).
 */
struct CheckpointPolicy
{
    /** Write a checkpoint every N BSP iterations (0 = never). */
    std::uint64_t everyIters = 0;
    /** File the checkpoint is written to. */
    std::string path = "nova.ckpt";
    /** Restore from this file before running (empty = fresh run). */
    std::string resumePath;
    /**
     * Write a checkpoint after this iteration and stop the run there
     * (0 = run to completion). Used to exercise kill/resume.
     */
    std::uint64_t stopAfterIters = 0;
    /**
     * Keep this many checkpoint generations: the newest at `path`, the
     * previous at `path.1`, and so on. Resume falls back to the newest
     * generation that passes validation (self-healing checkpoints).
     */
    unsigned keepGenerations = 1;

    bool
    any() const
    {
        return everyIters > 0 || stopAfterIters > 0 || !resumePath.empty();
    }
};

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

    void setCheckpointPolicy(CheckpointPolicy policy)
    {
        ckpt = std::move(policy);
    }

    const CheckpointPolicy &checkpointPolicy() const { return ckpt; }

    workloads::RunResult run(workloads::VertexProgram &program,
                             const graph::Csr &g,
                             const graph::VertexMapping &map) override;

  private:
    NovaConfig cfg;
    CheckpointPolicy ckpt;
};

} // namespace nova::core

#endif // NOVA_CORE_SYSTEM_HH
