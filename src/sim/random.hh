/**
 * @file
 * Deterministic pseudo-random number generation for simulation models and
 * workload generators.
 *
 * All stochastic behaviour in the repository flows through Rng so that a
 * given seed reproduces a run bit-for-bit. The generator is xoshiro256**,
 * which is fast and has good statistical quality for simulation purposes.
 */

#ifndef NOVA_SIM_RANDOM_HH
#define NOVA_SIM_RANDOM_HH

#include <cstdint>

namespace nova::sim
{

/** A small, seedable, splittable pseudo-random number generator. */
class Rng
{
  public:
    /** Construct from a 64-bit seed; any seed (including 0) is valid. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability p of returning true. */
    bool nextBool(double p);

    /**
     * Derive an independent child generator. Useful to give each
     * component its own stream without correlation.
     */
    Rng split();

  private:
    std::uint64_t s[4];

    static std::uint64_t splitMix64(std::uint64_t &state);
};

} // namespace nova::sim

#endif // NOVA_SIM_RANDOM_HH
