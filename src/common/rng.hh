/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic behaviour in the substrate (scheduling noise, link
 * jitter, workload generators) draws from explicitly seeded Rng
 * instances so that every experiment is reproducible bit-for-bit.
 */

#ifndef HYDRA_COMMON_RNG_HH
#define HYDRA_COMMON_RNG_HH

#include <cstdint>

namespace hydra {

/** xoshiro256** generator seeded via SplitMix64. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Uniform 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** True with probability p. */
    bool chance(double p);

    /** Normal variate (Box–Muller). */
    double normal(double mean, double stddev);

  private:
    std::uint64_t state_[4];
    bool hasSpare_ = false;
    double spare_ = 0.0;
};

} // namespace hydra

#endif // HYDRA_COMMON_RNG_HH
