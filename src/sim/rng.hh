/**
 * @file
 * Deterministic, portable pseudo-random number generation.
 *
 * We avoid std::random distributions because their sequences are not
 * specified across standard-library implementations; experiment
 * reproducibility requires bit-identical streams everywhere.
 * The generator is xoshiro256** seeded through SplitMix64.
 */

#ifndef SGCN_SIM_RNG_HH
#define SGCN_SIM_RNG_HH

#include <cmath>
#include <cstdint>

#include "sim/logging.hh"

namespace sgcn
{

/** xoshiro256** PRNG with helper distributions. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL)
    {
        std::uint64_t x = seed;
        for (auto &word : state)
            word = splitMix64(x);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    uniformInt(std::uint64_t bound)
    {
        SGCN_ASSERT(bound != 0);
        // Rejection-free multiply-shift (Lemire); bias is negligible
        // for the bounds used in this project and fully deterministic.
        const unsigned __int128 product =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(product >> 64);
    }

    /** Bernoulli trial with probability @p p of true. */
    bool
    bernoulli(double p)
    {
        return uniform() < p;
    }

    /** Standard normal via Box-Muller (one value per call). */
    double
    normal()
    {
        if (haveSpare) {
            haveSpare = false;
            return spare;
        }
        double u1 = uniform();
        double u2 = uniform();
        if (u1 < 1e-300)
            u1 = 1e-300;
        const double radius = std::sqrt(-2.0 * std::log(u1));
        const double theta = 2.0 * 3.14159265358979323846 * u2;
        spare = radius * std::sin(theta);
        haveSpare = true;
        return radius * std::cos(theta);
    }

    /** Normal with the given mean and standard deviation. */
    double
    normal(double mean, double stddev)
    {
        return mean + stddev * normal();
    }

    /**
     * Geometric-ish non-negative offset with the given mean, used by
     * the locality-preserving graph generator to draw neighbour
     * distances.
     */
    std::uint64_t
    geometric(double mean)
    {
        SGCN_ASSERT(mean > 0.0);
        double u = uniform();
        if (u < 1e-300)
            u = 1e-300;
        return static_cast<std::uint64_t>(-mean * std::log(u));
    }

    /** SplitMix64 step; usable stand-alone for hashing. */
    static std::uint64_t
    splitMix64(std::uint64_t &x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
    bool haveSpare = false;
    double spare = 0.0;
};

} // namespace sgcn

#endif // SGCN_SIM_RNG_HH
