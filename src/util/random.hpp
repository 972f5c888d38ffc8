/**
 * @file
 * Deterministic pseudo-random number generation for workloads and tests.
 *
 * The generator is xoshiro256++ seeded through SplitMix64, which gives
 * reproducible streams across platforms (unlike std::default_random_engine)
 * while remaining far faster than std::mt19937_64. All experiment drivers
 * take an explicit seed so every table in EXPERIMENTS.md is replayable.
 */

#ifndef A3_UTIL_RANDOM_HPP
#define A3_UTIL_RANDOM_HPP

#include <cstdint>
#include <vector>

namespace a3 {

/**
 * xoshiro256++ generator. Satisfies UniformRandomBitGenerator so it can
 * also be handed to <random> distributions when convenient.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed; any value (including 0) is valid. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit output. */
    result_type operator()();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive); requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal deviate (Box-Muller with caching). */
    double normal();

    /** Normal deviate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(double p);

    /** Fisher-Yates shuffle of `values` in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &values)
    {
        for (std::size_t i = values.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(
                uniformInt(0, static_cast<std::int64_t>(i) - 1));
            std::swap(values[i - 1], values[j]);
        }
    }

    /** Derive an independent child stream (for per-trial generators). */
    Rng split();

  private:
    std::uint64_t state_[4];
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

}  // namespace a3

#endif  // A3_UTIL_RANDOM_HPP
