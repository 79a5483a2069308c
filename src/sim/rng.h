/**
 * @file
 * Deterministic pseudo-random number generator used by the synthetic input
 * generators.  A fixed, seedable generator keeps every experiment and test
 * reproducible across hosts and standard-library versions (std::mt19937
 * would also work, but xoshiro is faster and the distributions in libstdc++
 * are not guaranteed to be stable across versions).
 */
#ifndef RNR_SIM_RNG_H
#define RNR_SIM_RNG_H

#include <cstdint>

namespace rnr {

/** splitmix64/xorshift-based PRNG with stable cross-platform output. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /** Re-initialises the state from @p seed via splitmix64. */
    void
    reseed(std::uint64_t seed)
    {
        state_ = seed;
        // Warm the state so that small seeds do not produce small outputs.
        next64();
        next64();
    }

    /** Returns the next 64 uniformly random bits. */
    std::uint64_t
    next64()
    {
        // splitmix64: passes BigCrush, one multiply-xor chain per output.
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Returns a uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Multiply-shift range reduction (Lemire); bias is negligible for
        // the bounds used here (< 2^32).
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next64()) * bound) >> 64);
    }

    /** Returns a uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

  private:
    std::uint64_t state_;
};

} // namespace rnr

#endif // RNR_SIM_RNG_H
