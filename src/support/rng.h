#ifndef SARA_SUPPORT_RNG_H
#define SARA_SUPPORT_RNG_H

/**
 * @file
 * Deterministic random-number helpers. Every randomized component in the
 * repository (workload data, property-test program generation, simulated
 * annealing) takes an explicit seed so runs are reproducible.
 */

#include <array>
#include <cstddef>
#include <cstdint>

namespace sara {

/**
 * A seeded MT19937-64 with uniform integer, real and Bernoulli draws.
 *
 * Every draw is bit-identical to std::mt19937_64 driving libstdc++'s
 * std::uniform_int_distribution<int64_t> (Lemire's nearly divisionless
 * reduction) and std::uniform_real_distribution<double>
 * (generate_canonical over one 64-bit word), so workload data and
 * annealed placements are those the standard types produce. The state
 * refill selects the twist constant without a branch, and realIn
 * scales the word by 2^-64 instead of going through
 * generate_canonical's long-double logarithms.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 1)
    {
        x_[0] = seed;
        for (size_t i = 1; i < kN; ++i)
            x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) +
                    i;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    intIn(int64_t lo, int64_t hi)
    {
        const uint64_t range =
            static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
        if (range == 0) // [INT64_MIN, INT64_MAX]: every word is a draw.
            return static_cast<int64_t>(next() + static_cast<uint64_t>(lo));
        unsigned __int128 product =
            static_cast<unsigned __int128>(next()) * range;
        uint64_t low = static_cast<uint64_t>(product);
        if (low < range) {
            const uint64_t threshold = -range % range;
            while (low < threshold) {
                product = static_cast<unsigned __int128>(next()) * range;
                low = static_cast<uint64_t>(product);
            }
        }
        return static_cast<int64_t>(static_cast<uint64_t>(product >> 64) +
                                    static_cast<uint64_t>(lo));
    }

    /** Uniform real in [lo, hi). */
    double
    realIn(double lo, double hi)
    {
        double u = static_cast<double>(next()) * 0x1p-64;
        if (u >= 1.0) // The word rounded up to 2^64.
            u = 0x1.fffffffffffffp-1;
        return u * (hi - lo) + lo;
    }

    /** Bernoulli draw. */
    bool chance(double p) { return realIn(0.0, 1.0) < p; }

    /** Pick a uniformly random element index for a container of size n. */
    size_t index(size_t n) { return static_cast<size_t>(intIn(0, n - 1)); }

  private:
    static constexpr size_t kN = 312;
    static constexpr size_t kM = 156;
    static constexpr uint64_t kUpper = ~uint64_t{0} << 31;
    static constexpr uint64_t kLower = ~kUpper;
    static constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;

    static uint64_t
    twist(uint64_t hi, uint64_t lo, uint64_t far)
    {
        const uint64_t y = (hi & kUpper) | (lo & kLower);
        return far ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
    }

    void
    refill()
    {
        size_t k = 0;
        for (; k < kN - kM; ++k)
            x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
        for (; k < kN - 1; ++k)
            x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
        x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
        pos_ = 0;
    }

    uint64_t
    next()
    {
        if (pos_ >= kN)
            refill();
        uint64_t z = x_[pos_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        z ^= z >> 43;
        return z;
    }

    std::array<uint64_t, kN> x_;
    size_t pos_ = kN;
};

} // namespace sara

#endif // SARA_SUPPORT_RNG_H
