/// @file
/// Benchmark-side building blocks that never touch the program: the
/// seeded generator, the Zipf sampler, the pooled latency histogram,
/// deltas of the program's log2 histograms, and the result checks.
///
/// The generator and sampler deliberately do not reuse common/rng.h and
/// common/zipf.h: the benchmark's inputs for a seed must stay the same
/// when the program's code changes. The histogram is finer than
/// obs::LatencyHistogram (whose log2 buckets carry up to 2x error),
/// because the end-to-end percentiles are gated on a few percent.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/registry.h"

namespace perfbench {

namespace obs = rococo::obs;

inline uint64_t
splitmix64(uint64_t& state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// xoshiro256**: the per-thread workload stream, seeded from
/// (--seed, thread index) so one seed always yields the same calls.
class Rng
{
  public:
    explicit Rng(uint64_t seed)
    {
        for (auto& s : s_) s = splitmix64(seed);
    }

    uint64_t
    next()
    {
        const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /// Uniform in [0, n).
    uint64_t below(uint64_t n) { return next() % n; }

    /// Uniform in [0, 1).
    double uniform() { return double(next() >> 11) * 0x1.0p-53; }

  private:
    uint64_t s_[4];
};

/// Zipf(theta) over ranks [0, n) by inverse CDF; rank 0 is hottest.
class Zipf
{
  public:
    Zipf(uint64_t n, double theta) : cdf_(n)
    {
        double sum = 0;
        for (uint64_t i = 0; i < n; ++i) {
            sum += 1.0 / std::pow(double(i + 1), theta);
            cdf_[i] = sum;
        }
        for (double& c : cdf_) c /= sum;
        cdf_.back() = 1.0;
    }

    uint64_t
    draw(Rng& rng) const
    {
        const double u = rng.uniform();
        return uint64_t(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                        cdf_.begin());
    }

  private:
    std::vector<double> cdf_;
};

/// Log-linear latency histogram in ns: exact below 64 ns, then 64
/// linear sub-buckets per power of two (< 1.6% relative width), up to
/// 2^40 ns (larger samples land in the top bucket). Per-thread
/// instances are merged before any percentile is taken, so every
/// reported quantile is pooled over all samples.
class LogHist
{
  public:
    static constexpr unsigned kSubBits = 6;
    static constexpr unsigned kMaxExp = 40;
    static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
    static constexpr size_t kBuckets = kSub + (kMaxExp - kSubBits) * kSub;

    LogHist() : buckets_(kBuckets, 0) {}

    void
    record(uint64_t ns)
    {
        ++buckets_[index(ns)];
        ++count_;
        sum_ += ns;
    }

    void
    merge(const LogHist& other)
    {
        for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
        count_ += other.count_;
        sum_ += other.sum_;
    }

    uint64_t count() const { return count_; }
    double mean() const { return count_ ? double(sum_) / double(count_) : 0; }

    /// Value below which fraction @p q of the samples fall, linearly
    /// interpolated inside the containing bucket. 0 with no samples.
    double
    quantile(double q) const
    {
        if (count_ == 0) return 0;
        const double target = std::clamp(q, 0.0, 1.0) * double(count_);
        double seen = 0;
        for (size_t i = 0; i < kBuckets; ++i) {
            const double in = double(buckets_[i]);
            if (in == 0) continue;
            if (seen + in >= target) {
                const double frac = std::max(target - seen, 0.0) / in;
                return lower(i) + frac * width(i);
            }
            seen += in;
        }
        return lower(kBuckets - 1);
    }

  private:
    static size_t
    index(uint64_t v)
    {
        if (v < kSub) return size_t(v);
        if (v >> kMaxExp) return kBuckets - 1;
        const unsigned e = 63 - unsigned(std::countl_zero(v));
        const uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
        return size_t(kSub + (e - kSubBits) * kSub + sub);
    }
    static double
    lower(size_t i)
    {
        if (i < kSub) return double(i);
        const unsigned e = unsigned((i - kSub) / kSub) + kSubBits;
        const uint64_t sub = (i - kSub) % kSub;
        return std::ldexp(double(kSub + sub), int(e - kSubBits));
    }
    static double
    width(size_t i)
    {
        if (i < kSub) return 1.0;
        return std::ldexp(1.0, int((i - kSub) / kSub));
    }

    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
};

/// A copy of one of the program's obs::LatencyHistogram (log2 buckets:
/// bucket i > 0 holds [2^(i-1), 2^i)), so two reads of a live registry
/// can be subtracted into the samples recorded between them.
struct HistSnap
{
    static constexpr size_t kBuckets = obs::LatencyHistogram::kBuckets;

    std::array<uint64_t, kBuckets> b{};
    uint64_t n = 0;
    uint64_t sum = 0;

    static HistSnap
    of(obs::Registry& registry, const char* name)
    {
        const obs::LatencyHistogram& h = registry.histogram(name);
        HistSnap s;
        for (size_t i = 0; i < kBuckets; ++i) s.b[i] = h.bucket_count(i);
        s.n = h.count();
        s.sum = h.sum();
        return s;
    }

    HistSnap
    operator-(const HistSnap& before) const
    {
        HistSnap d;
        for (size_t i = 0; i < kBuckets; ++i) d.b[i] = b[i] - before.b[i];
        d.n = n - before.n;
        d.sum = sum - before.sum;
        return d;
    }

    uint64_t count() const { return n; }
    double mean() const { return n ? double(sum) / double(n) : 0; }

    /// Same estimate as obs::LatencyHistogram::quantile: linear inside
    /// the containing power-of-two bucket.
    double
    quantile(double q) const
    {
        if (n == 0) return 0;
        const double target = std::clamp(q, 0.0, 1.0) * double(n);
        double seen = 0;
        for (size_t i = 0; i < kBuckets; ++i) {
            const double in = double(b[i]);
            if (in == 0) continue;
            if (seen + in >= target) {
                if (i == 0) return 0;
                const double lo = std::ldexp(1.0, int(i) - 1);
                return lo + lo * std::max(target - seen, 0.0) / in;
            }
            seen += in;
        }
        return std::ldexp(1.0, int(kBuckets) - 1);
    }
};

/// The rmw conservation law: every completed rmw adds 1 to each of its
/// @p keys_per_rmw keys and nothing else writes, so once the store is
/// quiet the sum of all values is the loaded sum plus keys_per_rmw per
/// completed rmw (mod 2^64, as the values are summed). A lost or
/// doubled update breaks it.
inline bool
rmw_sum_conserved(uint64_t loaded_sum, uint64_t rmw_done,
                  uint64_t keys_per_rmw, uint64_t observed_sum)
{
    return observed_sum == loaded_sum + keys_per_rmw * rmw_done;
}

} // namespace perfbench
