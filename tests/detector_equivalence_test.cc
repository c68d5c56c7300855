/// @file
/// Randomized decision-equivalence proof for the bit-sliced detector:
/// classify() (column-major kernel), classify_scalar() (row-major
/// shadow walk) and an *independent* reference built from plain
/// BloomSignature pairs must agree bit for bit — same cids, same
/// forward/backward split, same order — across geometries, key
/// distributions (uniform and zipf), snapshot positions and forced
/// window evictions. Every runtime-available SIMD match kernel
/// (sig/sliced_kernels.h) is forced in turn and held to the same
/// bit-for-bit standard, so the AVX2 gather-and-AND paths are
/// proven against the scalar oracle on every fuzz input. Runs under
/// ASan/TSan/UBSan with the rest of the suite, so the kernels' index
/// arithmetic is sanitizer-proven on the same inputs that prove their
/// decisions.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <vector>

#include "fpga/detector.h"
#include "fpga/validation_engine.h"
#include "sig/bloom_signature.h"

namespace rococo {
namespace {

/// Reference history: one BloomSignature pair per in-window commit,
/// classified with the seed implementation's per-entry loop. Shares
/// nothing with SlicedSignatureHistory but the SignatureConfig, so a
/// layout bug in either the columns or the row shadow cannot hide.
class ReferenceHistory
{
  public:
    ReferenceHistory(size_t window,
                     std::shared_ptr<const sig::SignatureConfig> config)
        : window_(window), config_(std::move(config))
    {
    }

    void
    record(uint64_t cid, const fpga::OffloadRequest& request)
    {
        Entry entry{cid, sig::BloomSignature(config_),
                    sig::BloomSignature(config_)};
        for (uint64_t addr : request.reads) entry.reads.insert(addr);
        for (uint64_t addr : request.writes) entry.writes.insert(addr);
        entries_.push_back(std::move(entry));
        if (entries_.size() > window_) entries_.pop_front();
    }

    core::ValidationRequest
    classify(const fpga::OffloadRequest& request) const
    {
        auto any = [](const sig::BloomSignature& sig,
                      const auto& addrs) {
            for (uint64_t addr : addrs) {
                if (sig.query(addr)) return true;
            }
            return false;
        };
        core::ValidationRequest out;
        for (const Entry& entry : entries_) {
            const bool read_overlap = any(entry.writes, request.reads);
            const bool waw = any(entry.writes, request.writes);
            const bool war = any(entry.reads, request.writes);
            if (entry.cid >= request.snapshot_cid && read_overlap) {
                out.forward.push_back(entry.cid);
            }
            if (waw || war ||
                (entry.cid < request.snapshot_cid && read_overlap)) {
                out.backward.push_back(entry.cid);
            }
        }
        return out;
    }

  private:
    struct Entry
    {
        uint64_t cid;
        sig::BloomSignature reads;
        sig::BloomSignature writes;
    };

    size_t window_;
    std::shared_ptr<const sig::SignatureConfig> config_;
    std::deque<Entry> entries_;
};

/// Bounded zipf(s) sampler over [0, n) via the precomputed CDF — the
/// skewed-contention distribution of the STAMP-style workloads.
class ZipfSampler
{
  public:
    ZipfSampler(size_t n, double s)
    {
        cdf_.reserve(n);
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
            cdf_.push_back(sum);
        }
        for (double& c : cdf_) c /= sum;
    }

    template <typename Rng>
    uint64_t
    operator()(Rng& rng)
    {
        const double u =
            std::uniform_real_distribution<double>(0.0, 1.0)(rng);
        return static_cast<uint64_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    }

  private:
    std::vector<double> cdf_;
};

struct FuzzParams
{
    size_t window;
    unsigned m;
    unsigned k;
    uint64_t key_space; ///< smaller = more (false) overlap
    bool zipf;
    uint64_t seed;
};

fpga::OffloadRequest
random_request(std::mt19937_64& rng, ZipfSampler& zipf,
               const FuzzParams& params)
{
    auto draw_key = [&]() -> uint64_t {
        if (params.zipf) return zipf(rng);
        return rng() % params.key_space;
    };
    fpga::OffloadRequest request;
    const size_t reads = rng() % 13;  // 0..12: crosses the inline cap
    const size_t writes = rng() % 9;  // 0..8 on a combined request
    for (size_t i = 0; i < reads; ++i) request.reads.push_back(draw_key());
    for (size_t i = 0; i < writes; ++i) request.writes.push_back(draw_key());
    return request;
}

void
expect_identical(const core::ValidationRequest& sliced,
                 const core::ValidationRequest& scalar,
                 const core::ValidationRequest& reference, size_t iter,
                 const char* kernel = "default")
{
    EXPECT_EQ(sliced.forward, scalar.forward)
        << "iter " << iter << " kernel " << kernel;
    EXPECT_EQ(sliced.backward, scalar.backward)
        << "iter " << iter << " kernel " << kernel;
    EXPECT_EQ(sliced.forward, reference.forward)
        << "iter " << iter << " kernel " << kernel;
    EXPECT_EQ(sliced.backward, reference.backward)
        << "iter " << iter << " kernel " << kernel;
}

/// Drive a bare detector: every iteration classifies three ways and
/// compares exactly; committed requests use striding cids (monotonic
/// but *not* consecutive — the ring must track real cids, not indices)
/// and overrun the window several times over to force evictions.
void
fuzz_detector(const FuzzParams& params)
{
    auto config = std::make_shared<const sig::SignatureConfig>(
        params.m, params.k, params.seed);
    fpga::ConflictDetector detector(params.window, config);
    ReferenceHistory reference(params.window, config);

    std::mt19937_64 rng(params.seed * 7919 + 17);
    // The CDF table is only materialized for zipf runs (uniform runs
    // may use a key space far too large to tabulate).
    ZipfSampler zipf(params.zipf ? params.key_space : 1, 1.1);
    uint64_t next_cid = 0;
    const size_t iterations = params.window * 8;

    for (size_t iter = 0; iter < iterations; ++iter) {
        fpga::OffloadRequest request = random_request(rng, zipf, params);
        // Snapshots across the whole interesting range: behind the
        // window, inside it, and at/after the newest commit.
        const uint64_t lo =
            detector.history_start() > 4 ? detector.history_start() - 4 : 0;
        request.snapshot_cid = lo + rng() % (next_cid - lo + 3);

        // Every runtime-available kernel classifies the same request
        // against the same history and must agree with the row-major
        // oracle and the independent reference bit for bit.
        const core::ValidationRequest scalar =
            detector.classify_scalar(request);
        const core::ValidationRequest ref = reference.classify(request);
        for (sig::MatchKernel kernel : sig::runtime_kernels()) {
            detector.set_match_kernel(kernel);
            expect_identical(detector.classify(request), scalar, ref, iter,
                             sig::to_string(kernel));
        }

        if (rng() % 4 != 0) { // commit 3 of 4 — overruns W repeatedly
            next_cid += 1 + rng() % 3;
            detector.record_commit(next_cid, request);
            reference.record(next_cid, request);
            ++next_cid;
        }
    }
    ASSERT_GT(next_cid, params.window); // evictions actually happened
}

TEST(DetectorEquivalence, UniformSparseKeys)
{
    fuzz_detector({64, 512, 4, uint64_t{1} << 40, false, 1});
}

TEST(DetectorEquivalence, UniformDenseKeysCollide)
{
    // 256 keys under 512 signature bits: heavy real and false overlap.
    fuzz_detector({64, 512, 4, 256, false, 2});
}

TEST(DetectorEquivalence, ZipfContention)
{
    fuzz_detector({64, 512, 4, 4096, true, 3});
}

TEST(DetectorEquivalence, MultiWordColumnsWindow100)
{
    // W=100: two-word occupancy columns, ring wrap not at a word edge.
    fuzz_detector({100, 256, 4, 1024, true, 4});
}

TEST(DetectorEquivalence, TinyWindowTinySignature)
{
    // W=16, m=64, k=2: saturated signatures, constant eviction churn.
    fuzz_detector({16, 64, 2, 128, false, 5});
}

TEST(DetectorEquivalence, WideColumnsWindow300)
{
    // W=300: five-word occupancy columns — exercises the SIMD wide
    // paths (full vector words plus a masked/scalar word tail) instead
    // of the one-register batched path.
    fuzz_detector({300, 256, 4, 2048, true, 6});
}

/// End-to-end: a live engine (bit-sliced classification inside
/// process()) against the reference, with the read-only fast path both
/// on and off. Classified-vector equality implies verdict equality —
/// the Manager's decision is a deterministic function of the vectors —
/// and the reference mirrors the engine's actual commit/evict sequence.
TEST(DetectorEquivalence, EngineFuzzReadOnlyFastPathOnAndOff)
{
    for (const bool strict : {false, true}) {
        fpga::EngineConfig config;
        config.window = 32;
        config.strict_read_only = strict;
        fpga::ValidationEngine engine(config);
        ReferenceHistory reference(config.window,
                                   engine.signature_config());

        FuzzParams params{config.window, config.signature_bits,
                          config.signature_hashes, 2048, true, 11};
        std::mt19937_64 rng(params.seed);
        ZipfSampler zipf(params.zipf ? params.key_space : 1, 1.1);

        for (size_t iter = 0; iter < 512; ++iter) {
            fpga::OffloadRequest request =
                random_request(rng, zipf, params);
            const uint64_t lo = engine.window_start();
            request.snapshot_cid =
                lo + rng() % (engine.next_cid() - lo + 2);

            expect_identical(engine.classify(request),
                             engine.detector().classify_scalar(request),
                             reference.classify(request), iter);

            const core::ValidationResult result = engine.process(request);
            // Mirror exactly what the engine recorded: fast-path
            // read-only commits (non-strict) never enter the window.
            if (result.verdict == core::Verdict::kCommit &&
                (strict || !request.writes.empty())) {
                reference.record(result.cid, request);
            }
        }
        EXPECT_GT(engine.next_cid(), config.window)
            << "strict=" << strict; // window wrapped: evictions covered
    }
}

} // namespace
} // namespace rococo
