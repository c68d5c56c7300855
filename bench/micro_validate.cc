/// Hot-path microbench for the validation request path: the two
/// numbers the bit-sliced detector rework is accountable for
/// (docs/PERFORMANCE.md, BENCH_hotpath.json).
///
///   1. classify ns/request — the column-major kernel
///      (ConflictDetector::classify_into) against the row-major walk
///      it replaced (classify_scalar), same live history, same
///      requests. The scalar loop's fresh result vectors are part of
///      its measured cost: that is exactly what the seed path did per
///      request. The kernels and the walk take turns in short rounds,
///      and each is reported relative to the first kernel (median
///      of per-round ratios), so host drift cancels out of the ratios.
///   2. pipeline validate ns + allocations/validation — the full
///      synchronous round trip through ValidationPipeline::validate()
///      (enqueue, worker classify+decide, slot wakeup) in steady
///      state, with this binary's counting operator new proving the
///      zero-allocation claim outside the test harness.
///
/// The window is kept full, so every classification scans a full
/// history and every commit evicts — the steady state of a saturated
/// engine, which is where the O(W*k) vs O(k) gap matters.
///
/// Usage: micro_validate [--iters=200000] [--pipeline-iters=50000]
///                       [--reads=4] [--writes=4] [--pool=4096]
///                       [--seed=1] [--csv=PATH]
///   Sweeps (window, signature bits, hashes) over the paper geometry
///   W=64/512-bit/k=4 plus two contrast points. --csv writes one row
///   per geometry — the input scripts/bench_summary.py --hotpath-csv
///   distills into BENCH_hotpath.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "fpga/validation_pipeline.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}

void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}
void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

using namespace rococo;

namespace {

struct Geometry
{
    size_t window;
    unsigned sig_bits;
    unsigned hashes;
};

struct KernelTiming
{
    sig::MatchKernel kernel;
    double sliced_ns = 0;
};

struct Result
{
    /// One timing per runtime-available match kernel (scalar always
    /// first), same history and request stream for each.
    std::vector<KernelTiming> kernels;
    double scalar_ns = 0;
    double pipeline_ns = 0;
    double allocs_per_validation = 0;
};

/// Timed rounds per classify kernel (see run_geometry).
constexpr unsigned kRounds = 31;

double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/// @p samples scaled to the reference series @p ref: the median of the
/// per-round ratios times the median of @p ref.
double
relative_median(const std::vector<double>& samples,
                const std::vector<double>& ref)
{
    std::vector<double> ratios(samples.size());
    for (size_t r = 0; r < samples.size(); ++r) {
        ratios[r] = samples[r] / ref[r];
    }
    return median(ratios) * median(ref);
}

uint64_t
now_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Requests drawn from one address pool, so classification hits real
/// history entries (the emit loop runs) instead of timing the
/// zero-match early exit.
std::vector<fpga::OffloadRequest>
build_requests(size_t count, size_t reads, size_t writes, uint64_t pool,
               uint64_t snapshot, Xoshiro256& rng)
{
    std::vector<fpga::OffloadRequest> requests(count);
    for (auto& request : requests) {
        for (size_t i = 0; i < reads; ++i) {
            request.reads.push_back(rng() % pool);
        }
        for (size_t i = 0; i < writes; ++i) {
            request.writes.push_back(rng() % pool);
        }
        request.snapshot_cid = snapshot;
    }
    return requests;
}

Result
run_geometry(const Geometry& geometry, uint64_t iters,
             uint64_t pipeline_iters, size_t reads, size_t writes,
             uint64_t pool, uint64_t seed)
{
    Result result;
    uint64_t sink = 0; // defeat dead-code elimination

    // --- classify kernels on a bare detector with a full window ---
    {
        auto config = std::make_shared<const sig::SignatureConfig>(
            geometry.sig_bits, geometry.hashes, seed);
        fpga::ConflictDetector detector(geometry.window, config);
        Xoshiro256 rng(seed);
        fpga::OffloadRequest committed;
        for (uint64_t cid = 0; cid < geometry.window; ++cid) {
            committed.reads.clear();
            committed.writes.clear();
            for (size_t i = 0; i < reads; ++i) {
                committed.reads.push_back(rng() % pool);
            }
            for (size_t i = 0; i < writes; ++i) {
                committed.writes.push_back(rng() % pool);
            }
            detector.record_commit(cid, committed);
        }
        const std::vector<fpga::OffloadRequest> requests = build_requests(
            1024, reads, writes, pool, geometry.window / 2, rng);

        // The iterations are split into rounds that cycle through every
        // kernel and the scalar walk. On a shared host the speed of a
        // core drifts within a run, both ways, so two long timed loops
        // compare two different machines. Within one short round the
        // conditions are shared: each figure is the first kernel's
        // median scaled by the median per-round ratio to it.
        const std::span<const sig::MatchKernel> kernels =
            sig::runtime_kernels();
        const uint64_t round_iters = std::max<uint64_t>(1, iters / kRounds);
        std::vector<std::vector<double>> kernel_ns(kernels.size());
        std::vector<double> scalar_ns;
        core::ValidationRequest out; // reused: the zero-alloc hot path
        for (unsigned round = 0; round < kRounds; ++round) {
            for (size_t k = 0; k < kernels.size(); ++k) {
                detector.set_match_kernel(kernels[k]);
                for (const auto& request : requests) { // warm caches + capacity
                    detector.classify_into(request, &out);
                    sink += out.forward.size();
                }
                const uint64_t t0 = now_ns();
                for (uint64_t i = 0; i < round_iters; ++i) {
                    detector.classify_into(requests[i % requests.size()],
                                           &out);
                    sink += out.backward.size();
                }
                const uint64_t t1 = now_ns();
                kernel_ns[k].push_back(double(t1 - t0) /
                                       double(round_iters));
            }
            detector.set_match_kernel(sig::best_kernel());

            const uint64_t t0 = now_ns();
            for (uint64_t i = 0; i < round_iters; ++i) {
                const core::ValidationRequest scalar =
                    detector.classify_scalar(requests[i % requests.size()]);
                sink += scalar.backward.size();
            }
            const uint64_t t1 = now_ns();
            scalar_ns.push_back(double(t1 - t0) / double(round_iters));
        }
        for (size_t k = 0; k < kernels.size(); ++k) {
            result.kernels.push_back(
                {kernels[k], relative_median(kernel_ns[k], kernel_ns[0])});
        }
        result.scalar_ns = relative_median(scalar_ns, kernel_ns[0]);
    }

    // --- full pipeline round trip, steady state, counted allocations ---
    {
        fpga::EngineConfig config;
        config.window = geometry.window;
        config.signature_bits = geometry.sig_bits;
        config.signature_hashes = geometry.hashes;
        fpga::ValidationPipeline pipeline(config);
        auto request = [&](uint64_t i) {
            fpga::OffloadRequest r;
            r.writes.push_back(uint64_t{1} << 32 | i); // unique: commits
            r.writes.push_back(i % 32);                // contended pool
            return r;
        };
        uint64_t i = 0;
        for (; i < 2 * geometry.window; ++i) { // fill window, grow slab
            sink += pipeline.validate(request(i)).cid;
        }
        const uint64_t allocs_before =
            g_allocations.load(std::memory_order_relaxed);
        const uint64_t t0 = now_ns();
        for (const uint64_t end = i + pipeline_iters; i < end; ++i) {
            sink += pipeline.validate(request(i)).cid;
        }
        const uint64_t t1 = now_ns();
        const uint64_t allocs =
            g_allocations.load(std::memory_order_relaxed) - allocs_before;
        result.pipeline_ns = double(t1 - t0) / double(pipeline_iters);
        result.allocs_per_validation =
            double(allocs) / double(pipeline_iters);
    }

    if (sink == 0xdead) std::printf("\n"); // keep `sink` observable
    return result;
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli(argc, argv,
            {"iters", "pipeline-iters", "reads", "writes", "pool", "seed",
             "csv"});
    const uint64_t iters =
        static_cast<uint64_t>(cli.get_int("iters", 200000));
    const uint64_t pipeline_iters =
        static_cast<uint64_t>(cli.get_int("pipeline-iters", 50000));
    const size_t reads = static_cast<size_t>(cli.get_int("reads", 4));
    const size_t writes = static_cast<size_t>(cli.get_int("writes", 4));
    const uint64_t pool = static_cast<uint64_t>(cli.get_int("pool", 4096));
    const uint64_t seed = static_cast<uint64_t>(cli.get_int("seed", 1));
    const std::string csv_path = cli.get("csv", "");

    std::printf("Validation hot path: bit-sliced classify vs the "
                "row-major scalar walk (full window, %zu reads + %zu "
                "writes per request), plus the steady-state pipeline "
                "round trip with counted heap allocations.\n\n",
                reads, writes);

    std::ofstream csv;
    if (!csv_path.empty()) {
        csv.open(csv_path);
        csv << "window,sig_bits,hashes,reads,writes,iters,kernel,"
               "sliced_ns,scalar_ns,speedup,pipeline_validate_ns,"
               "allocs_per_validation\n";
    }

    Table table({"W", "m", "k", "kernel", "sliced ns", "scalar ns",
                 "speedup", "pipeline ns", "allocs/val"});
    // W=64/512/4 is the paper deployment and the canary row; the other
    // two vary one axis each (signature size, multi-word columns). One
    // output row per (geometry, runtime-available match kernel).
    for (const Geometry& geometry : {Geometry{64, 512, 4},
                                     Geometry{64, 256, 4},
                                     Geometry{128, 512, 4}}) {
        const Result r = run_geometry(geometry, iters, pipeline_iters,
                                      reads, writes, pool, seed);
        for (const KernelTiming& t : r.kernels) {
            const double speedup =
                t.sliced_ns > 0 ? r.scalar_ns / t.sliced_ns : 0;
            table.row()
                .num(geometry.window, 0)
                .num(geometry.sig_bits, 0)
                .num(geometry.hashes, 0)
                .cell(sig::to_string(t.kernel))
                .num(t.sliced_ns, 1)
                .num(r.scalar_ns, 1)
                .num(speedup, 2)
                .num(r.pipeline_ns, 0)
                .num(r.allocs_per_validation, 3);
            if (csv.is_open()) {
                csv << geometry.window << ',' << geometry.sig_bits << ','
                    << geometry.hashes << ',' << reads << ',' << writes
                    << ',' << iters << ',' << sig::to_string(t.kernel)
                    << ',' << t.sliced_ns << ',' << r.scalar_ns << ','
                    << speedup << ',' << r.pipeline_ns << ','
                    << r.allocs_per_validation << '\n';
            }
        }
    }
    table.print();
    std::printf("\nThe scalar walk re-queries every window signature "
                "(O(W*k) per address); the bit-sliced kernel loads k "
                "occupancy columns and ANDs (O(k) words). The pipeline "
                "column is the full cross-thread validate() round trip; "
                "allocs/val is this binary's global operator-new count "
                "per steady-state validation (expected: 0).\n");
    return 0;
}
