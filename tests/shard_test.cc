/// Tests for the sharded validation tier (src/shard): partitioner
/// coverage and ordering, exact S=1 equivalence with the single
/// engine, serializability of replayed histories across shard counts
/// (against the src/graph oracle, with forced cross-shard conflicts),
/// the cross-shard coordinator's abort/release and fence rules, the
/// concurrent-caller accounting invariant (and absence of deadlock),
/// metric export, the shard lock, and the RococoTm / svc::Server
/// adoptions.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "cc/engine_cc.h"
#include "cc/replay.h"
#include "cc/rococo_cc.h"
#include "cc/trace_generator.h"
#include "common/rng.h"
#include "common/spin_park_mutex.h"
#include "graph/serializability.h"
#include "obs/registry.h"
#include "shard/partition.h"
#include "shard/router.h"
#include "shard/shard_cc.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/worker_pool.h"
#include "tm/rococo_tm.h"

namespace rococo::shard {
namespace {

/// Smallest address >= @p start owned by @p shard.
uint64_t
address_on_shard(const Partitioner& partitioner, uint32_t shard,
                 uint64_t start = 0)
{
    for (uint64_t address = start;; ++address) {
        if (partitioner.shard_of(address) == shard) return address;
    }
}

TEST(Partitioner, SplitCoversEveryAddressInItsOwnerShard)
{
    const Partitioner partitioner(4);
    fpga::OffloadRequest request;
    Xoshiro256 rng(7);
    for (int i = 0; i < 64; ++i) request.reads.push_back(rng());
    for (int i = 0; i < 64; ++i) request.writes.push_back(rng());

    const auto subs = partitioner.split(request);
    size_t reads = 0, writes = 0;
    for (const SubRequest& sub : subs) {
        for (uint64_t address : sub.offload.reads) {
            EXPECT_EQ(partitioner.shard_of(address), sub.shard);
        }
        for (uint64_t address : sub.offload.writes) {
            EXPECT_EQ(partitioner.shard_of(address), sub.shard);
        }
        reads += sub.offload.reads.size();
        writes += sub.offload.writes.size();
    }
    EXPECT_EQ(reads, request.reads.size());
    EXPECT_EQ(writes, request.writes.size());
}

TEST(Partitioner, SubRequestsAscendByShardAndTouchedAgrees)
{
    for (uint32_t shards : {1u, 2u, 4u, 8u, 16u}) {
        const Partitioner partitioner(shards);
        Xoshiro256 rng(shards);
        for (int trial = 0; trial < 50; ++trial) {
            fpga::OffloadRequest request;
            const unsigned n = 1 + unsigned(rng.below(12));
            for (unsigned i = 0; i < n; ++i) {
                (rng.below(2) ? request.reads : request.writes)
                    .push_back(rng.below(1024));
            }
            const auto subs = partitioner.split(request);
            for (size_t i = 1; i < subs.size(); ++i) {
                EXPECT_LT(subs[i - 1].shard, subs[i].shard);
            }
            EXPECT_EQ(partitioner.touched(request.reads, request.writes),
                      subs.size());
        }
    }
}

TEST(ShardCc, SingleShardMatchesSingleEngineDecisions)
{
    // S = 1 must be *exactly* the single-engine deployment: same
    // decisions, transaction by transaction, on whole replays.
    cc::UniformTraceParams params;
    params.locations = 256;
    params.accesses = 10;
    params.txns = 400;
    for (uint64_t seed : {1u, 2u, 3u}) {
        params.seed = seed;
        const cc::Trace trace = cc::generate_uniform_trace(params);
        cc::EngineCc engine;
        ShardConfig config;
        config.shards = 1;
        ShardCc sharded(config);
        const auto engine_result = cc::replay(engine, trace, 8);
        const auto shard_result = cc::replay(sharded, trace, 8);
        EXPECT_EQ(shard_result.committed, engine_result.committed)
            << "seed " << seed;
    }
}

TEST(ShardCc, ReplaysStaySerializableAcrossShardCounts)
{
    // The acceptance property: histories admitted through the
    // cross-shard coordinator pass the exact serializability oracle.
    // Few locations + many accesses force plenty of genuinely
    // cross-shard transactions and conflicts.
    cc::UniformTraceParams params;
    params.locations = 96;
    params.accesses = 8;
    params.txns = 500;
    for (uint32_t shards : {2u, 4u, 8u}) {
        for (uint64_t seed : {1u, 2u, 3u}) {
            params.seed = seed;
            const cc::Trace trace = cc::generate_uniform_trace(params);
            ShardConfig config;
            config.shards = shards;
            ShardCc algorithm(config);
            const auto result = cc::replay(algorithm, trace, 8);
            EXPECT_TRUE(
                cc::check_history(trace, result.committed, 8).serializable)
                << "shards " << shards << " seed " << seed;
            EXPECT_GT(result.commit_count, 0u);
            // The sweep only means something if the coordinator path
            // actually ran.
            EXPECT_GT(algorithm.router().stats().get("shard.cross"), 0u)
                << "shards " << shards << " seed " << seed;
        }
    }
}

TEST(ShardCc, SkewedTracesStaySerializable)
{
    cc::SkewedTraceParams params;
    params.locations = 128;
    params.accesses = 8;
    params.theta = 0.9;
    params.txns = 400;
    for (uint32_t shards : {2u, 4u}) {
        ShardConfig config;
        config.shards = shards;
        ShardCc algorithm(config);
        const cc::Trace trace = cc::generate_skewed_trace(params);
        const auto result = cc::replay(algorithm, trace, 8);
        EXPECT_TRUE(
            cc::check_history(trace, result.committed, 8).serializable);
    }
}

TEST(ShardRouter, CrossShardForwardDependencyAbortsAndReleases)
{
    ShardConfig config;
    config.shards = 2;
    ShardRouter router(config);
    const Partitioner& partitioner = router.partitioner();
    const uint64_t a0 = address_on_shard(partitioner, 0);
    const uint64_t a1 = address_on_shard(partitioner, 1);

    // t1: single-shard write to a0, commits as global 0.
    auto r1 = router.process({{}, {a0}, 0});
    ASSERT_EQ(r1.verdict, core::Verdict::kCommit);
    EXPECT_EQ(r1.cid, 0u);

    // t2: cross-shard, but its snapshot predates t1's commit and it
    // read a0 — a forward dependency (t2 ->rw t1), which rule CS1
    // forbids for cross-shard transactions.
    RouteInfo info;
    auto r2 = router.process({{a0}, {a1}, 0}, &info);
    EXPECT_EQ(r2.verdict, core::Verdict::kAbortCycle);
    EXPECT_EQ(r2.reason, obs::AbortReason::kCrossShardFence);
    EXPECT_EQ(info.shards_touched, 2u);

    // Release must leave both shards untouched: no commit happened
    // anywhere, global order unchanged, shard 1 still empty.
    EXPECT_EQ(router.global_commits(), 1u);
    EXPECT_EQ(router.engine(1).manager().validator().occupancy(), 0u);

    // The same transaction with a current snapshot has only backward
    // dependencies and goes through both shards atomically.
    auto r3 = router.process({{a0}, {a1}, router.global_commits()}, &info);
    EXPECT_EQ(r3.verdict, core::Verdict::kCommit);
    EXPECT_EQ(r3.cid, 1u);
    EXPECT_EQ(info.shards_touched, 2u);
    EXPECT_EQ(router.engine(1).manager().validator().occupancy(), 1u);
}

TEST(ShardRouter, FenceBlocksSingleShardForwardPastCrossCommit)
{
    ShardConfig config;
    config.shards = 2;
    ShardRouter router(config);
    const Partitioner& partitioner = router.partitioner();
    const uint64_t a0 = address_on_shard(partitioner, 0);
    const uint64_t a1 = address_on_shard(partitioner, 1);
    const uint64_t b0 = address_on_shard(partitioner, 0, a0 + 1);

    // Cross-shard commit x writes {a0, a1}: shard 0's fence advances
    // past x's per-shard cid.
    auto x = router.process({{}, {a0, a1}, 0});
    ASSERT_EQ(x.verdict, core::Verdict::kCommit);

    // Single-shard t read a0 before x wrote it (old snapshot): its
    // forward dependency on x sits behind the fence — rule CS2 aborts
    // it even though a plain single-engine window would allow
    // committing "into the past".
    auto t = router.process({{a0}, {b0}, 0});
    EXPECT_EQ(t.verdict, core::Verdict::kAbortCycle);
    EXPECT_EQ(t.reason, obs::AbortReason::kCrossShardFence);

    // With a current snapshot the same access pattern has no forward
    // edge and commits; single-shard flexibility above the fence stays.
    auto u = router.process({{a0}, {b0}, router.global_commits()});
    EXPECT_EQ(u.verdict, core::Verdict::kCommit);
}

TEST(ShardRouter, SingleShardForwardBeforeFenceStillAllowed)
{
    // Forward dependencies to *single-shard* commits above the fence
    // keep working: the full ROCoCo "commit into the past" flexibility
    // is only restricted at cross-shard commits.
    ShardConfig config;
    config.shards = 2;
    ShardRouter router(config);
    const Partitioner& partitioner = router.partitioner();
    const uint64_t a0 = address_on_shard(partitioner, 0);
    const uint64_t b0 = address_on_shard(partitioner, 0, a0 + 1);
    const uint64_t c0 = address_on_shard(partitioner, 0, b0 + 1);

    // Single-shard commit w writes a0 (global 0, fence stays 0).
    ASSERT_EQ(router.process({{}, {a0}, 0}).verdict,
              core::Verdict::kCommit);
    // t read a0 before w committed: forward edge t ->rw w, no fence in
    // the way, no cycle — ROCoCo serializes t before w and commits.
    auto t = router.process({{a0}, {b0, c0}, 0});
    EXPECT_EQ(t.verdict, core::Verdict::kCommit);
}

TEST(ShardRouter, StaleSnapshotOverflowsPerShardWindow)
{
    ShardConfig config;
    config.shards = 2;
    config.engine.window = 4;
    ShardRouter router(config);
    const Partitioner& partitioner = router.partitioner();
    const uint64_t a0 = address_on_shard(partitioner, 0);

    // Fill shard 0's window past capacity so its oldest commits evict.
    uint64_t address = 0;
    for (int i = 0; i < 8; ++i) {
        address = address_on_shard(partitioner, 0, address + 1);
        ASSERT_EQ(router
                      .process({{}, {address}, router.global_commits()})
                      .verdict,
                  core::Verdict::kCommit);
    }
    // A reader whose snapshot predates the evicted commits cannot be
    // checked against them ("neglects updates of t_{k-W}").
    auto stale = router.process({{a0}, {address}, 0});
    EXPECT_EQ(stale.verdict, core::Verdict::kWindowOverflow);
    EXPECT_EQ(stale.reason, obs::AbortReason::kWindowEviction);

    // A write-only transaction with the same ancient snapshot is
    // unaffected — the snapshot only splits read edges (single-engine
    // parity).
    auto write_only = router.process({{}, {address}, 0});
    EXPECT_EQ(write_only.verdict, core::Verdict::kCommit);
}

TEST(ShardRouter, ConcurrentCallersKeepAccountingAndFinish)
{
    // The deadlock hammer and the accounting invariant in one: many
    // threads mixing single- and cross-shard transactions, with a
    // metrics reader polling concurrently. Completion proves the
    // ascending lock order is deadlock-free; the counters must balance
    // exactly afterwards.
    ShardConfig config;
    config.shards = 4;
    ShardRouter router(config);
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kPerThread = 1500;
    std::atomic<bool> done{false};
    std::thread poller([&] {
        while (!done.load(std::memory_order_acquire)) {
            obs::Registry scratch;
            router.export_metrics(scratch);
            (void)router.occupancy();
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            Xoshiro256 rng(100 + t);
            for (uint64_t i = 0; i < kPerThread; ++i) {
                fpga::OffloadRequest request;
                const unsigned reads = unsigned(rng.below(3));
                for (unsigned r = 0; r < reads; ++r) {
                    request.reads.push_back(rng.below(512));
                }
                const unsigned writes = 1 + unsigned(rng.below(2));
                for (unsigned w = 0; w < writes; ++w) {
                    request.writes.push_back(rng.below(512));
                }
                request.snapshot_cid = router.global_commits();
                (void)router.validate(std::move(request));
            }
        });
    }
    for (auto& worker : workers) worker.join();
    done.store(true, std::memory_order_release);
    poller.join();

    const CounterBag stats = router.stats();
    const uint64_t total = kThreads * kPerThread;
    EXPECT_EQ(stats.get("submitted"), total);
    EXPECT_EQ(stats.get("commit") + stats.get("abort-cycle") +
                  stats.get("window-overflow") + stats.get("timeout") +
                  stats.get("rejected"),
              total);
    // Every request had a write, so the global commit order and the
    // commit verdicts must agree one-to-one.
    EXPECT_EQ(router.global_commits(), stats.get("commit"));
    // Work was spread: every shard validated something, and the
    // coordinator path ran.
    uint64_t per_shard = 0;
    for (uint32_t s = 0; s < config.shards; ++s) {
        const uint64_t v =
            stats.get("shard." + std::to_string(s) + ".validations");
        EXPECT_GT(v, 0u) << "shard " << s;
        per_shard += v;
    }
    EXPECT_GE(per_shard, stats.get("shard.validations"));
    EXPECT_GT(stats.get("shard.cross"), 0u);
}

TEST(ShardRouter, WorkerPoolHistoryPassesSerializabilityOracle)
{
    // The oracle re-proof under the *real* multi-threaded deployment:
    // requests flow through a svc::WorkerPool (affinity routing, four
    // engine workers racing on four shards) instead of the sequential
    // replay driver. Each request's snapshot is captured at submit
    // time, so by the time a worker validates it, later commits have
    // landed and genuine forward dependencies arise. Afterwards the
    // exact multiversion dependency graph of the committed history —
    // version order per address is global-cid order, a reader observes
    // the newest version with cid < its snapshot — must be acyclic:
    // the same src/graph oracle the sequential replays pass, rebuilt
    // for the out-of-replay-order commit sequence the workers produce.
    ShardConfig config;
    config.shards = 4;
    ShardRouter router(config);
    svc::WorkerPool pool(router, /*threads=*/4, /*capacity=*/32);
    ASSERT_TRUE(pool.start());

    struct Rec
    {
        std::vector<uint64_t> reads;
        std::vector<uint64_t> writes;
        uint64_t snapshot = 0;
        bool committed = false;
        bool resolved = false;
        uint64_t cid = 0;
    };
    constexpr size_t kTxns = 6000;
    constexpr uint64_t kLocations = 96; // few: force real conflicts
    std::vector<Rec> recs(kTxns);
    std::vector<svc::WorkerJob*> done;
    done.reserve(32);
    Xoshiro256 rng(2026);

    const auto harvest = [&] {
        for (svc::WorkerJob* job : done) {
            Rec& rec = recs[job->request_id];
            rec.resolved = true;
            rec.committed = job->result.verdict == core::Verdict::kCommit;
            rec.cid = job->result.cid;
            pool.release(job);
        }
        done.clear();
    };

    for (size_t i = 0; i < kTxns; ++i) {
        svc::WorkerJob* job = pool.acquire();
        while (job == nullptr) { // slab full: reap like Server::loop
            pool.drain_completions(done);
            harvest();
            job = pool.acquire();
        }
        Rec& rec = recs[i];
        for (unsigned r = unsigned(rng.below(3)); r > 0; --r) {
            rec.reads.push_back(rng.below(kLocations));
        }
        for (unsigned w = 1 + unsigned(rng.below(2)); w > 0; --w) {
            rec.writes.push_back(rng.below(kLocations));
        }
        // The graph below indexes writers per address; a duplicate in
        // one transaction would self-chain, so dedupe the footprint.
        for (auto* set : {&rec.reads, &rec.writes}) {
            std::sort(set->begin(), set->end());
            set->erase(std::unique(set->begin(), set->end()), set->end());
        }
        rec.snapshot = router.global_commits();
        job->request_id = i;
        job->arrival_ns = 1;
        job->deadline_ns = 0;
        for (uint64_t a : rec.reads) job->offload.reads.push_back(a);
        for (uint64_t a : rec.writes) job->offload.writes.push_back(a);
        job->offload.snapshot_cid = rec.snapshot;
        pool.submit(job);
    }
    pool.stop();
    pool.drain_completions(done);
    harvest();

    uint64_t commits = 0;
    for (const Rec& rec : recs) {
        ASSERT_TRUE(rec.resolved);
        commits += rec.committed ? 1 : 0;
    }
    EXPECT_GT(commits, 0u);
    // The run only re-proves something if the interesting paths ran.
    const CounterBag stats = router.stats();
    EXPECT_GT(stats.get("abort-cycle"), 0u);
    EXPECT_GT(stats.get("shard.cross"), 0u);

    // Committed writers per address in version (global-cid) order.
    std::map<uint64_t, std::vector<size_t>> writers;
    for (size_t i = 0; i < kTxns; ++i) {
        if (!recs[i].committed) continue;
        for (uint64_t addr : recs[i].writes) writers[addr].push_back(i);
    }
    graph::DependencyGraph g(kTxns);
    for (auto& [addr, list] : writers) {
        std::sort(list.begin(), list.end(), [&](size_t a, size_t b) {
            return recs[a].cid < recs[b].cid;
        });
        for (size_t v = 1; v < list.size(); ++v) {
            g.add_edge(list[v - 1], list[v]); // WAW: version chain
        }
    }
    for (size_t i = 0; i < kTxns; ++i) {
        const Rec& rec = recs[i];
        if (!rec.committed) continue;
        for (uint64_t addr : rec.reads) {
            const auto it = writers.find(addr);
            if (it == writers.end()) continue;
            // Observed version: newest committed writer the snapshot
            // contains (cid < snapshot). The list is cid-sorted.
            size_t observed = SIZE_MAX;
            for (size_t w : it->second) {
                if (recs[w].cid >= rec.snapshot) break;
                if (w != i) observed = w;
            }
            if (observed != SIZE_MAX) g.add_edge(observed, i); // RAW
            for (size_t w : it->second) {
                if (w == i || w == observed) continue;
                const bool later = observed == SIZE_MAX ||
                                   recs[w].cid > recs[observed].cid;
                if (later) g.add_edge(i, w); // RW anti-dependency
            }
        }
    }
    const auto verdict = graph::check_serializability(g);
    EXPECT_TRUE(verdict.serializable)
        << "worker-pool history admitted a dependency cycle of length "
        << (verdict.cycle.empty() ? 0 : verdict.cycle.size() - 1);
}

TEST(ShardRouter, ExportsPerShardMetrics)
{
    ShardConfig config;
    config.shards = 2;
    ShardRouter router(config);
    const Partitioner& partitioner = router.partitioner();
    const uint64_t a0 = address_on_shard(partitioner, 0);
    const uint64_t a1 = address_on_shard(partitioner, 1);
    ASSERT_EQ(router.process({{}, {a0}, 0}).verdict,
              core::Verdict::kCommit);
    ASSERT_EQ(router.process({{}, {a0, a1}, 1}).verdict,
              core::Verdict::kCommit);

    obs::Registry registry;
    router.export_metrics(registry);
    EXPECT_EQ(registry.get("shard.validations"), 2u);
    EXPECT_EQ(registry.get("shard.cross"), 1u);
    EXPECT_GT(registry.get("shard.0.validations"), 0u);
    EXPECT_GT(registry.get("shard.1.validations"), 0u);
    EXPECT_DOUBLE_EQ(registry.gauge("shard.cross_fraction").value(), 0.5);
    EXPECT_GT(registry.gauge("shard.imbalance").value(), 0.0);
    EXPECT_DOUBLE_EQ(registry.gauge("shard.0.occupancy").value(), 2.0);
    EXPECT_DOUBLE_EQ(registry.gauge("shard.1.occupancy").value(), 1.0);
    EXPECT_GT(registry.histogram("shard.route_ns").count(), 0u);
    EXPECT_GT(registry.histogram("shard.coord_ns").count(), 0u);
}

TEST(ShardRouter, StopRejectsFurtherWork)
{
    ShardConfig config;
    config.shards = 2;
    ShardRouter router(config);
    router.stop();
    router.stop(); // idempotent
    auto result = router.validate({{}, {1}, 0});
    EXPECT_EQ(result.verdict, core::Verdict::kRejected);
    EXPECT_EQ(result.reason, obs::AbortReason::kBackpressure);
    auto future = router.submit({{}, {2}, 0});
    EXPECT_EQ(future.get().verdict, core::Verdict::kRejected);
}

TEST(ShardRouter, ExpiredDeadlineIsHonored)
{
    ShardConfig config;
    config.shards = 2;
    ShardRouter router(config);
    auto result =
        router.validate({{}, {1}, 0}, std::chrono::nanoseconds(0));
    EXPECT_EQ(result.verdict, core::Verdict::kTimeout);
    EXPECT_EQ(result.reason, obs::AbortReason::kTimeout);
    EXPECT_EQ(router.stats().get("timeout"), 1u);
}

TEST(SpinParkMutex, ExcludesWhileHolderSleepsPastSpinBound)
{
    // Every 50th holder sleeps 5x past the spin bound, so contenders
    // exhaust their spin and park; the rest hold it briefly, so they
    // mostly spin. `counter` is plain: only the lock orders it.
    SpinParkMutex mutex;
    int64_t counter = 0;
    std::atomic<int> inside{0};
    std::atomic<int> overlaps{0};
    constexpr unsigned kThreads = 4;
    constexpr int kPerThread = 2000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                std::lock_guard<SpinParkMutex> lock(mutex);
                if (inside.fetch_add(1) != 0) ++overlaps;
                ++counter;
                if ((i + int(t)) % 50 == 0) {
                    std::this_thread::sleep_for(5 *
                                                SpinParkMutex::kSpinBound);
                }
                inside.fetch_sub(1);
            }
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(overlaps.load(), 0);
    EXPECT_EQ(counter, int64_t(kThreads) * kPerThread);
    EXPECT_TRUE(mutex.try_lock());
    EXPECT_FALSE(mutex.try_lock());
    mutex.unlock();
}

TEST(RococoTmSharded, TransfersConserveAcrossShards)
{
    tm::RococoTmConfig config;
    config.validation_shards = 4;
    tm::RococoTm runtime(config);
    constexpr size_t kCells = 64;
    tm::TmArray<int64_t> cells(kCells);
    constexpr unsigned kThreads = 4;
    constexpr int kPerThread = 200;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            runtime.thread_init(t);
            Xoshiro256 rng(t);
            for (int i = 0; i < kPerThread; ++i) {
                const size_t a = rng.below(kCells);
                const size_t b = (a + 1 + rng.below(kCells - 1)) % kCells;
                runtime.execute([&](tm::Tx& tx) {
                    cells.set(tx, a, cells.get(tx, a) - 1);
                    cells.set(tx, b, cells.get(tx, b) + 1);
                });
            }
            runtime.thread_fini();
        });
    }
    for (auto& worker : workers) worker.join();

    int64_t total = 0;
    for (size_t i = 0; i < kCells; ++i) total += cells.get_unsafe(i);
    EXPECT_EQ(total, 0);
    EXPECT_EQ(runtime.stats().get(tm::stat::kCommits),
              uint64_t(kThreads) * kPerThread);
    // The backend really was the sharded tier.
    EXPECT_GT(runtime.fpga_stats().get("shard.validations"), 0u);
}

TEST(SvcServerSharded, AccountingInvariantHoldsWithShards)
{
    svc::ServerConfig config;
    config.socket_path = "/tmp/rococo_shard_test_" +
                         std::to_string(getpid()) + ".sock";
    config.shards = 4;
    config.max_batch = 8;
    svc::Server server(config);
    ASSERT_TRUE(server.start());

    const Partitioner partitioner(4); // same default seed as the server
    constexpr unsigned kClients = 2;
    std::vector<std::thread> clients;
    std::atomic<uint64_t> commits{0};
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            svc::ClientConfig client_config;
            client_config.socket_path = config.socket_path;
            svc::ValidationClient client(client_config);
            ASSERT_TRUE(client.connected());
            Xoshiro256 rng(10 + c);
            for (int i = 0; i < 300; ++i) {
                fpga::OffloadRequest request;
                // Every third request is deliberately cross-shard.
                if (i % 3 == 0) {
                    request.writes.push_back(
                        address_on_shard(partitioner, 0, rng.below(256)));
                    request.writes.push_back(
                        address_on_shard(partitioner, 1, rng.below(256)));
                } else {
                    request.writes.push_back(rng.below(1024));
                    request.reads.push_back(rng.below(1024));
                }
                request.snapshot_cid = ~uint64_t{0} >> 1;
                const auto result = client.validate(std::move(request));
                if (result.verdict == core::Verdict::kCommit) {
                    commits.fetch_add(1, std::memory_order_relaxed);
                }
            }
            client.stop();
        });
    }
    for (auto& client : clients) client.join();
    server.stop();

    const CounterBag stats = server.stats();
    const uint64_t answered = stats.get("svc.verdict.commit") +
                              stats.get("svc.verdict.abort-cycle") +
                              stats.get("svc.verdict.window-overflow") +
                              stats.get("svc.timeout") +
                              stats.get("svc.rejected");
    EXPECT_EQ(stats.get("svc.requests"), uint64_t(kClients) * 300);
    EXPECT_EQ(answered, stats.get("svc.requests"));
    EXPECT_EQ(stats.get("svc.verdict.commit"), commits.load());
    // The shard tier's own accounting rides along in the same bag.
    EXPECT_GT(stats.get("shard.cross"), 0u);
    EXPECT_EQ(stats.get("shard.validations"), stats.get("svc.requests") -
                                                  stats.get("svc.timeout") -
                                                  stats.get("svc.rejected"));
}

} // namespace
} // namespace rococo::shard
