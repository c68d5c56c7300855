/// Cross-runtime correctness battery: every TM runtime (ROCoCoTM,
/// TinySTM-LSA, simulated TSX, global lock) must preserve atomicity
/// and isolation under real concurrent threads. These are the
/// "does the actual runtime work" tests; scalability is measured by
/// the simulator and the benchmarks, not here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "baselines/global_lock_tm.h"
#include "baselines/htm_tsx.h"
#include "baselines/sequential_tm.h"
#include "baselines/tinystm_lsa.h"
#include "common/rng.h"
#include "tm/rococo_tm.h"
#include "tm/tm.h"

namespace rococo {
namespace {

using tm::TmRuntime;

std::unique_ptr<TmRuntime>
make_runtime(const std::string& name)
{
    if (name == "rococo") return std::make_unique<tm::RococoTm>();
    if (name == "tinystm") {
        baselines::TinyStmConfig config;
        config.stripes = 1 << 16;
        return std::make_unique<baselines::TinyStmLsa>(config);
    }
    if (name == "htm") {
        return std::make_unique<baselines::HtmTsxSim>();
    }
    if (name == "lock") return std::make_unique<baselines::GlobalLockTm>();
    ADD_FAILURE() << "unknown runtime " << name;
    return nullptr;
}

/// Run body loops on several threads with proper init/fini.
void
run_threads(TmRuntime& rt, unsigned threads,
            const std::function<void(unsigned)>& body)
{
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            rt.thread_init(t);
            body(t);
            rt.thread_fini();
        });
    }
    for (auto& w : workers) w.join();
}

class RuntimeTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RuntimeTest, SingleThreadReadWrite)
{
    auto rt = make_runtime(GetParam());
    tm::TmVar<int64_t> x(5);
    run_threads(*rt, 1, [&](unsigned) {
        rt->execute([&](tm::Tx& tx) { x.set(tx, x.get(tx) + 1); });
    });
    EXPECT_EQ(x.get_unsafe(), 6);
    EXPECT_GE(rt->stats().get(tm::stat::kCommits), 1u);
}

TEST_P(RuntimeTest, ReadAfterWriteWithinTx)
{
    auto rt = make_runtime(GetParam());
    tm::TmVar<int64_t> x(0);
    run_threads(*rt, 1, [&](unsigned) {
        rt->execute([&](tm::Tx& tx) {
            x.set(tx, 41);
            EXPECT_EQ(x.get(tx), 41);
            x.set(tx, x.get(tx) + 1);
        });
    });
    EXPECT_EQ(x.get_unsafe(), 42);
}

TEST_P(RuntimeTest, CounterIncrementsAreAtomic)
{
    auto rt = make_runtime(GetParam());
    tm::TmVar<int64_t> counter(0);
    constexpr unsigned kThreads = 4;
    constexpr int kPerThread = 200;
    run_threads(*rt, kThreads, [&](unsigned) {
        for (int i = 0; i < kPerThread; ++i) {
            rt->execute(
                [&](tm::Tx& tx) { counter.set(tx, counter.get(tx) + 1); });
        }
    });
    EXPECT_EQ(counter.get_unsafe(), int64_t(kThreads) * kPerThread);
}

TEST_P(RuntimeTest, BankTransfersConserveTotal)
{
    auto rt = make_runtime(GetParam());
    constexpr size_t kAccounts = 32;
    constexpr int64_t kInitial = 100;
    tm::TmArray<int64_t> accounts(kAccounts);
    for (size_t i = 0; i < kAccounts; ++i) {
        accounts.set_unsafe(i, kInitial);
    }
    constexpr unsigned kThreads = 4;
    run_threads(*rt, kThreads, [&](unsigned tid) {
        Xoshiro256 rng(1000 + tid);
        for (int i = 0; i < 150; ++i) {
            const size_t from = rng.below(kAccounts);
            const size_t to = rng.below(kAccounts);
            if (from == to) continue;
            rt->execute([&](tm::Tx& tx) {
                const int64_t amount = 1 + int64_t(rng.below(5));
                accounts.set(tx, from, accounts.get(tx, from) - amount);
                accounts.set(tx, to, accounts.get(tx, to) + amount);
            });
        }
    });
    int64_t total = 0;
    for (size_t i = 0; i < kAccounts; ++i) {
        total += accounts.get_unsafe(i);
    }
    EXPECT_EQ(total, int64_t(kAccounts) * kInitial);
}

TEST_P(RuntimeTest, IsolationInvariantHolds)
{
    // Two cells always updated together must never be observed unequal
    // inside a transaction (catches torn snapshots / isolation bugs).
    auto rt = make_runtime(GetParam());
    tm::TmVar<int64_t> a(0), b(0);
    std::atomic<bool> violated{false};
    constexpr unsigned kThreads = 4;
    run_threads(*rt, kThreads, [&](unsigned tid) {
        Xoshiro256 rng(7 + tid);
        for (int i = 0; i < 200; ++i) {
            if (rng.chance(0.5)) {
                rt->execute([&](tm::Tx& tx) {
                    const int64_t v = a.get(tx) + 1;
                    a.set(tx, v);
                    b.set(tx, v);
                });
            } else {
                rt->execute([&](tm::Tx& tx) {
                    const int64_t va = a.get(tx);
                    const int64_t vb = b.get(tx);
                    if (va != vb) violated = true;
                });
            }
        }
    });
    EXPECT_FALSE(violated.load());
    EXPECT_EQ(a.get_unsafe(), b.get_unsafe());
}

TEST_P(RuntimeTest, WriteSkewPrevented)
{
    // The Fig. 1 anomaly: from x == y == 0, one transaction does
    // "if (y == 0) x = 1", the other "if (x == 0) y = 1". Under any
    // serializable TM at most one write may happen per round.
    auto rt = make_runtime(GetParam());
    tm::TmVar<int64_t> x(0), y(0);
    std::atomic<int> skew{0};
    for (int round = 0; round < 50; ++round) {
        x.set_unsafe(0);
        y.set_unsafe(0);
        run_threads(*rt, 2, [&](unsigned tid) {
            rt->execute([&](tm::Tx& tx) {
                if (tid == 0) {
                    if (y.get(tx) == 0) x.set(tx, 1);
                } else {
                    if (x.get(tx) == 0) y.set(tx, 1);
                }
            });
        });
        if (x.get_unsafe() == 1 && y.get_unsafe() == 1) ++skew;
    }
    EXPECT_EQ(skew.load(), 0) << "write skew observed";
}

TEST_P(RuntimeTest, StatsAccumulate)
{
    auto rt = make_runtime(GetParam());
    tm::TmVar<int64_t> x(0);
    run_threads(*rt, 2, [&](unsigned) {
        for (int i = 0; i < 50; ++i) {
            rt->execute([&](tm::Tx& tx) { x.set(tx, x.get(tx) + 1); });
        }
    });
    EXPECT_EQ(rt->stats().get(tm::stat::kCommits), 100u);
}

INSTANTIATE_TEST_SUITE_P(AllRuntimes, RuntimeTest,
                         ::testing::Values("rococo", "tinystm", "htm",
                                           "lock"));

TEST(RococoTm, ReadOnlyFastPathCounted)
{
    tm::RococoTm rt;
    tm::TmVar<int64_t> x(3);
    run_threads(rt, 1, [&](unsigned) {
        rt.execute([&](tm::Tx& tx) { EXPECT_EQ(x.get(tx), 3); });
    });
    EXPECT_EQ(rt.stats().get(tm::stat::kReadOnlyCommits), 1u);
    EXPECT_EQ(rt.fpga_stats().get("commit"), 0u);
}

TEST(RococoTm, WritersGoThroughFpga)
{
    tm::RococoTm rt;
    tm::TmVar<int64_t> x(0);
    run_threads(rt, 2, [&](unsigned) {
        for (int i = 0; i < 25; ++i) {
            rt.execute([&](tm::Tx& tx) { x.set(tx, x.get(tx) + 1); });
        }
    });
    EXPECT_EQ(x.get_unsafe(), 50);
    EXPECT_EQ(rt.fpga_stats().get("commit"), 50u);
}

TEST(RococoTm, ContentionProducesAbortsButStaysCorrect)
{
    tm::RococoTm rt;
    constexpr size_t kHot = 2; // tiny array: heavy contention
    tm::TmArray<int64_t> cells(kHot);
    constexpr unsigned kThreads = 4;
    constexpr int kPerThread = 100;
    run_threads(rt, kThreads, [&](unsigned tid) {
        Xoshiro256 rng(tid);
        for (int i = 0; i < kPerThread; ++i) {
            rt.execute([&](tm::Tx& tx) {
                const size_t idx = rng.below(kHot);
                cells.set(tx, idx, cells.get(tx, idx) + 1);
            });
        }
    });
    int64_t total = 0;
    for (size_t i = 0; i < kHot; ++i) total += cells.get_unsafe(i);
    EXPECT_EQ(total, int64_t(kThreads) * kPerThread);
}

/// Threads of this process, or 0 where /proc is unavailable.
size_t
thread_count()
{
    std::error_code ec;
    std::filesystem::directory_iterator it("/proc/self/task", ec);
    if (ec) return 0;
    size_t n = 0;
    for (; it != std::filesystem::directory_iterator(); ++it) ++n;
    return n;
}

TEST(RococoTm, DefaultBackendStartsNoThread)
{
    // The default in-process backend runs the engine on the committing
    // thread: constructing the runtime must not start a validator. (LE,
    // not EQ: a thread joined by an earlier test may still be leaving
    // the task list.)
    const size_t before = thread_count();
    if (before == 0) GTEST_SKIP() << "no /proc/self/task";
    tm::RococoTm rt;
    EXPECT_LE(thread_count(), before);
    tm::TmVar<int64_t> x(0);
    run_threads(rt, 1, [&](unsigned) {
        rt.execute([&](tm::Tx& tx) { x.set(tx, 1); });
    });
    EXPECT_EQ(x.get_unsafe(), 1);
    EXPECT_EQ(rt.fpga_stats().get("shard.validations"), 1u);
}

TEST(HtmTsxSim, FallbackEngagesAfterRepeatedAborts)
{
    // Deterministic: the body aborts its speculative attempts via
    // retry(); with retries=0 the very next attempt must take the
    // global-lock fallback and commit.
    baselines::HtmConfig config;
    config.retries = 0;
    baselines::HtmTsxSim rt(config);
    tm::TmVar<int64_t> x(0);
    run_threads(rt, 1, [&](unsigned) {
        int attempts = 0;
        rt.execute([&](tm::Tx& tx) {
            if (attempts++ < 1) tx.retry(); // kill the speculative try
            x.set(tx, 7);
        });
    });
    EXPECT_EQ(x.get_unsafe(), 7);
    EXPECT_EQ(rt.stats().get(tm::stat::kFallbackCommits), 1u);
    EXPECT_EQ(rt.stats().get(tm::stat::kAborts), 1u);
}

TEST(HtmTsxSim, CapacityAborts)
{
    baselines::HtmConfig config;
    config.read_capacity = 64;
    baselines::HtmTsxSim rt(config);
    tm::TmArray<int64_t> big(256);
    run_threads(rt, 1, [&](unsigned) {
        rt.execute([&](tm::Tx& tx) {
            int64_t sum = 0;
            for (size_t i = 0; i < big.size(); ++i) sum += big.get(tx, i);
            big.set(tx, 0, sum);
        });
    });
    // The transaction eventually commits via fallback, after capacity
    // aborts.
    EXPECT_GT(rt.stats().get(tm::stat::kCapacityAborts), 0u);
    EXPECT_GT(rt.stats().get(tm::stat::kFallbackCommits), 0u);
}

TEST(SequentialTm, DirectExecution)
{
    baselines::SequentialTm rt;
    tm::TmVar<int64_t> x(0);
    rt.thread_init(0);
    rt.execute([&](tm::Tx& tx) { x.set(tx, 9); });
    rt.thread_fini();
    EXPECT_EQ(x.get_unsafe(), 9);
    EXPECT_EQ(rt.stats().get(tm::stat::kCommits), 1u);
}

} // namespace
} // namespace rococo

namespace rococo {
namespace {

TEST(RococoTmIrrevocable, EngagesAfterConsecutiveAborts)
{
    tm::RococoTmConfig config;
    config.irrevocable_after = 1;
    tm::RococoTm rt(config);
    tm::TmVar<int64_t> x(0);
    run_threads(rt, 1, [&](unsigned) {
        int attempts = 0;
        rt.execute([&](tm::Tx& tx) {
            // First attempt aborts (condition wait); the retry runs
            // irrevocably and must commit.
            if (attempts++ == 0) tx.retry();
            x.set(tx, 11);
        });
    });
    EXPECT_EQ(x.get_unsafe(), 11);
    EXPECT_EQ(rt.stats().get("irrevocable_commits"), 1u);
    EXPECT_EQ(rt.stats().get(tm::stat::kCommits), 1u);
}

TEST(RococoTmIrrevocable, UserRetryInIrrevocableModeFallsBack)
{
    tm::RococoTmConfig config;
    config.irrevocable_after = 1;
    tm::RococoTm rt(config);
    tm::TmVar<int64_t> x(0);
    run_threads(rt, 1, [&](unsigned) {
        int attempts = 0;
        rt.execute([&](tm::Tx& tx) {
            // Attempts 0 (optimistic) and 1 (irrevocable) both wait;
            // attempt 2 (back in optimistic mode) succeeds.
            if (attempts++ < 2) tx.retry();
            x.set(tx, 22);
        });
    });
    EXPECT_EQ(x.get_unsafe(), 22);
    EXPECT_EQ(rt.stats().get("irrevocable_commits"), 0u);
    EXPECT_EQ(rt.stats().get(tm::stat::kAborts), 2u);
}

TEST(RococoTmIrrevocable, DisabledWhenZero)
{
    tm::RococoTmConfig config;
    config.irrevocable_after = 0;
    tm::RococoTm rt(config);
    tm::TmVar<int64_t> x(0);
    run_threads(rt, 1, [&](unsigned) {
        int attempts = 0;
        rt.execute([&](tm::Tx& tx) {
            if (attempts++ < 3) tx.retry();
            x.set(tx, 33);
        });
    });
    EXPECT_EQ(x.get_unsafe(), 33);
    EXPECT_EQ(rt.stats().get("irrevocable_commits"), 0u);
}

TEST(RococoTmIrrevocable, ConcurrentThreadsStayCorrect)
{
    // Aggressive threshold under contention: invariants must hold and
    // the system must not deadlock.
    tm::RococoTmConfig config;
    config.irrevocable_after = 2;
    tm::RococoTm rt(config);
    tm::TmVar<int64_t> counter(0);
    constexpr unsigned kThreads = 4;
    constexpr int kPerThread = 150;
    run_threads(rt, kThreads, [&](unsigned) {
        for (int i = 0; i < kPerThread; ++i) {
            rt.execute(
                [&](tm::Tx& tx) { counter.set(tx, counter.get(tx) + 1); });
        }
    });
    EXPECT_EQ(counter.get_unsafe(), int64_t(kThreads) * kPerThread);
}

TEST(RococoTmIrrevocable, ExcludesOptimisticAttempts)
{
    // With irrevocable_after = 1, every attempt after the first in one
    // execute() call runs irrevocably. Thread 0 retries its first
    // attempt on every call, so it goes irrevocable each time; threads
    // 1-3 contend on one counter, abort, and go irrevocable too. An
    // irrevocable body raises `irrevocable` for its whole run (and
    // lingers so others get the chance to overlap); an optimistic body
    // must never see it raised, and two irrevocable bodies must never
    // overlap.
    tm::RococoTmConfig config;
    config.irrevocable_after = 1;
    tm::RococoTm rt(config);
    tm::TmVar<int64_t> counter(0);
    std::atomic<int> irrevocable{0};
    std::atomic<int> seen_by_optimistic{0};
    std::atomic<int> overlapping_irrevocable{0};
    std::atomic<int> irrevocable_bodies{0};
    constexpr unsigned kThreads = 4;
    constexpr int kPerThread = 200;
    run_threads(rt, kThreads, [&](unsigned tid) {
        for (int i = 0; i < kPerThread; ++i) {
            int attempt = 0;
            rt.execute([&](tm::Tx& tx) {
                if (attempt++ == 0) {
                    if (irrevocable.load() != 0) ++seen_by_optimistic;
                    if (tid == 0) tx.retry();
                    counter.set(tx, counter.get(tx) + 1);
                    if (irrevocable.load() != 0) ++seen_by_optimistic;
                    return;
                }
                if (irrevocable.fetch_add(1) != 0) ++overlapping_irrevocable;
                ++irrevocable_bodies;
                const auto until = std::chrono::steady_clock::now() +
                                   std::chrono::microseconds(20);
                while (std::chrono::steady_clock::now() < until) {
                }
                counter.set(tx, counter.get(tx) + 1);
                irrevocable.fetch_sub(1);
            });
        }
    });
    EXPECT_EQ(seen_by_optimistic.load(), 0);
    EXPECT_EQ(overlapping_irrevocable.load(), 0);
    EXPECT_EQ(counter.get_unsafe(), int64_t(kThreads) * kPerThread);
    EXPECT_GE(irrevocable_bodies.load(), kPerThread);
    EXPECT_EQ(rt.stats().get("irrevocable_commits"),
              uint64_t(irrevocable_bodies.load()));
}

} // namespace
} // namespace rococo

namespace rococo {
namespace {

TEST(FailureInjection, TinySignaturesStayCorrect)
{
    // Inject massive bloom false positives (64-bit signatures): the
    // runtime may abort far more, but atomicity must be untouched —
    // false positives are conservative by construction.
    tm::RococoTmConfig config;
    config.engine.signature_bits = 64;
    config.engine.signature_hashes = 2;
    tm::RococoTm rt(config);
    tm::TmArray<int64_t> cells(32);
    run_threads(rt, 4, [&](unsigned tid) {
        Xoshiro256 rng(tid);
        for (int i = 0; i < 100; ++i) {
            const size_t idx = rng.below(32);
            rt.execute([&](tm::Tx& tx) {
                cells.set(tx, idx, cells.get(tx, idx) + 1);
            });
        }
    });
    int64_t total = 0;
    for (size_t i = 0; i < 32; ++i) total += cells.get_unsafe(i);
    EXPECT_EQ(total, 400);
}

TEST(FailureInjection, TinyWindowProgressesViaOverflowAborts)
{
    // A window smaller than the thread count forces window-overflow
    // aborts; irrevocability guarantees progress and correctness.
    tm::RococoTmConfig config;
    config.engine.window = 2;
    config.irrevocable_after = 16;
    tm::RococoTm rt(config);
    tm::TmVar<int64_t> counter(0);
    run_threads(rt, 4, [&](unsigned) {
        for (int i = 0; i < 50; ++i) {
            rt.execute(
                [&](tm::Tx& tx) { counter.set(tx, counter.get(tx) + 1); });
        }
    });
    EXPECT_EQ(counter.get_unsafe(), 200);
}

TEST(FailureInjection, TinyCommitLogRecovers)
{
    tm::RococoTmConfig config;
    config.commit_log_capacity = 2; // minimum ring
    tm::RococoTm rt(config);
    tm::TmArray<int64_t> cells(16);
    run_threads(rt, 4, [&](unsigned tid) {
        Xoshiro256 rng(100 + tid);
        for (int i = 0; i < 80; ++i) {
            const size_t idx = rng.below(16);
            rt.execute([&](tm::Tx& tx) {
                cells.set(tx, idx, cells.get(tx, idx) + 1);
            });
        }
    });
    int64_t total = 0;
    for (size_t i = 0; i < 16; ++i) total += cells.get_unsafe(i);
    EXPECT_EQ(total, 320);
}

} // namespace
} // namespace rococo
