/// Transactional KV store tests (src/kv, docs/KV.md).
///
/// The centrepiece is the serializability oracle: concurrent threads
/// run multi-key read-modify-write and scan transactions with
/// globally unique written values, so every read names the exact
/// write it observed. The recorded history is turned into a
/// dependency graph (wr / ww / rw edges via the per-key version
/// chains that RMW-reads-its-predecessor uniquely determines, plus
/// real-time edges from the op intervals) and handed to the graph
/// layer's oracle; the returned witness order is then replayed
/// against a single-threaded std::map reference. Both engines — OCC
/// over RococoTm and the conservative 2PL baseline — face the same
/// oracle, under uniform and zipf key choice.
///
/// The 2PL sections pin the deadlock story: a canonical global lock
/// order (sorted, deduplicated stripes) and forced cyclic multi-key
/// transactions that complete without hanging or retrying.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/barrier.h"
#include "common/rng.h"
#include "common/small_vector.h"
#include "common/zipf.h"
#include "graph/serializability.h"
#include "kv/kv_2pl.h"
#include "kv/kv_store.h"
#include "obs/clock.h"

namespace rococo::kv {
namespace {

std::unique_ptr<KvInterface>
make_store(const std::string& engine, size_t capacity)
{
    if (engine == "occ") {
        KvStoreConfig config;
        config.capacity = capacity;
        return std::make_unique<KvStore>(config);
    }
    Kv2plConfig config;
    config.capacity = capacity;
    return std::make_unique<KvStore2pl>(config);
}

class KvSemanticsTest : public ::testing::TestWithParam<const char*>
{
};

TEST_P(KvSemanticsTest, PointOperations)
{
    auto store = make_store(GetParam(), 1 << 10);
    store->thread_init(0);

    uint64_t value = 0;
    EXPECT_EQ(store->get("alpha", value), KvStatus::kNotFound);
    EXPECT_EQ(store->put("alpha", 1), KvStatus::kOk);
    EXPECT_EQ(store->put("beta", 2), KvStatus::kOk);
    EXPECT_EQ(store->get("alpha", value), KvStatus::kOk);
    EXPECT_EQ(value, 1u);
    EXPECT_EQ(store->put("alpha", 10), KvStatus::kOk);
    EXPECT_EQ(store->get("alpha", value), KvStatus::kOk);
    EXPECT_EQ(value, 10u);

    EXPECT_EQ(store->erase("alpha"), KvStatus::kOk);
    EXPECT_EQ(store->get("alpha", value), KvStatus::kNotFound);
    EXPECT_EQ(store->erase("alpha"), KvStatus::kNotFound);
    // Tombstone reuse: re-inserting a deleted key works and the other
    // key is untouched.
    EXPECT_EQ(store->put("alpha", 11), KvStatus::kOk);
    EXPECT_EQ(store->get("alpha", value), KvStatus::kOk);
    EXPECT_EQ(value, 11u);
    EXPECT_EQ(store->get("beta", value), KvStatus::kOk);
    EXPECT_EQ(value, 2u);
    store->thread_fini();
}

TEST_P(KvSemanticsTest, ScanAndRmw)
{
    auto store = make_store(GetParam(), 1 << 10);
    store->thread_init(0);
    ASSERT_EQ(store->put("a", 5), KvStatus::kOk);
    ASSERT_EQ(store->put("b", 7), KvStatus::kOk);

    const std::string_view keys[] = {"a", "missing", "b"};
    RmwEntry entries[3];
    ASSERT_EQ(store->scan(keys, entries), KvStatus::kOk);
    EXPECT_TRUE(entries[0].found);
    EXPECT_EQ(entries[0].value, 5u);
    EXPECT_FALSE(entries[1].found);
    EXPECT_TRUE(entries[2].found);
    EXPECT_EQ(entries[2].value, 7u);

    // rmw: transfer 2 from a to b, insert c = a+b.
    const std::string_view rmw_keys[] = {"a", "b", "c"};
    auto body = [](std::span<RmwEntry> e) {
        EXPECT_TRUE(e[0].found);
        EXPECT_TRUE(e[1].found);
        EXPECT_FALSE(e[2].found);
        e[2].value = e[0].value + e[1].value;
        e[2].write = true;
        e[0].value -= 2;
        e[0].write = true;
        e[1].value += 2;
        e[1].write = true;
    };
    ASSERT_EQ(store->rmw(rmw_keys, body), KvStatus::kOk);
    uint64_t value = 0;
    EXPECT_EQ(store->get("a", value), KvStatus::kOk);
    EXPECT_EQ(value, 3u);
    EXPECT_EQ(store->get("b", value), KvStatus::kOk);
    EXPECT_EQ(value, 9u);
    EXPECT_EQ(store->get("c", value), KvStatus::kOk);
    EXPECT_EQ(value, 12u);

    // Metric invariant: every operation is one committed transaction.
    const obs::Registry& metrics = store->metrics();
    uint64_t ops = 0;
    for (const char* op : kOpNames) {
        ops += metrics.get(std::string("kv.ops.") + op);
    }
    EXPECT_EQ(ops, metrics.get("kv.txn.commits"));
    store->thread_fini();
}

TEST_P(KvSemanticsTest, CollisionAccountingAndNoSpace)
{
    // A 64-slot table loaded far past sane occupancy: probes must
    // traverse foreign slots (collisions) and eventually a probe
    // window fills (kNoSpace).
    auto store = make_store(GetParam(), 64);
    store->thread_init(0);
    bool saw_no_space = false;
    for (int i = 0; i < 200 && !saw_no_space; ++i) {
        const KvStatus status =
            store->put("key" + std::to_string(i), uint64_t(i));
        ASSERT_TRUE(status == KvStatus::kOk ||
                    status == KvStatus::kNoSpace);
        saw_no_space = status == KvStatus::kNoSpace;
    }
    EXPECT_TRUE(saw_no_space);
    EXPECT_GT(store->metrics().get("kv.key_collisions"), 0u);
    // Everything successfully inserted is still readable.
    uint64_t readable = 0;
    for (int i = 0; i < 200; ++i) {
        uint64_t value = 0;
        if (store->get("key" + std::to_string(i), value) ==
            KvStatus::kOk) {
            EXPECT_EQ(value, uint64_t(i));
            ++readable;
        }
    }
    EXPECT_GT(readable, 32u);
    store->thread_fini();
}

INSTANTIATE_TEST_SUITE_P(Engines, KvSemanticsTest,
                         ::testing::Values("occ", "2pl"));

// ---------------------------------------------------------------------
// Serializability oracle.

/// One key's slice of one recorded transaction.
struct AccessRec
{
    size_t key;
    uint64_t read_value;
    bool wrote;
    uint64_t written_value;
};

struct OpRec
{
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    SmallVector<AccessRec, kMaxTxnKeys> accesses;
};

struct OracleConfig
{
    unsigned threads = 4;
    unsigned ops_per_thread = 250;
    size_t keys = 64;
    double zipf = 0; ///< 0 = uniform key choice
};

std::string
oracle_key(size_t i)
{
    return "user" + std::to_string(i);
}

/// Initial (pre-populated) value of key @p i; disjoint from every
/// written value below.
uint64_t
initial_value(size_t i)
{
    return uint64_t{1} << 62 | i;
}

/// Run the concurrent history and return per-thread op records.
std::vector<std::vector<OpRec>>
run_history(KvInterface& store, const OracleConfig& config)
{
    store.thread_init(0);
    for (size_t i = 0; i < config.keys; ++i) {
        EXPECT_EQ(store.put(oracle_key(i), initial_value(i)),
                  KvStatus::kOk);
    }
    store.thread_fini();

    std::vector<std::vector<OpRec>> history(config.threads);
    Barrier barrier(config.threads);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < config.threads; ++t) {
        workers.emplace_back([&, t] {
            store.thread_init(t);
            Xoshiro256 rng(7'000 + t);
            const std::unique_ptr<ZipfSampler> zipf =
                config.zipf > 0 ? std::make_unique<ZipfSampler>(
                                      config.keys, config.zipf)
                                : nullptr;
            auto draw_key = [&] {
                return zipf ? zipf->draw(rng)
                            : rng.below(config.keys);
            };
            std::vector<OpRec>& ops = history[t];
            ops.reserve(config.ops_per_thread);
            barrier.arrive_and_wait();
            for (unsigned seq = 0; seq < config.ops_per_thread;
                 ++seq) {
                // 2-4 distinct keys per transaction.
                size_t key_idx[4];
                const size_t n = 2 + rng.below(3);
                size_t picked = 0;
                while (picked < n) {
                    const size_t k = draw_key();
                    bool dup = false;
                    for (size_t j = 0; j < picked && !dup; ++j) {
                        dup = key_idx[j] == k;
                    }
                    if (!dup) key_idx[picked++] = k;
                }
                std::string key_strings[4];
                std::string_view keys[4];
                for (size_t j = 0; j < n; ++j) {
                    key_strings[j] = oracle_key(key_idx[j]);
                    keys[j] = key_strings[j];
                }
                OpRec rec;
                rec.start_ns = obs::now_ns();
                const bool is_rmw = rng.below(2) == 0;
                RmwEntry entries[4];
                if (is_rmw) {
                    // Unique written value per (thread, seq, slot).
                    const uint64_t base =
                        (uint64_t(t + 1) << 40) |
                        (uint64_t(seq) << 8);
                    auto body = [&](std::span<RmwEntry> e) {
                        for (size_t j = 0; j < e.size(); ++j) {
                            e[j].value = base | j;
                            e[j].write = true;
                        }
                    };
                    // The body overwrites e[j].value, so capture the
                    // read values through a wrapper that snapshots
                    // first.
                    uint64_t reads[4];
                    auto wrapper = [&](std::span<RmwEntry> e) {
                        for (size_t j = 0; j < e.size(); ++j) {
                            EXPECT_TRUE(e[j].found);
                            reads[j] = e[j].value;
                        }
                        body(e);
                    };
                    ASSERT_EQ(store.rmw({keys, n}, wrapper),
                              KvStatus::kOk);
                    rec.end_ns = obs::now_ns();
                    for (size_t j = 0; j < n; ++j) {
                        rec.accesses.push_back(
                            {key_idx[j], reads[j], true, base | j});
                    }
                } else {
                    ASSERT_EQ(store.scan({keys, n}, {entries, n}),
                              KvStatus::kOk);
                    rec.end_ns = obs::now_ns();
                    for (size_t j = 0; j < n; ++j) {
                        EXPECT_TRUE(entries[j].found);
                        rec.accesses.push_back(
                            {key_idx[j], entries[j].value, false, 0});
                    }
                }
                ops.push_back(std::move(rec));
            }
            store.thread_fini();
        });
    }
    for (auto& worker : workers) worker.join();
    return history;
}

/// Build the dependency graph (wr/ww/rw + real-time edges) and check
/// the history against the graph oracle plus a std::map replay of the
/// witness order.
void
check_history(KvInterface& store, const OracleConfig& config,
              const std::vector<std::vector<OpRec>>& history)
{
    // Flatten; vertex index = position in `flat`.
    std::vector<const OpRec*> flat;
    for (const auto& thread_ops : history) {
        for (const OpRec& rec : thread_ops) flat.push_back(&rec);
    }
    const size_t n = flat.size();
    constexpr size_t kInitialTxn = ~size_t{0};

    // Written values are globally unique, so value -> (writer, key)
    // and value -> readers resolve without per-key scoping.
    std::unordered_map<uint64_t, size_t> writer_of;
    std::unordered_map<uint64_t, std::vector<size_t>> readers_of;
    for (size_t v = 0; v < n; ++v) {
        for (const AccessRec& a : flat[v]->accesses) {
            readers_of[a.read_value].push_back(v);
            if (a.wrote) {
                ASSERT_TRUE(
                    writer_of.emplace(a.written_value, v).second)
                    << "duplicate written value";
            }
        }
    }
    auto writer = [&](uint64_t value) -> size_t {
        const auto it = writer_of.find(value);
        return it == writer_of.end() ? kInitialTxn : it->second;
    };

    graph::DependencyGraph graph(n);
    for (size_t v = 0; v < n; ++v) {
        for (const AccessRec& a : flat[v]->accesses) {
            const size_t w = writer(a.read_value);
            if (w == kInitialTxn) {
                // Reads of a never-written value must be the key's
                // initial value.
                ASSERT_EQ(a.read_value, initial_value(a.key));
            } else {
                ASSERT_NE(w, v) << "transaction read its own write";
                graph.add_edge(w, v); // wr (and ww when v overwrote)
            }
            if (a.wrote) {
                // rw: everyone else who read the overwritten version
                // must precede the overwriter.
                for (const size_t r : readers_of[a.read_value]) {
                    if (r != v) graph.add_edge(r, v);
                }
            }
        }
    }
    // Real-time edges: strict serializability, not just
    // serializability — an op that finished before another started
    // must precede it in the witness.
    for (size_t a = 0; a < n; ++a) {
        for (size_t b = 0; b < n; ++b) {
            if (a != b && flat[a]->end_ns <= flat[b]->start_ns) {
                graph.add_edge(a, b);
            }
        }
    }

    const graph::SerializabilityResult result =
        graph::check_serializability(graph);
    ASSERT_TRUE(result.serializable)
        << "dependency cycle of " << result.cycle.size() << " ops";
    ASSERT_EQ(result.witness_order.size(), n);

    // Replay the witness serially against a std::map reference; every
    // recorded read must see the reference state.
    std::map<size_t, uint64_t> reference;
    for (size_t i = 0; i < config.keys; ++i) {
        reference[i] = initial_value(i);
    }
    for (const size_t v : result.witness_order) {
        for (const AccessRec& a : flat[v]->accesses) {
            ASSERT_EQ(reference[a.key], a.read_value);
            if (a.wrote) reference[a.key] = a.written_value;
        }
    }
    // And the store's final state must equal the replayed state.
    store.thread_init(0);
    for (size_t i = 0; i < config.keys; ++i) {
        uint64_t value = 0;
        ASSERT_EQ(store.get(oracle_key(i), value), KvStatus::kOk);
        EXPECT_EQ(value, reference[i]) << "key " << i;
    }
    store.thread_fini();

    // Commit accounting covers the whole history.
    const obs::Registry& metrics = store.metrics();
    uint64_t ops_total = 0;
    for (const char* op : kOpNames) {
        ops_total += metrics.get(std::string("kv.ops.") + op);
    }
    EXPECT_EQ(ops_total, metrics.get("kv.txn.commits"));
}

/// The engine is a std::string, not a const char*: gtest prints a
/// pointer parameter with its address, which would make the test names
/// differ from one process to the next.
class KvOracleTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>>
{
};

TEST_P(KvOracleTest, ConcurrentRmwAndScanHistoriesAreSerializable)
{
    const auto& [engine, zipf] = GetParam();
    OracleConfig config;
    config.zipf = zipf;
    auto store = make_store(engine, 1 << 10);
    const auto history = run_history(*store, config);
    check_history(*store, config, history);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, KvOracleTest,
    ::testing::Combine(::testing::Values(std::string("occ"),
                                         std::string("2pl")),
                       ::testing::Values(0.0, 0.99)));

// ---------------------------------------------------------------------
// OCC-specific concurrency: inserts racing for slots.

TEST(KvOcc, ConcurrentInsertsIntoSmallTableAllSurvive)
{
    KvStoreConfig config;
    config.capacity = 1 << 9;
    KvStore store(config);
    constexpr unsigned kThreads = 4;
    constexpr size_t kPerThread = 64;
    Barrier barrier(kThreads);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            store.thread_init(t);
            barrier.arrive_and_wait();
            for (size_t i = 0; i < kPerThread; ++i) {
                const std::string key =
                    "t" + std::to_string(t) + "k" + std::to_string(i);
                ASSERT_EQ(store.put(key, (uint64_t(t) << 32) | i),
                          KvStatus::kOk);
            }
            store.thread_fini();
        });
    }
    for (auto& worker : workers) worker.join();
    store.thread_init(0);
    for (unsigned t = 0; t < kThreads; ++t) {
        for (size_t i = 0; i < kPerThread; ++i) {
            const std::string key =
                "t" + std::to_string(t) + "k" + std::to_string(i);
            uint64_t value = 0;
            ASSERT_EQ(store.get(key, value), KvStatus::kOk) << key;
            EXPECT_EQ(value, (uint64_t(t) << 32) | i);
        }
    }
    store.thread_fini();
}

TEST(KvOcc, RmwInsertsSeveralAbsentKeysAtomically)
{
    KvStore store;
    store.thread_init(0);
    const std::string_view keys[] = {"w", "x", "y", "z"};
    auto body = [](std::span<RmwEntry> e) {
        for (size_t j = 0; j < e.size(); ++j) {
            EXPECT_FALSE(e[j].found);
            e[j].value = 100 + j;
            e[j].write = true;
        }
    };
    ASSERT_EQ(store.rmw(keys, body), KvStatus::kOk);
    for (size_t j = 0; j < 4; ++j) {
        uint64_t value = 0;
        ASSERT_EQ(store.get(keys[j], value), KvStatus::kOk);
        EXPECT_EQ(value, 100 + j);
    }
    store.thread_fini();
}

// ---------------------------------------------------------------------
// 2PL deadlock handling.

TEST(Kv2pl, LockOrderIsGlobalSortedAndDeduplicated)
{
    KvStore2pl store;
    const std::string_view forward[] = {"a", "b", "c", "d"};
    const std::string_view backward[] = {"d", "c", "b", "a"};
    const auto order_fwd = store.lock_order(forward);
    const auto order_bwd = store.lock_order(backward);
    // Same stripes in the same (ascending) order regardless of how
    // the caller listed the keys — the global order that rules out
    // waits-for cycles.
    EXPECT_EQ(order_fwd, order_bwd);
    for (size_t i = 1; i < order_fwd.size(); ++i) {
        EXPECT_LT(order_fwd[i - 1], order_fwd[i]);
    }
    for (const uint32_t stripe : order_fwd) {
        EXPECT_LT(stripe, store.lock_stripes());
    }
}

TEST(Kv2pl, ForcedCyclicRmwTransactionsDoNotDeadlock)
{
    // Threads repeatedly transfer around a small ring of keys, each
    // thread listing its two keys in the opposite rotational order of
    // its neighbour — the classic deadlock shape for naive 2PL.
    Kv2plConfig config;
    config.capacity = 1 << 10;
    KvStore2pl store(config);
    constexpr size_t kRing = 8;
    constexpr unsigned kThreads = 8;
    constexpr unsigned kRounds = 2'000;
    store.thread_init(0);
    for (size_t i = 0; i < kRing; ++i) {
        ASSERT_EQ(store.put("ring" + std::to_string(i), 1'000),
                  KvStatus::kOk);
    }
    store.thread_fini();

    Barrier barrier(kThreads);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            store.thread_init(t);
            barrier.arrive_and_wait();
            for (unsigned round = 0; round < kRounds; ++round) {
                const size_t from = (t + round) % kRing;
                const size_t to = (from + 1) % kRing;
                // Odd threads name their keys in reverse, so lock
                // requests arrive in conflicting key orders.
                std::string first = "ring" + std::to_string(from);
                std::string second = "ring" + std::to_string(to);
                if (t % 2 == 1) std::swap(first, second);
                const std::string_view keys[] = {first, second};
                auto body = [&](std::span<RmwEntry> e) {
                    e[0].value -= 1;
                    e[0].write = true;
                    e[1].value += 1;
                    e[1].write = true;
                };
                ASSERT_EQ(store.rmw(keys, body), KvStatus::kOk);
            }
            store.thread_fini();
        });
    }
    for (auto& worker : workers) worker.join();

    // Conservation: transfers moved value around the ring but the sum
    // is untouched.
    store.thread_init(0);
    uint64_t sum = 0;
    for (size_t i = 0; i < kRing; ++i) {
        uint64_t value = 0;
        ASSERT_EQ(store.get("ring" + std::to_string(i), value),
                  KvStatus::kOk);
        sum += value;
    }
    store.thread_fini();
    EXPECT_EQ(sum, 1'000u * kRing);

    // Conservative 2PL never retries: bounded retries means zero.
    EXPECT_EQ(store.metrics().get("kv.txn.retries"), 0u);
    EXPECT_EQ(store.metrics().get("kv.txn.aborts"), 0u);
}

} // namespace
} // namespace rococo::kv
