/// @file
/// kvbench: the repository benchmark's load generator. One process drives
/// kv::KvStore closed-loop — each client thread issues its next call
/// only when the previous one returned, with no think time — over one
/// of three workloads, checks every result, and prints the metrics as
/// text plus one final JSON line (README.md has the definitions).
///
///   kvbench --workload=ycsb-b|rmw-hot|svc-rmw-hot --seed=N --seconds=S
///           --trace=0|1 [--socket=PATH] [--telemetry-out=PATH]
///           [--smoke] [--perturb-sum=D]
///   kvbench --selftest
///
/// --trace=0 measures the end-to-end metrics with tracing off.
/// --trace=1 runs the same workload twice — untraced for reference,
/// then under an obs::TelemetrySession — and prints the per-layer
/// metrics and the kv -> tm -> backend ledger. --smoke shrinks the key
/// space for the self-test; --perturb-sum adds D to the summed values
/// before the rmw conservation check (self-test of that check).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "kv/kv_store.h"
#include "ledger.h"
#include "obs/clock.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "svc/server.h"

namespace perfbench {
namespace {

using rococo::kv::KvStatus;
using rococo::kv::KvStore;
using rococo::kv::KvStoreConfig;
using rococo::kv::RmwEntry;
using rococo::obs::now_ns;
namespace svc = rococo::svc;

constexpr double kZipfTheta = 0.99;
constexpr size_t kScanKeys = 4;
constexpr size_t kRmwKeys = 4;
constexpr size_t kLoadBatch = 8; ///< keys inserted per load rmw

/// Length of one measurement window. Every end-to-end metric is the
/// median over the windows near which the host stole no CPU time from
/// this guest (select_windows), so other tenants of the host move it
/// little.
constexpr double kWindowS = 0.1;
/// Windows either side of a window whose steal rules it out.
constexpr size_t kStealGuard = 3;
/// Unmeasured closed-loop time between the last set-up and measuring.
constexpr double kWarmupS = 1.0;
/// Traced chunk: clients run this long, then park while the rings are
/// folded and emptied, so the rings never overwrite.
constexpr uint64_t kChunkNs = 100'000'000;
constexpr size_t kRingEvents = size_t{1} << 18;
/// The ledger balances when the parts sum to the span within this share.
constexpr double kLedgerTolerance = 0.02;

struct Workload
{
    const char* name;
    uint64_t keys;
    unsigned capacity_log2;
    unsigned clients;
    unsigned mix[kOpKinds]; ///< per mille: get, scan, put, rmw
    bool svc;
    /// Set-ups per --trace=0 run, setup_s being their median: about
    /// one to two seconds of set-up in all, so the cheap ones repeat more.
    int setups;
    const char* layout;
};

const Workload kWorkloads[] = {
    {"ycsb-b", 131072, 18, 2, {900, 50, 50, 0}, false, 9,
     "2 clients + 1 validator thread (in-process ValidationPipeline)"},
    {"rmw-hot", 8192, 16, 2, {500, 0, 0, 500}, false, 41,
     "2 clients + 1 validator thread (in-process ValidationPipeline)"},
    {"svc-rmw-hot", 8192, 16, 2, {500, 0, 0, 500}, true, 41,
     "2 clients + 1 client reader + 1 server IO thread "
     "(svc::Server, 2 shards, worker_threads=0)"},
};

struct Args
{
    const Workload* workload = nullptr;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    int64_t perturb_sum = 0;
    std::string socket = ".bench_build/kvbench.sock";
    std::string telemetry_out = ".bench_build/kvbench-telemetry.json";
};

[[noreturn]] void
die(const char* what)
{
    std::fprintf(stderr, "kvbench: %s\n", what);
    std::exit(2);
}

/// Keys and the loaded value layout: key id i is "user<i>" and its
/// value carries i in the high 32 bits, so every read can check that it
/// got its own key's value; rmw increments only the low bits.
struct Keys
{
    explicit Keys(uint64_t n) : n(n)
    {
        names.reserve(n);
        char buf[32];
        for (uint64_t i = 0; i < n; ++i) {
            std::snprintf(buf, sizeof(buf), "user%010llu",
                          static_cast<unsigned long long>(i));
            names.emplace_back(buf);
        }
    }
    uint64_t n;
    std::vector<std::string> names;

    static uint64_t loaded(uint64_t id) { return id << 32; }
    static bool owns(uint64_t id, uint64_t value) { return value >> 32 == id; }
};

/// Tallies of one thread (or, merged, of the run).
struct Tally
{
    uint64_t calls = 0;
    uint64_t failed = 0;
    uint64_t rmw_done = 0; ///< rmw calls that committed their increments
    uint64_t by_kind[kOpKinds] = {};
    LogHist latency[kClasses];

    void
    merge(const Tally& o)
    {
        calls += o.calls;
        failed += o.failed;
        rmw_done += o.rmw_done;
        for (int k = 0; k < kOpKinds; ++k) by_kind[k] += o.by_kind[k];
        for (int c = 0; c < kClasses; ++c) latency[c].merge(o.latency[c]);
    }
};

/// A store under test, plus the server it validates against (svc).
struct Instance
{
    std::unique_ptr<svc::Server> server;
    std::unique_ptr<KvStore> store;
    uint64_t loaded_sum = 0;
    Tally load;

    Instance() = default;
    Instance(const Instance&) = delete;
    Instance& operator=(const Instance&) = delete;

    /// Client before server: the store's connection must close first.
    ~Instance()
    {
        store.reset();
        if (server) server->stop();
    }
};

/// One client: generates its calls from its own seeded stream and
/// checks each result.
class Client
{
  public:
    Client(const Workload& w, const Keys& keys, const Zipf& zipf,
           KvStore& store, uint64_t seed, unsigned tid)
        : w_(w), keys_(keys), zipf_(zipf), store_(store),
          rng_(seed * 0x100000001b3ULL + tid + 1)
    {
    }

    OpKind
    next_kind()
    {
        unsigned r = unsigned(rng_.below(1000));
        for (int k = 0; k < kOpKinds; ++k) {
            if (r < w_.mix[k]) return OpKind(k);
            r -= w_.mix[k];
        }
        return kGet;
    }

    /// Issue one call; false if it returned non-kOk or failed a check.
    bool
    call(OpKind kind)
    {
        switch (kind) {
          case kGet: {
            const uint64_t id = pick();
            uint64_t value = 0;
            return store_.get(keys_.names[id], value) == KvStatus::kOk &&
                   Keys::owns(id, value);
          }
          case kScan: {
            uint64_t ids[kScanKeys];
            std::string_view names[kScanKeys];
            pick_distinct(ids, names, kScanKeys);
            RmwEntry out[kScanKeys];
            bool ok = store_.scan(names, out) == KvStatus::kOk;
            for (size_t i = 0; i < kScanKeys; ++i) {
                ok = ok && out[i].found && Keys::owns(ids[i], out[i].value);
            }
            return ok;
          }
          case kPut: {
            const uint64_t id = pick();
            const uint64_t value = Keys::loaded(id) | (rng_.next() >> 32);
            return store_.put(keys_.names[id], value) == KvStatus::kOk;
          }
          case kRmw: {
            uint64_t ids[kRmwKeys];
            std::string_view names[kRmwKeys];
            pick_distinct(ids, names, kRmwKeys);
            bool body_ok = true;
            // Re-run on every retry; the committed attempt's verdict
            // is the one that stays.
            auto body = [&](std::span<RmwEntry> entries) {
                body_ok = true;
                for (size_t i = 0; i < entries.size(); ++i) {
                    body_ok = body_ok && entries[i].found &&
                              Keys::owns(ids[i], entries[i].value);
                }
                for (RmwEntry& e : entries) {
                    e.write = body_ok;
                    e.value += 1;
                }
            };
            const bool ok =
                store_.rmw(names, body) == KvStatus::kOk && body_ok;
            if (ok) ++tally.rmw_done;
            return ok;
          }
          default: return false;
        }
    }

    Tally tally;

  private:
    /// Zipf rank -> key id through a fixed bijection (odd multiplier
    /// modulo the power-of-two key count), so hot keys are scattered
    /// over the table instead of packed into its first slots.
    uint64_t
    pick()
    {
        return (zipf_.draw(rng_) * 0x9e3779b97f4a7c15ULL) & (keys_.n - 1);
    }
    void
    pick_distinct(uint64_t* ids, std::string_view* names, size_t n)
    {
        for (size_t i = 0; i < n;) {
            const uint64_t id = pick();
            if (std::find(ids, ids + i, id) != ids + i) continue;
            ids[i] = id;
            names[i] = keys_.names[id];
            ++i;
        }
    }

    const Workload& w_;
    const Keys& keys_;
    const Zipf& zipf_;
    KvStore& store_;
    Rng rng_;
};

/// Construct (server start, store, connect) and load every key with
/// the workload's client threads, each inserting its own share of the
/// key space kLoadBatch keys per rmw.
std::unique_ptr<Instance>
setup(const Workload& w, const Keys& keys, const Args& args,
      double* setup_s)
{
    const uint64_t t0 = now_ns();
    auto inst = std::make_unique<Instance>();
    KvStoreConfig config;
    config.capacity = size_t{1} << w.capacity_log2;
    if (w.svc) {
        svc::ServerConfig sc;
        sc.socket_path = args.socket;
        sc.shards = 2;
        sc.worker_threads = 0;
        inst->server = std::make_unique<svc::Server>(sc);
        if (!inst->server->start()) die("cannot start the validation server");
        config.tm.validation_service = args.socket;
    }
    inst->store = std::make_unique<KvStore>(config);

    std::vector<Tally> tallies(w.clients);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < w.clients; ++t) {
        threads.emplace_back([&, t] {
            KvStore& store = *inst->store;
            Tally& tally = tallies[t];
            store.thread_init(t);
            const uint64_t lo = keys.n * t / w.clients;
            const uint64_t hi = keys.n * (t + 1) / w.clients;
            for (uint64_t first = lo; first < hi; first += kLoadBatch) {
                const uint64_t n = std::min<uint64_t>(kLoadBatch, hi - first);
                std::string_view names[kLoadBatch];
                for (uint64_t i = 0; i < n; ++i) {
                    names[i] = keys.names[first + i];
                }
                bool fresh = true;
                auto body = [&](std::span<RmwEntry> entries) {
                    fresh = true;
                    for (size_t i = 0; i < entries.size(); ++i) {
                        fresh = fresh && !entries[i].found;
                        entries[i].value = Keys::loaded(first + i);
                        entries[i].write = true;
                    }
                };
                const KvStatus st =
                    store.rmw(std::span(names, size_t(n)), body);
                ++tally.calls;
                if (st != KvStatus::kOk || !fresh) ++tally.failed;
            }
            store.thread_fini();
        });
    }
    for (auto& th : threads) th.join();
    for (const Tally& t : tallies) inst->load.merge(t);
    for (uint64_t id = 0; id < keys.n; ++id) {
        inst->loaded_sum += Keys::loaded(id);
    }
    *setup_s = double(now_ns() - t0) / 1e9;
    return inst;
}

/// One measurement window's figures, pooled over all client threads.
struct Window
{
    uint64_t calls = 0;
    uint64_t samples[kClasses] = {};
    double p50_ns[kClasses] = {};
    double p99_ns[kClasses] = {};
    uint64_t steal_ticks = 0; ///< CPU time the host stole, all vCPUs
};

/// The guest's cumulative stolen CPU time in clock ticks, summed over
/// its CPUs (the steal field of /proc/stat's "cpu" line): time a vCPU
/// was runnable but the hypervisor ran another tenant. 0 where there
/// is no such line, i.e. steal is not observed and never filters.
uint64_t
steal_ticks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    uint64_t field[8] = {};
    if (!(stat >> cpu) || cpu != "cpu") return 0;
    for (uint64_t& f : field) {
        if (!(stat >> f)) return 0;
    }
    return field[7]; // user nice system idle iowait irq softirq steal
}

/// Indices of the samples free of steal (@p steal[i] == 0). If fewer
/// than a quarter qualify, the quarter with the least steal, so a run
/// under steady steal still reports its least disturbed part.
std::vector<size_t>
least_stolen(const std::vector<uint64_t>& steal)
{
    const size_t n = steal.size();
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return steal[a] < steal[b]; });
    size_t keep = 0;
    while (keep < n && steal[order[keep]] == 0) ++keep;
    order.resize(std::min(n, std::max(keep, std::max<size_t>(1, n / 4))));
    std::sort(order.begin(), order.end());
    return order;
}

/// The windows the end-to-end metrics are taken over: least_stolen() of
/// the steal in each window and kStealGuard windows either side (a
/// stolen validator or client stalls the calls that wait on it past
/// its window, and steal comes in episodes).
std::vector<size_t>
select_windows(const std::vector<Window>& windows)
{
    const size_t n = windows.size();
    std::vector<uint64_t> around(n);
    for (size_t i = 0; i < n; ++i) {
        const size_t lo = i >= kStealGuard ? i - kStealGuard : 0;
        const size_t hi = std::min(n, i + kStealGuard + 1);
        for (size_t j = lo; j < hi; ++j) around[i] += windows[j].steal_ticks;
    }
    return least_stolen(around);
}

/// The measured phase, cut into equal windows by call start time.
/// Threads hand over each window's tally as they leave it; a window is
/// closed (merged over threads, reduced to its Window figures and
/// freed) once every thread has moved past it, so memory stays a few
/// tallies however many windows there are.
class WindowCollector
{
  public:
    WindowCollector(unsigned threads, size_t windows)
        : windows(windows), at_(threads, 0)
    {
    }

    /// Thread @p t hands over its tally of window @p i and moves on to
    /// window @p next (the window count once it has finished).
    void
    flush(unsigned t, size_t i, const Tally& tally, size_t next)
    {
        std::lock_guard<std::mutex> lock(mu_);
        open_[i].merge(tally);
        run.merge(tally);
        at_[t] = next;
        const size_t done = *std::min_element(at_.begin(), at_.end());
        while (!open_.empty() && open_.begin()->first < done) {
            close(open_.begin()->first, open_.begin()->second);
            open_.erase(open_.begin());
        }
    }

    std::vector<Window> windows; ///< valid once every thread finished
    Tally run;                   ///< the whole measured phase

  private:
    void
    close(size_t i, const Tally& t)
    {
        Window& w = windows[i];
        w.calls = t.calls;
        for (int c = 0; c < kClasses; ++c) {
            w.samples[c] = t.latency[c].count();
            w.p50_ns[c] = t.latency[c].quantile(0.50);
            w.p99_ns[c] = t.latency[c].quantile(0.99);
        }
    }

    std::mutex mu_;
    std::vector<size_t> at_;      ///< each thread's current window
    std::map<size_t, Tally> open_; ///< windows some thread is still in
};

/// Closed loop: every client runs until @p end_ns; calls that start at
/// or after @p measure_ns are the measured phase, handed to
/// @p collector window by window, and earlier ones are warm-up. Every
/// call, warm-up included, is also counted into @p all. Meanwhile this
/// thread reads the host's steal at every window boundary.
void
run_timed(const Workload& w, const Keys& keys, const Zipf& zipf,
          KvStore& store, uint64_t seed, uint64_t measure_ns,
          uint64_t end_ns, WindowCollector& collector, Tally* all)
{
    std::vector<std::unique_ptr<Client>> clients;
    for (unsigned t = 0; t < w.clients; ++t) {
        clients.push_back(
            std::make_unique<Client>(w, keys, zipf, store, seed, t));
    }
    const size_t windows = collector.windows.size();
    const uint64_t span = end_ns - measure_ns;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < w.clients; ++t) {
        threads.emplace_back([&, t] {
            Client& c = *clients[t];
            store.thread_init(t);
            size_t window = 0;
            Tally cur;
            for (;;) {
                const OpKind kind = c.next_kind();
                const uint64_t start = now_ns();
                if (start >= end_ns) break;
                const bool ok = c.call(kind);
                const uint64_t done = now_ns();
                ++c.tally.calls;
                if (!ok) ++c.tally.failed;
                if (start < measure_ns) continue;
                const size_t i = (start - measure_ns) * windows / span;
                if (i != window) {
                    collector.flush(t, window, cur, i);
                    cur = Tally{};
                    window = i;
                }
                ++cur.calls;
                if (!ok) ++cur.failed;
                ++cur.by_kind[kind];
                cur.latency[class_of(kind)].record(done - start);
            }
            collector.flush(t, window, cur, windows);
            store.thread_fini();
        });
    }
    std::vector<uint64_t> steal(windows + 1);
    for (size_t i = 0; i <= windows; ++i) {
        const uint64_t at = measure_ns + span * i / windows;
        const uint64_t now = now_ns();
        if (at > now) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(at - now));
        }
        steal[i] = steal_ticks();
    }
    for (auto& th : threads) th.join();
    for (auto& c : clients) all->merge(c->tally);
    for (size_t i = 0; i < windows; ++i) {
        collector.windows[i].steal_ticks = steal[i + 1] - steal[i];
    }
}

struct TracedRun
{
    uint64_t active_ns = 0; ///< wall time with the clients unparked
    uint64_t folded = 0;    ///< chunks folded into the ledger
    uint64_t dropped = 0;   ///< chunks discarded because a ring wrapped
};

/// The traced closed loop: clients run in chunks of kChunkNs; between
/// chunks they park, and the rings are folded into @p fold and emptied.
TracedRun
run_traced(const Workload& w, const Keys& keys, const Zipf& zipf,
           KvStore& store, uint64_t seed, double seconds, TraceFold& fold,
           Tally* all)
{
    std::vector<std::unique_ptr<Client>> clients;
    for (unsigned t = 0; t < w.clients; ++t) {
        clients.push_back(
            std::make_unique<Client>(w, keys, zipf, store, seed, t));
    }
    std::mutex mu;
    std::condition_variable cv;
    uint64_t generation = 0; // guarded by mu
    bool quit = false;       // guarded by mu
    unsigned parked = 0;     // guarded by mu
    std::atomic<bool> pause{true};

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < w.clients; ++t) {
        threads.emplace_back([&, t] {
            Client& c = *clients[t];
            store.thread_init(t);
            uint64_t seen = 0;
            for (;;) {
                {
                    std::unique_lock<std::mutex> lock(mu);
                    cv.wait(lock, [&] { return quit || generation != seen; });
                    if (quit) break;
                    seen = generation;
                }
                while (!pause.load(std::memory_order_acquire)) {
                    const OpKind kind = c.next_kind();
                    bool ok;
                    {
                        obs::ScopedSpan span("kv", kOpSpan[kind]);
                        ok = c.call(kind);
                    }
                    ++c.tally.calls;
                    if (!ok) ++c.tally.failed;
                    ++c.tally.by_kind[kind];
                }
                std::lock_guard<std::mutex> lock(mu);
                ++parked;
                cv.notify_all();
            }
            store.thread_fini();
        });
    }

    obs::Tracer& tracer = obs::Tracer::instance();
    TracedRun run;
    uint64_t chunk_ns = kChunkNs;
    while (double(run.active_ns) < seconds * 1e9) {
        tracer.start();
        const uint64_t t0 = now_ns();
        pause.store(false, std::memory_order_release);
        {
            std::lock_guard<std::mutex> lock(mu);
            parked = 0;
            ++generation;
        }
        cv.notify_all();
        std::this_thread::sleep_for(std::chrono::nanoseconds(chunk_ns));
        pause.store(true, std::memory_order_release);
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return parked == w.clients; });
        }
        run.active_ns += now_ns() - t0;
        tracer.stop();
        // A backend thread may still be writing the queue-depth sample
        // it takes after waking its caller; let it land.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        if (tracer.dropped_events() > 0) {
            // A ring wrapped: this chunk's nesting is incomplete.
            ++run.dropped;
            chunk_ns = std::max<uint64_t>(chunk_ns / 2, 1'000'000);
        } else {
            fold.fold(tracer.snapshot());
            ++run.folded;
        }
        tracer.reset();
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        quit = true;
    }
    cv.notify_all();
    for (auto& th : threads) th.join();
    for (auto& c : clients) all->merge(c->tally);
    return run;
}

/// Quiescent verification: every key is present with its own value,
/// sum(kv.ops.*) == kv.txn.commits, and (rmw mixes) the sum of all
/// values obeys rmw_sum_conserved. Returns the failures it found.
uint64_t
verify(const Workload& w, const Keys& keys, Instance& inst,
       uint64_t rmw_done, int64_t perturb_sum, Tally* all)
{
    uint64_t failed = 0;
    KvStore& store = *inst.store;
    store.thread_init(w.clients);
    uint64_t sum = 0;
    uint64_t missing = 0;
    for (uint64_t id = 0; id < keys.n; ++id) {
        uint64_t value = 0;
        ++all->calls;
        if (store.get(keys.names[id], value) != KvStatus::kOk ||
            !Keys::owns(id, value)) {
            ++missing;
        }
        sum += value;
    }
    store.thread_fini();
    all->failed += missing;
    if (missing) {
        std::printf("check  FAIL %llu keys missing or holding a foreign "
                    "value\n", (unsigned long long)missing);
    }

    const rococo::obs::Registry& m = store.metrics();
    uint64_t ops = 0;
    for (const char* op : rococo::kv::kOpNames) {
        ops += m.get(std::string("kv.ops.") + op);
    }
    const uint64_t commits = m.get("kv.txn.commits");
    const bool ops_ok = ops == commits;
    std::printf("check  %s sum(kv.ops.*) %llu == kv.txn.commits %llu\n",
                ops_ok ? "ok  " : "FAIL", (unsigned long long)ops,
                (unsigned long long)commits);
    if (!ops_ok) ++failed;

    if (w.mix[kRmw] > 0) {
        sum += uint64_t(perturb_sum);
        const uint64_t expect = inst.loaded_sum + kRmwKeys * rmw_done;
        const bool ok =
            rmw_sum_conserved(inst.loaded_sum, rmw_done, kRmwKeys, sum);
        std::printf("check  %s sum of values %llu == loaded %llu + %zu x "
                    "%llu completed rmw\n",
                    ok ? "ok  " : "FAIL", (unsigned long long)sum,
                    (unsigned long long)inst.loaded_sum, kRmwKeys,
                    (unsigned long long)rmw_done);
        if (!ok) {
            // The rmw calls the values cannot account for, at least one.
            const uint64_t diff = sum > expect ? sum - expect : expect - sum;
            failed += std::max<uint64_t>(1, (diff + kRmwKeys - 1) / kRmwKeys);
        }
    }
    return failed;
}

/// After Server::stop(): every request was answered exactly once.
uint64_t
verify_server(const svc::Server& server)
{
    const rococo::CounterBag bag = server.stats();
    uint64_t verdicts = 0;
    for (const auto& [name, value] : bag.counters()) {
        if (name.rfind("svc.verdict.", 0) == 0) verdicts += value;
    }
    const uint64_t requests = bag.get("svc.requests");
    const uint64_t rejected = bag.get("svc.rejected");
    const uint64_t timeout = bag.get("svc.timeout");
    const bool ok = requests == verdicts + rejected + timeout;
    std::printf("check  %s svc.requests %llu == verdicts %llu + rejected "
                "%llu + timeout %llu\n",
                ok ? "ok  " : "FAIL", (unsigned long long)requests,
                (unsigned long long)verdicts, (unsigned long long)rejected,
                (unsigned long long)timeout);
    return ok ? 0 : 1;
}

/// Close an instance after its run and check it: verify() on the quiet
/// store, destroy the store, call @p before_server_stop, then stop the
/// server (svc) and check its accounting.
template <typename F>
uint64_t
close_instance(const Workload& w, const Keys& keys, Instance& inst,
               uint64_t rmw_done, const Args& args, Tally* all,
               F before_server_stop)
{
    uint64_t failed =
        verify(w, keys, inst, rmw_done, args.perturb_sum, all);
    inst.store.reset();
    before_server_stop();
    if (inst.server) {
        inst.server->stop();
        failed += verify_server(*inst.server);
    }
    return failed;
}

/// Peak resident set of this process image, from VmHWM. Not
/// getrusage's ru_maxrss: exec carries the launching process's peak
/// (here run.py's Python process) into it.
double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(1 << 12, '\n');
    }
    die("no VmHWM in /proc/self/status");
}

/// Quantile @p q of @p v, interpolating between neighbouring values.
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The final JSON line and the text lines above it.
class Report
{
  public:
    void
    metric(const std::string& name, double value, const char* unit,
           const std::string& note = "")
    {
        std::printf("metric %-28s %14.4f %-8s%s\n", name.c_str(), value,
                    unit, note.c_str());
        metrics_.push_back({name, value, unit});
    }

    /// .p50 and .p99 of a pooled distribution in ns, printed in us.
    template <typename Hist>
    void
    percentiles(const std::string& name, const Hist& h)
    {
        const std::string note = "  n=" + std::to_string(h.count());
        metric(name + ".p50", h.quantile(0.50) / 1e3, "us", note);
        metric(name + ".p99", h.quantile(0.99) / 1e3, "us", note);
    }

    int
    finish(uint64_t attempted, uint64_t failed)
    {
        const bool correct = failed == 0;
        std::printf("fail_frac %.6g (%llu failed of %llu calls attempted)\n",
                    attempted ? double(failed) / double(attempted) : 1.0,
                    (unsigned long long)failed,
                    (unsigned long long)attempted);
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {",
                    correct ? "true" : "false",
                    (unsigned long long)attempted,
                    (unsigned long long)failed);
        for (size_t i = 0; i < metrics_.size(); ++i) {
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics_[i].name.c_str(),
                        metrics_[i].value, metrics_[i].unit);
        }
        std::printf("}}\n");
        std::fflush(stdout);
        return correct ? 0 : 1;
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        const char* unit;
    };
    std::vector<Metric> metrics_;
};

int
run_end_to_end(const Args& args, const Workload& w, const Keys& keys,
               const Zipf& zipf)
{
    Report report;
    const int reps = args.smoke ? 2 : w.setups;
    std::vector<double> setups;
    std::vector<uint64_t> setup_steal;
    std::unique_ptr<Instance> inst;
    Tally all;
    uint64_t failed = 0;
    for (int r = 0; r < reps; ++r) {
        inst.reset();
        double s = 0;
        const uint64_t steal0 = steal_ticks();
        inst = setup(w, keys, args, &s);
        setups.push_back(s);
        setup_steal.push_back(steal_ticks() - steal0);
        all.merge(inst->load);
    }
    std::vector<double> counted;
    for (size_t i : least_stolen(setup_steal)) counted.push_back(setups[i]);
    std::printf("setup  %d set-ups (construct + load %llu keys):",
                reps, (unsigned long long)keys.n);
    for (double s : setups) std::printf(" %.4f", s);
    std::printf(" s; setup_s is the median of the %zu freest of steal\n",
                counted.size());

    const uint64_t measure_ns = now_ns() + uint64_t(kWarmupS * 1e9);
    const uint64_t end_ns = measure_ns + uint64_t(args.seconds * 1e9);
    const size_t windows =
        size_t(std::max(1.0, std::round(args.seconds / kWindowS)));
    WindowCollector wc(w.clients, windows);
    run_timed(w, keys, zipf, *inst->store, args.seed, measure_ns, end_ns, wc,
              &all);
    failed += close_instance(w, keys, *inst, all.rmw_done, args, &all, [] {});
    inst.reset();

    const Tally& m = wc.run;
    const double window_s = args.seconds / double(windows);
    std::printf("calls  measured %llu:", (unsigned long long)m.calls);
    for (int k = 0; k < kOpKinds; ++k) {
        std::printf(" %s=%llu", kOpName[k], (unsigned long long)m.by_kind[k]);
    }
    std::printf(" in %zu windows of %.3f s\n", windows, window_s);
    const std::vector<size_t> picked = select_windows(wc.windows);
    uint64_t stolen = 0, stolen_windows = 0;
    for (const Window& win : wc.windows) {
        stolen += win.steal_ticks;
        stolen_windows += win.steal_ticks > 0;
    }
    std::printf("steal  the host stole %llu ticks in %llu of %zu windows; "
                "each metric below is the median over the %zu windows "
                "freest of steal around them (their quartiles and the "
                "whole-run value follow)\n",
                (unsigned long long)stolen, (unsigned long long)stolen_windows,
                windows, picked.size());
    // Over the picked windows that have samples; a stalled window still
    // counts towards ops_per_s, with its few calls.
    auto over_windows = [&](auto value, auto has_samples, double run_value,
                            uint64_t n) {
        std::vector<double> v;
        for (size_t i : picked) {
            if (has_samples(wc.windows[i])) v.push_back(value(wc.windows[i]));
        }
        if (v.empty()) return std::make_pair(0.0, std::string());
        const std::string note =
            "  n=" + std::to_string(n) + " run=" + std::to_string(run_value) +
            " windows q1=" + std::to_string(quantile(v, 0.25)) +
            " q3=" + std::to_string(quantile(v, 0.75));
        return std::make_pair(median(std::move(v)), note);
    };
    const auto ops = over_windows(
        [&](const Window& win) { return double(win.calls) / window_s; },
        [](const Window&) { return true; }, double(m.calls) / args.seconds,
        m.calls);
    report.metric("ops_per_s", ops.first, "ops/s", ops.second);
    const struct
    {
        const char* name;
        OpClass cls;
        bool p99;
    } latencies[] = {
        {"read_p50_us", kRead, false},
        {"read_p99_us", kRead, true},
        {"write_p50_us", kWrite, false},
        {"write_p99_us", kWrite, true},
    };
    for (const auto& l : latencies) {
        const LogHist& run = m.latency[l.cls];
        const auto v = over_windows(
            [&](const Window& win) {
                return (l.p99 ? win.p99_ns : win.p50_ns)[l.cls] / 1e3;
            },
            [&](const Window& win) { return win.samples[l.cls] > 0; },
            run.quantile(l.p99 ? 0.99 : 0.50) / 1e3, run.count());
        report.metric(l.name, v.first, "us", v.second);
    }
    report.metric("setup_s", median(counted), "s",
                  "  median of " + std::to_string(counted.size()));
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return report.finish(all.calls, all.failed + failed);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/// Counter deltas of one registry between two reads.
struct CounterDelta
{
    rococo::CounterBag before, after;

    double
    operator()(const std::string& name) const
    {
        return double(after.get(name) - before.get(name));
    }
};

/// The backend stage histograms that split tm.validate. fpga.stage.*
/// is what the in-process pipeline records into the global registry
/// while a session is active. svc.client.rpc_ns and the client-side
/// svc.stage.{client_queue,wire} reach the global registry when the
/// runtime is destroyed with the session active, so they also hold the
/// load's requests (keys / kLoadBatch of them). The server-side stages
/// are deltas of Server::export_metrics() over the traced phase.
struct Stages
{
    HistSnap fpga_queue, fpga_engine;
    HistSnap rpc, client_queue, wire;
    HistSnap server_queue, batch_wait, engine, batch_size, route, coord;
};

/// Print the ledger of one op class: the mean self times along the
/// blocking chain against the mean kv.<op> span, the backend's stages
/// scaled by validations per op. True if it balances.
bool
print_ledger(OpClass c, const ClassLedger& l, const Stages& st, bool svc,
             Report& report)
{
    const double n = double(std::max<uint64_t>(l.ops, 1));
    const double v = double(l.validations) / n;
    struct Part
    {
        const char* name;
        double ns;
    };
    std::vector<Part> parts = {
        {"kv.self", l.kv_self / n},
        {"tm.execute", l.execute / n},
        {"tm.ship", l.ship / n},
    };
    const double validate = l.validate / n;
    if (v > 0 && svc) {
        parts.push_back({"svc.client_queue", st.client_queue.mean() * v});
        parts.push_back({"svc.wire", st.wire.mean() * v});
        parts.push_back({"svc.server_queue", st.server_queue.mean() * v});
        parts.push_back({"svc.batch_wait", st.batch_wait.mean() * v});
        parts.push_back({"svc.engine", st.engine.mean() * v});
        parts.push_back(
            {"svc.wake", std::max(validate - st.rpc.mean() * v, 0.0)});
    } else if (v > 0) {
        const double queue = st.fpga_queue.mean() * v;
        const double engine = st.fpga_engine.mean() * v;
        parts.push_back({"fpga.queue", queue});
        parts.push_back({"fpga.engine", engine});
        parts.push_back(
            {"fpga.wake", std::max(validate - queue - engine, 0.0)});
    }
    parts.push_back({"tm.commit_lock", l.commit_lock / n});
    parts.push_back({"tm.writeback", l.writeback / n});
    parts.push_back({"tm.commit_other", l.commit_other / n});
    parts.push_back({"tm.attempt_other", l.attempt_other / n});
    double sum = 0;
    for (const Part& p : parts) sum += p.ns;
    const double span = l.span / n;
    const double gap = span > 0 ? std::abs(sum - span) / span : 0;
    const bool ok = gap <= kLedgerTolerance;
    std::printf("ledger %-5s ops=%llu attempts/op=%.4f validations/op=%.4f "
                "span=%.3f us = ",
                kClassName[c], (unsigned long long)l.ops,
                double(l.attempts) / n, v, span / 1e3);
    for (size_t i = 0; i < parts.size(); ++i) {
        std::printf("%s%s %.3f", i ? " + " : "", parts[i].name,
                    parts[i].ns / 1e3);
    }
    std::printf(" ; sum %.3f us, gap %.2f%% (tolerance %.0f%%) %s\n",
                sum / 1e3, gap * 100, kLedgerTolerance * 100,
                ok ? "ok" : "FAIL");
    report.metric(std::string("ledger.") + kClassName[c] + "_gap_frac", gap,
                  "fraction");
    return ok;
}

int
run_traced_mode(const Args& args, const Workload& w, const Keys& keys,
                const Zipf& zipf)
{
    Report report;
    Tally all;
    uint64_t failed = 0;

    // Half of --seconds each: first the workload untraced for
    // reference, on its own instance (the svc client's stage histograms
    // cover its whole life, so the traced instance must serve nothing
    // but the load before tracing), then traced.
    const double half = args.seconds / 2;
    double untraced_ops = 0;
    {
        double s = 0;
        auto ref = setup(w, keys, args, &s);
        Tally ref_all = ref->load;
        const uint64_t measure_ns = now_ns() + uint64_t(kWarmupS * 1e9);
        const uint64_t end_ns = measure_ns + uint64_t(half * 1e9);
        WindowCollector wc(w.clients, 1);
        run_timed(w, keys, zipf, *ref->store, args.seed, measure_ns, end_ns,
                  wc, &ref_all);
        untraced_ops = double(wc.run.calls) / half;
        failed += close_instance(w, keys, *ref, ref_all.rmw_done, args,
                                 &ref_all, [] {});
        all.merge(ref_all);
    }

    double s = 0;
    auto inst = setup(w, keys, args, &s);
    all.merge(inst->load);
    KvStore& store = *inst->store;
    CounterDelta kv, tm;
    kv.before = store.metrics().to_counter_bag();
    tm.before = store.runtime().registry().to_counter_bag();
    rococo::obs::Registry srv0, srv1;
    if (inst->server) inst->server->export_metrics(srv0);

    obs::Tracer::instance().set_thread_capacity(kRingEvents);
    TraceFold fold;
    obs::TelemetrySession session(args.telemetry_out);
    obs::Tracer::instance().stop(); // run_traced starts it per chunk
    Tally traced;
    const TracedRun run =
        run_traced(w, keys, zipf, store, args.seed, half, fold, &traced);
    all.merge(traced);
    const double active_ns = double(run.active_ns);

    // Worker registries are merged at thread_fini, so after the join.
    kv.after = store.metrics().to_counter_bag();
    tm.after = store.runtime().registry().to_counter_bag();
    if (inst->server) inst->server->export_metrics(srv1);
    obs::Registry& global = obs::Registry::global();
    Stages st;
    failed += close_instance(w, keys, *inst, traced.rmw_done, args, &all, [&] {
        st.fpga_queue = HistSnap::of(global, "fpga.stage.queue");
        st.fpga_engine = HistSnap::of(global, "fpga.stage.engine");
        st.rpc = HistSnap::of(global, "svc.client.rpc_ns");
        st.client_queue = HistSnap::of(global, "svc.stage.client_queue");
        st.wire = HistSnap::of(global, "svc.stage.wire");
        // Before the server stops, which would merge its own registry
        // into the global one under the same svc.stage.* names.
        session.finish();
    });
    auto server_delta = [&](const char* name) {
        return HistSnap::of(srv1, name) - HistSnap::of(srv0, name);
    };
    st.server_queue = server_delta("svc.stage.server_queue");
    st.batch_wait = server_delta("svc.stage.batch_wait");
    st.engine = server_delta("svc.stage.engine");
    st.batch_size = server_delta("svc.batch_size");
    st.route = server_delta("shard.route_ns");
    st.coord = server_delta("shard.coord_ns");
    CounterDelta srv{srv0.to_counter_bag(), srv1.to_counter_bag()};

    std::printf("trace  %llu chunks folded over %.3f s active, %llu "
                "discarded (ring wrapped), %llu orphan spans\n",
                (unsigned long long)run.folded, active_ns / 1e9,
                (unsigned long long)run.dropped,
                (unsigned long long)fold.orphans);

    double ops = 0;
    for (const char* op : rococo::kv::kOpNames) {
        ops += kv(std::string("kv.ops.") + op);
    }
    report.percentiles("kv.self_us", fold.kv_self);
    report.metric("kv.collisions_per_op",
                  ratio(kv("kv.key_collisions"), ops), "1/op",
                  "  ops=" + std::to_string(uint64_t(ops)));
    report.metric("kv.retries_per_op", ratio(kv("kv.txn.retries"), ops),
                  "1/op");

    report.percentiles("tm.execute_us", fold.execute);
    report.percentiles("tm.attempt_other_us", fold.attempt_other);
    report.percentiles("tm.validate_wait_us", fold.validate);
    report.percentiles("tm.commit_lock_wait_us", fold.commit_lock);
    report.percentiles("tm.writeback_us", fold.writeback);
    const double attempts = tm("commits") + tm("aborts");
    report.metric("tm.attempts_per_commit", ratio(attempts, tm("commits")),
                  "ratio");
    report.metric("tm.validation_abort_frac",
                  ratio(tm("validation_aborts"), attempts), "fraction");
    report.metric("tm.eager_abort_frac", ratio(tm("eager_aborts"), attempts),
                  "fraction");

    const double validate = fold.validate.mean();
    report.percentiles("fpga.queue_us", st.fpga_queue);
    report.percentiles("fpga.engine_us", st.fpga_engine);
    const double fpga_wake =
        st.fpga_engine.count()
            ? validate - st.fpga_queue.mean() - st.fpga_engine.mean()
            : 0;
    report.metric("fpga.wake_us.mean", std::max(fpga_wake, 0.0) / 1e3, "us");
    // The engine stage is the same interval the pipeline adds to
    // fpga.busy_ns, recorded over the traced phase only.
    report.metric("fpga.busy_frac", ratio(double(st.fpga_engine.sum), active_ns),
                  "fraction");

    report.percentiles("shard.route_us", st.route);
    report.percentiles("shard.coord_us", st.coord);
    report.metric("shard.cross_frac",
                  ratio(srv("shard.cross"), srv("shard.validations")),
                  "fraction");

    report.percentiles("svc.rpc_us", st.rpc);
    report.percentiles("svc.client_queue_us", st.client_queue);
    report.percentiles("svc.wire_us", st.wire);
    report.percentiles("svc.server_queue_us", st.server_queue);
    report.percentiles("svc.batch_wait_us", st.batch_wait);
    report.percentiles("svc.engine_us", st.engine);
    const double svc_wake = st.rpc.count() ? validate - st.rpc.mean() : 0;
    report.metric("svc.wake_us.mean", std::max(svc_wake, 0.0) / 1e3, "us");
    report.metric("svc.batch_size", st.batch_size.mean(), "count");
    report.metric("svc.rejected_frac",
                  ratio(srv("svc.rejected"), srv("svc.requests")),
                  "fraction");

    bool balanced = fold.orphans == 0;
    for (int c = 0; c < kClasses; ++c) {
        balanced = print_ledger(OpClass(c), fold.cls[c], st, w.svc, report) &&
                   balanced;
    }
    if (!balanced) {
        std::printf("check  FAIL ledger does not balance\n");
        ++failed;
    }
    const double traced_ops = double(traced.calls) / (active_ns / 1e9);
    report.metric("trace.ops_ratio", ratio(traced_ops, untraced_ops), "ratio",
                  "  traced " + std::to_string(traced_ops) + " / untraced " +
                      std::to_string(untraced_ops) + " ops/s");
    return report.finish(all.calls, all.failed + failed);
}

/// Unit checks of the benchmark's own arithmetic.
int
selftest()
{
    int bad = 0;
    auto expect = [&](bool cond, const char* what) {
        std::printf("selftest %s %s\n", cond ? "ok  " : "FAIL", what);
        if (!cond) ++bad;
    };
    const uint64_t loaded = 8192ull << 32;
    expect(rmw_sum_conserved(loaded, 1000, kRmwKeys, loaded + 4000),
           "conservation accepts the exact total");
    expect(!rmw_sum_conserved(loaded, 1000, kRmwKeys, loaded + 4001),
           "conservation rejects a total one too high");
    expect(!rmw_sum_conserved(loaded, 1000, kRmwKeys, loaded + 3999),
           "conservation rejects a total one too low");

    // Pooled, not per-thread: thread A saw 1..1000 ns, thread B
    // 100001..101000 ns. The pooled p50 sits at the seam (~1 us); a
    // median of per-thread p50s would say ~50 us.
    LogHist a, b;
    for (uint64_t i = 1; i <= 1000; ++i) {
        a.record(i);
        b.record(100000 + i);
    }
    a.merge(b);
    const double p50 = a.quantile(0.5);
    expect(a.count() == 2000 && p50 > 990 && p50 < 1010,
           "pooled p50 of two merged thread histograms");
    const double p99 = a.quantile(0.99);
    expect(p99 > 100980 * 0.99 && p99 < 100980 * 1.01,
           "pooled p99 within one sub-bucket");

    expect(least_stolen({0, 2, 0, 0, 1, 0, 0, 0}) ==
               std::vector<size_t>{0, 2, 3, 5, 6, 7},
           "steal selection keeps the samples free of steal");
    expect(least_stolen({5, 1, 4, 2, 3, 6, 7, 8}) ==
               std::vector<size_t>{1, 3},
           "steal selection falls back to the least stolen quarter");
    std::vector<Window> windows(30);
    windows[10].steal_ticks = 1;
    const std::vector<size_t> picked = select_windows(windows);
    expect(picked.size() == 30 - (2 * kStealGuard + 1) &&
               std::none_of(picked.begin(), picked.end(),
                            [](size_t i) {
                                return i + kStealGuard >= 10 &&
                                       i <= 10 + kStealGuard;
                            }),
           "steal rules out its window and kStealGuard either side");
    return bad ? 1 : 0;
}

Args
parse(int argc, char** argv, bool* selftest_mode)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::string value;
        const size_t eq = a.find('=');
        if (eq != std::string::npos) {
            value = a.substr(eq + 1);
            a = a.substr(0, eq);
        } else if (a != "--selftest" && a != "--smoke") {
            if (i + 1 >= argc) die(("missing value for " + a).c_str());
            value = argv[++i];
        }
        if (a == "--selftest") {
            *selftest_mode = true;
        } else if (a == "--smoke") {
            args.smoke = true;
        } else if (a == "--workload") {
            for (const Workload& w : kWorkloads) {
                if (value == w.name) args.workload = &w;
            }
            if (!args.workload) die(("unknown workload " + value).c_str());
        } else if (a == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            args.seconds = std::atof(value.c_str());
        } else if (a == "--trace") {
            args.trace = value == "1";
        } else if (a == "--socket") {
            args.socket = value;
        } else if (a == "--telemetry-out") {
            args.telemetry_out = value;
        } else if (a == "--perturb-sum") {
            args.perturb_sum = std::strtoll(value.c_str(), nullptr, 10);
        } else {
            die(("unknown argument " + a).c_str());
        }
    }
    return args;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    bool selftest_mode = false;
    const Args args = parse(argc, argv, &selftest_mode);
    if (selftest_mode) return selftest();
    if (!args.workload) die("--workload is required");
    if (!(args.seconds > 0)) die("--seconds must be positive");
    const Workload& w = *args.workload;
    const uint64_t n = args.smoke ? w.keys / 16 : w.keys;
    std::printf("kvbench workload=%s seed=%llu seconds=%g trace=%d keys=%llu "
                "capacity=%llu zipf=%.2f mix(get/scan/put/rmw per mille)="
                "%u/%u/%u/%u\n",
                w.name, (unsigned long long)args.seed, args.seconds,
                int(args.trace), (unsigned long long)n,
                (unsigned long long)(args.smoke
                                         ? (uint64_t{1} << w.capacity_log2) / 16
                                         : uint64_t{1} << w.capacity_log2),
                kZipfTheta, w.mix[0], w.mix[1], w.mix[2], w.mix[3]);
    std::printf("layout %s = 4 threads, closed loop, no think time\n",
                w.layout);
    Workload sized = w;
    sized.keys = n;
    if (args.smoke) sized.capacity_log2 -= 4;
    const Keys keys(n);
    const Zipf zipf(n, kZipfTheta);
    return args.trace ? run_traced_mode(args, sized, keys, zipf)
                      : run_end_to_end(args, sized, keys, zipf);
}
