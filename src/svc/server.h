/// @file
/// The networked validation service: a server-owned validation tier
/// (one cid space) shared by every connected client process — the
/// deployment shape of the paper's Fig. 6 (b) with the CCI link
/// replaced by a local socket. With ServerConfig::shards == 1 that
/// tier is a single ValidationEngine (one sliding window); with more,
/// a shard::ShardRouter spreads the address space across several
/// engines while keeping the wire contract and the global cid space
/// unchanged (src/shard/router.h). Where the
/// hardware amortizes link latency by packing requests into cacheline
/// writes (§5.3), the server amortizes syscall cost by *adaptive
/// batching*: each pass over the engine drains whatever requests
/// accumulated while the previous pass ran (up to max_batch), and all
/// responses of a pass leave in one send() per connection. No batching
/// timer exists — a lone request is processed immediately, so batching
/// never adds idle latency.
///
/// Service contract:
///   * bounded queue — at most max_pending requests wait for the
///     engine; beyond that the server answers Verdict::kRejected /
///     AbortReason::kBackpressure immediately instead of queueing
///     (explicit backpressure, never unbounded growth);
///   * deadlines — a request whose relative wire deadline elapses while
///     it waits is answered Verdict::kTimeout without an engine pass;
///   * accounting — every well-formed request is answered exactly once,
///     so svc.requests == sum(svc.verdict.*) + svc.timeout +
///     svc.rejected at all times (scripts/check_trace_json.py checks
///     this invariant on exported telemetry);
///   * a malformed frame closes the connection; its already-queued
///     requests are still answered (responses to a closed connection
///     are dropped after accounting);
///   * bounded output — at most max_out_bytes of unsent responses are
///     buffered per connection; a peer that floods requests without
///     reading responses is disconnected (svc.overflow) instead of
///     growing the buffer without bound;
///   * bounded input — each service pass reads a fixed byte budget per
///     connection, so a peer that writes faster than the engine drains
///     cannot capture the service thread in its recv loop or grow the
///     frame buffer without bound; the remainder waits in the kernel
///     and other connections (including kStats pollers) stay live.
///
/// Every connection carries a monotonically increasing generation id,
/// and queued requests are answered against (fd, generation): when the
/// kernel recycles a closed connection's fd number for a new accept(),
/// the old connection's still-queued verdicts are dropped (after
/// accounting) rather than delivered to the new client.
///
/// Introspection: a kStats frame is answered inline from read_client()
/// with a kStatsReply carrying a JSON snapshot of the service registry
/// — no engine pass, never queued, never counted in svc.requests (it
/// bumps svc.stats instead), so live inspection cannot perturb the
/// accounting invariant or evict window slots. kTopK (the conflict
/// hot-key table, svc.topk) and kDump (manual flight-recorder incident,
/// svc.dump) follow the same inline contract. Per-stage latency is
/// attributed into svc.stage.{server_queue,batch_wait,engine,link}
/// histograms and shipped back in every response (wire.h
/// StageTimestamps); when a request carries a trace id and
/// a tracer is active, the engine pass emits a server-side span plus a
/// Perfetto flow-end event binding it to the client's span.
///
/// Threading: start() spawns one IO thread running a poll() loop that
/// does accept/read/decode, the inline introspection ops, response
/// writes, all svc.* accounting, and the monitor tick. With
/// ServerConfig::worker_threads == 0 (the default) that thread also
/// runs the engine batch inline — the original single-threaded server.
/// With worker_threads == N > 0 the engine passes move to a
/// svc::WorkerPool of N threads with shard affinity, fed by the IO
/// thread and answered back over an MPSC completion queue + self-pipe,
/// so S shards validate genuinely concurrently while every socket
/// write, (fd, generation) check, and accounting counter stays
/// single-writer on the IO thread (see worker_pool.h for the full
/// division of labor). The public API (start/stop/stats/
/// export_metrics) is thread-safe either way.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/registry.h"
#include "shard/router.h"
#include "svc/wire.h"
#include "svc/worker_pool.h"

namespace rococo::svc {

struct ServerConfig
{
    /// Filesystem path of the Unix-domain listening socket (unlinked
    /// and re-bound on start).
    std::string socket_path = "/tmp/rococo-validation.sock";
    /// Engine geometry; clients must be configured identically so their
    /// locally derived SignatureConfig agrees with the server's.
    fpga::EngineConfig engine;
    /// Validation shards (>= 1). 1 keeps the single-engine service;
    /// > 1 hash-partitions the address space across that many engines
    /// behind a shard::ShardRouter (each with its own window and the
    /// cross-shard two-phase coordinator), multiplying window capacity.
    /// Clients are unaffected: the wire contract and the global cid
    /// space are identical either way.
    uint32_t shards = 1;
    /// Engine worker threads. 0 (the default) keeps the original
    /// single-threaded server: engine passes run inline on the IO
    /// thread via the adaptive batch loop. N > 0 spawns a
    /// svc::WorkerPool of N engine workers with shard affinity
    /// (worker_pool.h): the IO thread decodes and hands each request
    /// to its home shard's worker, so with shards >= N the S engines
    /// validate genuinely concurrently. All accounting, socket writes
    /// and introspection stay on the IO thread in both modes; the
    /// service contract above (bounded queue, deadlines, exact
    /// accounting) is identical. Values above shards still work —
    /// excess workers just share shards.
    uint32_t worker_threads = 0;
    /// Max requests per engine pass (>= 1). 1 disables batching.
    /// Ignored when worker_threads > 0 (workers pull one job at a
    /// time; batching exists to amortize the IO thread's syscalls,
    /// which the completion drain already does).
    size_t max_batch = 16;
    /// Bound on requests waiting for the engine; overflow is answered
    /// kRejected (backpressure) instead of queued.
    size_t max_pending = 1024;
    /// Bound on unsent response bytes buffered per connection. A peer
    /// that submits requests but stops reading responses is closed when
    /// its buffer would exceed this (clamped to at least one response
    /// frame; 0 selects the default).
    size_t max_out_bytes = 1 << 20;
    /// Flight recorder (obs/flight_recorder.h). recorder.enabled = true
    /// turns it on: kDump writes a manual incident, and with the monitor
    /// on a critical SLO dumps "slo:<rule>". Every dump runs on the
    /// service thread, which is also the sole server-side span writer,
    /// so recorder.include_trace is safe here.
    obs::FlightRecorderConfig recorder;
    /// Continuous monitoring (obs/health.h): a MetricSampler over the
    /// service series (request rate, abort ratio, engine p99, queue
    /// depth, window occupancy, connections, shard.imbalance) plus the
    /// SLO burn-rate rules, ticked on the service thread and served by
    /// the kSeries wire op. On by default — turning the *service* on is
    /// the opt-in. A queue_threshold of 0 defaults to 90% of
    /// max_pending; SLO breaches dump incidents only when the flight
    /// recorder is armed too.
    obs::MonitorConfig monitor;
};

/// Single-accelerator validation server.
class Server
{
  public:
    explicit Server(const ServerConfig& config = {});
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind, listen and spawn the service thread. False (with the
    /// socket cleaned up) if the path cannot be bound.
    bool start();

    /// Stop the service thread, close every connection and answer all
    /// still-queued requests as kRejected (the answers are dropped with
    /// the connections, but the accounting invariant holds). Idempotent.
    void stop();

    bool running() const { return running_; }
    const std::string& socket_path() const { return config_.socket_path; }

    /// Counters-only snapshot of the service metrics (svc.* keys).
    CounterBag stats() const;

    /// Merge the full service registry (counters, svc.queue_depth
    /// gauge, svc.batch_size / svc.rpc_ns histograms) into @p registry.
    void export_metrics(obs::Registry& registry) const;

  private:
    struct Connection
    {
        uint64_t generation = 0; ///< unique per accept(); outlives fd reuse
        FrameReader reader;
        std::vector<uint8_t> out; ///< encoded responses not yet sent
        size_t out_off = 0;       ///< bytes of out already sent
    };

    /// A well-formed request waiting for the engine.
    struct Pending
    {
        int fd = -1; ///< originating connection (may close before reply)
        uint64_t generation = 0; ///< guards against fd reuse after close
        uint64_t request_id = 0;
        uint64_t arrival_ns = 0;
        uint64_t deadline_ns = 0; ///< relative to arrival; 0 = none
        uint64_t trace_id = 0;       ///< flow-event binding id (0 = none)
        uint64_t parent_span_id = 0; ///< client span this request came from
        fpga::OffloadRequest offload;
    };

    void loop();
    void accept_clients();
    void read_client(int fd);
    void close_client(int fd);
    /// Answer a kStats frame inline with a registry-snapshot JSON.
    /// False if the connection had to be closed (outbound cap).
    bool handle_stats(int fd);
    /// Answer a kTopK frame inline with the router's conflict top-K
    /// table. Same contract as handle_stats().
    bool handle_topk(int fd);
    /// Answer a kDump frame inline: trigger a manual flight-recorder
    /// incident dump and reply with its path (or an error when the
    /// recorder is disabled). Same contract as handle_stats().
    bool handle_dump(int fd);
    /// Answer a kSeries frame inline with the monitor's rings + health
    /// verdicts (or {"enabled": false} without a monitor). Same
    /// contract as handle_stats().
    bool handle_series(int fd);
    /// Answer a kProm frame inline with the Prometheus exposition of a
    /// fresh registry snapshot. Same contract as handle_stats().
    bool handle_prom(int fd);
    /// Queue @p result on the connection currently at @p fd iff its
    /// generation matches. False if the answer was dropped (connection
    /// gone or fd recycled) or the connection was closed for exceeding
    /// the outbound cap — either way @p fd must not be touched again.
    /// @p stages rides along in the response.
    bool respond(int fd, uint64_t generation, uint64_t request_id,
                 const core::ValidationResult& result,
                 const StageTimestamps& stages);
    void process_batch();
    /// Worker mode: pull every finished job off the completion queue,
    /// do its accounting (verdict counters, stage histograms, trace
    /// span) on this — the IO — thread, respond, and recycle the job.
    void drain_workers();
    /// Accounting + response for one worker-finished job (IO thread).
    void finish_job(WorkerJob* job);
    /// Refresh the svc.worker.<i>.queue_depth gauges from the pool.
    void refresh_worker_gauges();
    void flush(int fd);

    ServerConfig config_;
    shard::ShardRouter router_;
    /// Present iff config_.recorder.enabled; dumped from kDump handling
    /// and the monitor's SLO hook (both on the service thread).
    std::unique_ptr<obs::FlightRecorder> recorder_;
    /// Present iff config_.monitor.enabled; ticked at the end of every
    /// service-loop pass. Its gauge/callback series read
    /// service-thread state (pending_, connections_, the router), which
    /// is safe because every tick happens on the service thread.
    std::unique_ptr<obs::HealthMonitor> monitor_;

    /// Present iff config_.worker_threads > 0; fed from read_client(),
    /// drained (accounting + responses) on the IO thread.
    std::unique_ptr<WorkerPool> workers_;
    /// IO-thread scratch for drain_workers(); keeps its capacity.
    std::vector<WorkerJob*> finished_;
    /// Per-worker validation counters (svc.worker.<i>.validations),
    /// each written by exactly one worker thread.
    std::vector<obs::Counter*> worker_validations_;
    /// Per-worker queue-depth gauges, set on the IO thread only.
    std::vector<obs::Gauge*> worker_queue_gauges_;

    int listen_fd_ = -1;
    int wake_fds_[2] = {-1, -1}; ///< self-pipe: stop() wakes poll()
    std::map<int, Connection> connections_;
    std::deque<Pending> pending_; ///< inline mode only (worker_threads == 0)
    uint64_t next_generation_ = 0;

    std::atomic<bool> running_{false};
    std::thread thread_;

    obs::Registry registry_; ///< svc.* metrics (thread-safe)

    /// Metric handles hoisted out of the service loop: Registry lookup
    /// takes a mutex and builds a name string per call; the references
    /// stay valid for the registry's lifetime (obs/registry.h), so
    /// resolve each metric once at construction.
    obs::Counter& requests_;
    obs::Counter& rejected_;
    obs::Counter& timeout_;
    obs::Counter& stats_polls_;
    obs::Counter& topk_polls_;
    obs::Counter& dump_requests_;
    obs::Counter& series_polls_;
    obs::Counter& prom_polls_;
    obs::Counter& overflow_;
    obs::Counter& malformed_;
    obs::Counter& disconnects_;
    obs::Counter& accepts_;
    obs::Counter* verdict_[core::kVerdictCount];
    obs::Gauge& queue_depth_;
    obs::Gauge& window_occupancy_;
    obs::Gauge& connections_open_;
    obs::LatencyHistogram& rpc_ns_;
    obs::LatencyHistogram& batch_size_;
    obs::LatencyHistogram& stage_server_queue_;
    obs::LatencyHistogram& stage_batch_wait_;
    obs::LatencyHistogram& stage_engine_;
    obs::LatencyHistogram& stage_link_;
    obs::LatencyHistogram& stage_shard_route_;
    obs::LatencyHistogram& stage_shard_coord_;
};

} // namespace rococo::svc
