/// @file
/// Engine worker pool of the multi-threaded validation server: N
/// threads that run ShardRouter::process() concurrently, fed by the
/// IO thread and answered back over an MPSC completion queue — the
/// piece that makes S shards actually validate in parallel instead of
/// being serialized behind the single service thread's batch loop.
///
/// Division of labor (see docs/SERVICE.md, "Threading model"):
///
///   IO thread (Server::loop) — accept/read/decode, the inline
///       introspection ops, respond()/flush(), every svc.* accounting
///       counter, trace spans, the monitor tick. Sole writer of
///       all connection state and the accounting invariant.
///   workers — deadline check + router_.process() only. A worker
///       touches the router (whose counters are its own lock-free
///       atomics and whose shards carry their own locks) and its job;
///       it never sees a socket, a connection, or a svc.* counter.
///
/// Job flow. Jobs live in a fixed slab (capacity = max_pending) with a
/// free list; acquire() returning nullptr IS the backpressure signal —
/// the IO thread answers kRejected without queueing, exactly like the
/// single-threaded server's bounded pending_ deque. submit() routes a
/// job to worker home_shard(request) % N: every single-shard request
/// for shard s lands on the same worker, so the per-shard mutex in
/// ShardRouter::process() is uncontended in the common case — the lock
/// acquisition the single-threaded caller paid on its own thread
/// becomes a handoff to the shard's owning worker (shard/router.h,
/// "Threading"). Cross-shard requests still take their ascending lock
/// sets and may contend; correctness never depends on affinity.
///
/// Completions. Workers push finished jobs onto one mutex-guarded MPSC
/// vector and write a single wake byte to a self-pipe only on the
/// empty -> non-empty transition (coalesced wake: one poll() wakeup
/// drains any number of completions). The IO thread polls the read end
/// next to its sockets and calls drain_completions() — so verdict
/// accounting, stage histograms and respond() all stay on the IO
/// thread, single-writer.
///
/// Shutdown. stop() wakes every worker; each drains its remaining feed
/// (processing every job normally — real verdicts, never dropped work)
/// and exits. The caller then drains the completion queue one last
/// time, which is what keeps svc.requests == sum(svc.verdict.*) +
/// svc.timeout + svc.rejected exact across a stop with requests in
/// flight.
///
/// Steady state allocates nothing: jobs recycle through the slab, the
/// per-worker feeds are fixed rings sized to that slab (a deque would
/// allocate a fresh block every ~64 FIFO rotations), the completion
/// vectors keep their capacity, and the OffloadRequest SmallVectors
/// reuse their inline/heap storage (tests/hotpath_alloc_test.cc counts
/// this at exactly zero).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque> // job slab: stable addresses without one big mmap
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "shard/router.h"
#include "svc/wire.h"

namespace rococo::svc {

/// One in-flight validation: request context written by the IO thread,
/// result written by the worker, accounting consumed by the IO thread.
/// A job is owned by exactly one side at a time (IO -> feed -> worker
/// -> completions -> IO), so none of its fields need atomicity.
struct WorkerJob
{
    // -- filled by the IO thread before submit() --
    int fd = -1;             ///< originating connection
    uint64_t generation = 0; ///< guards against fd reuse after close
    uint64_t request_id = 0;
    uint64_t arrival_ns = 0;
    uint64_t deadline_ns = 0;    ///< relative to arrival; 0 = none
    uint64_t trace_id = 0;       ///< flow-event binding id (0 = none)
    uint64_t parent_span_id = 0; ///< client span this request came from
    fpga::OffloadRequest offload;

    // -- filled by the worker before completion --
    bool timed_out = false; ///< deadline elapsed before the engine pass
    core::ValidationResult result;
    StageTimestamps stages;
    shard::RouteInfo route;
    uint64_t engine_start_ns = 0; ///< absolute, for the server span
    uint64_t engine_end_ns = 0;
};

class WorkerPool
{
  public:
    /// @param router shared validation tier; process() is thread-safe
    ///        under its per-shard locks
    /// @param threads engine workers N (>= 1)
    /// @param capacity job slab size — the in-flight bound that
    ///        replaces the single-threaded server's max_pending
    /// @param validations optional per-worker obs counters (size >=
    ///        threads when non-empty); each is written by exactly one
    ///        worker (svc.worker.<i>.validations)
    WorkerPool(shard::ShardRouter& router, size_t threads, size_t capacity,
               std::vector<obs::Counter*> validations = {});
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /// Create the completion self-pipe and spawn the workers. False if
    /// the pipe cannot be created. Not idempotent; call once.
    bool start();

    /// Wake every worker, let each drain its remaining feed with real
    /// engine passes, and join. Finished jobs stay in the completion
    /// queue — the caller must drain_completions() afterwards to close
    /// the accounting ledger. Idempotent.
    void stop();

    size_t threads() const { return workers_.size(); }

    /// Read end of the completion self-pipe: poll it with POLLIN next
    /// to the sockets; one readable byte means drain_completions() has
    /// work (coalesced — one byte may cover many completions).
    int completion_fd() const { return completion_fds_[0]; }

    /// Take a free job from the slab (IO thread only). nullptr when
    /// all capacity is in flight — the backpressure signal.
    WorkerJob* acquire();

    /// Recycle a finished job (IO thread only).
    void release(WorkerJob* job);

    /// Hand a filled job to its home-shard worker (IO thread only).
    void submit(WorkerJob* job);

    /// Move every finished job into @p out (appended), draining the
    /// wake pipe first (IO thread only). Returns the number appended.
    size_t drain_completions(std::vector<WorkerJob*>& out);

    /// Jobs currently between acquire() and release().
    size_t in_flight() const
    {
        return in_flight_.load(std::memory_order_relaxed);
    }

    /// Jobs waiting in (or running on) worker @p i. Readable from any
    /// thread (monitor callbacks).
    size_t
    worker_queue_depth(size_t i) const
    {
        return workers_[i]->depth.load(std::memory_order_relaxed);
    }

    /// Worker @p i of @p request's home shard: the shard that owns the
    /// request's lowest-numbered touched shard, so all single-shard
    /// traffic for one shard serializes on one worker (lock handoff,
    /// not contention). Address-free requests go to worker 0.
    size_t home_worker(const fpga::OffloadRequest& request) const;

  private:
    struct Worker
    {
        std::mutex mutex;
        std::condition_variable cv;
        /// Fixed-capacity FIFO ring, guarded by mutex. At most
        /// slab-capacity jobs exist, so the ring sized to the slab can
        /// never overflow and a steady-state push/pop never allocates.
        std::vector<WorkerJob*> ring;
        size_t head = 0;  ///< next pop slot
        size_t count = 0; ///< occupied slots
        /// feed.size() plus the job being processed, maintained
        /// relaxed — a monitoring value, not a synchronization point.
        std::atomic<size_t> depth{0};
        obs::Counter* validations = nullptr; ///< this worker only
        std::thread thread;
    };

    void run(Worker& worker);
    void complete(WorkerJob* job);

    shard::ShardRouter& router_;
    std::vector<obs::Counter*> validation_counters_;
    std::deque<WorkerJob> slab_; ///< stable addresses; never resized
    std::vector<WorkerJob*> free_;
    std::atomic<size_t> in_flight_{0};
    std::vector<std::unique_ptr<Worker>> workers_;

    std::mutex completion_mutex_;
    std::vector<WorkerJob*> completions_; ///< guarded by completion_mutex_
    std::vector<WorkerJob*> drained_;     ///< IO thread swap target
    int completion_fds_[2] = {-1, -1};
    std::atomic<bool> running_{false};
};

} // namespace rococo::svc
