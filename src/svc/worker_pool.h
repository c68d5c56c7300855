/// @file
/// Engine worker pool of the multi-threaded validation server: N
/// threads that run ShardRouter::process(), fed by the IO thread and
/// answered back over an MPSC completion queue, so engine passes leave
/// the single service thread's batch loop. Passes on disjoint shard
/// sets may run at the same time; passes whose shards belong to
/// several workers run one at a time (see "Coordinator role").
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
/// single-threaded server's bounded pending_ deque. Worker w owns the
/// locks of every shard s with s % N == w. submit() sends a request
/// whose touched shards all belong to one worker to that worker
/// (home_worker()): every single-shard request for shard s, and with
/// S > N also a cross-shard one such as {0, 2} at S=4, N=2. Owners of
/// disjoint shards can validate at the same time (how much that gains
/// is not measured yet), and the per-shard mutex in
/// ShardRouter::process() is a handoff, not a point of contention
/// (shard/router.h, "Threading").
///
/// Coordinator role. A request whose shards belong to several workers
/// runs under the coordinator role, which at most one worker holds at
/// a time. submit() sends such a request to the holder; when the role
/// is free it gives it to the least-loaded worker (ties round-robin).
/// The holder keeps the role until its feed runs dry, then drops it
/// before it sleeps. A worker that pops a spanning job without the
/// role (submit() read a stale holder) takes the role if it is free,
/// or else hands the job to the holder and moves on. So spanning
/// passes run one at a time: they never convoy on each other's
/// overlapping ascending lock sets, and the engine state stays on one
/// core for a whole busy spell. They also do not run in parallel with
/// each other. With hashed ownership nearly every multi-address request
/// spans owners: at S = N = 4 a 6-address request stays within one
/// owner ~0.1% of the time. On such traffic the pool validates one pass
/// at a time, on a worker that changes between busy spells. Only
/// shard-local traffic runs several engines at once. Correctness never
/// depends on the routing or the role; only the fast path does.
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
    /// Set by submit(): the touched shards belong to several workers,
    /// so the pass runs under the coordinator role.
    bool spans_owners = false;

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

    /// Hand a filled job to its home_worker(), or to the coordinator
    /// role holder (IO thread only).
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

    /// Worker that validates @p request: the owner (shard % N) of
    /// every shard it touches when they all share one owner, else
    /// kCoordinator — the pass runs on whichever worker holds the
    /// coordinator role. Address-free requests go to worker 0.
    /// Allocation-free: hashes each address once and stops at the
    /// first address owned by a second worker.
    size_t home_worker(const fpga::OffloadRequest& request) const;

    /// home_worker() result for a request whose shards belong to more
    /// than one worker.
    static constexpr size_t kCoordinator = ~size_t{0};

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
        size_t index = 0;                    ///< position in workers_
        std::thread thread;
    };

    /// Append @p job to @p worker's feed; the caller notifies.
    void push(Worker& worker, WorkerJob* job);
    void run(Worker& worker);
    /// Deadline check + engine pass of @p job on @p worker, then
    /// complete() it.
    void execute(Worker& worker, WorkerJob* job);
    void complete(WorkerJob* job);

    shard::ShardRouter& router_;
    std::vector<obs::Counter*> validation_counters_;
    std::deque<WorkerJob> slab_; ///< stable addresses; never resized
    std::vector<WorkerJob*> free_;
    std::atomic<size_t> in_flight_{0};
    std::vector<std::unique_ptr<Worker>> workers_;

    /// The coordinator role: index of the worker that runs passes
    /// spanning owners, or kNoCoordinator. Written only under
    /// coordinator_mutex_, when submit() hands the free role out or a
    /// worker takes or drops it. submit() also reads it unlocked, as a
    /// routing hint, for every spanning request, so it sits on its own
    /// cache line, away from the busy completion mutex.
    static constexpr size_t kNoCoordinator = ~size_t{0};
    alignas(64) std::atomic<size_t> coordinator_{kNoCoordinator};
    std::mutex coordinator_mutex_;
    /// Where submit()'s search for the least-loaded worker starts when
    /// it hands out a free role, so ties go round-robin. IO thread
    /// only.
    size_t next_claim_ = 0;

    alignas(64) std::mutex completion_mutex_;
    std::vector<WorkerJob*> completions_; ///< guarded by completion_mutex_
    std::vector<WorkerJob*> drained_;     ///< IO thread swap target
    int completion_fds_[2] = {-1, -1};
    std::atomic<bool> running_{false};
};

} // namespace rococo::svc
