#include "svc/worker_pool.h"

#include <fcntl.h>
#include <unistd.h>

#include "common/check.h"
#include "obs/clock.h"

namespace rococo::svc {

WorkerPool::WorkerPool(shard::ShardRouter& router, size_t threads,
                       size_t capacity,
                       std::vector<obs::Counter*> validations)
    : router_(router), validation_counters_(std::move(validations))
{
    ROCOCO_CHECK(threads >= 1 && capacity >= 1);
    ROCOCO_CHECK(validation_counters_.empty() ||
                 validation_counters_.size() >= threads);
    slab_.resize(capacity);
    free_.reserve(capacity);
    for (WorkerJob& job : slab_) free_.push_back(&job);
    completions_.reserve(capacity);
    drained_.reserve(capacity);
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i) {
        auto worker = std::make_unique<Worker>();
        // Every in-flight job fits in every feed, so the ring is full
        // before the slab runs out and push never wraps onto a live
        // entry.
        worker->ring.resize(capacity);
        worker->index = i;
        if (!validation_counters_.empty()) {
            worker->validations = validation_counters_[i];
        }
        workers_.push_back(std::move(worker));
    }
}

WorkerPool::~WorkerPool()
{
    stop();
    for (int& fd : completion_fds_) {
        if (fd >= 0) close(fd);
        fd = -1;
    }
}

bool
WorkerPool::start()
{
    if (pipe(completion_fds_) != 0) return false;
    for (int fd : completion_fds_) {
        const int flags = fcntl(fd, F_GETFL, 0);
        if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
            for (int& f : completion_fds_) {
                close(f);
                f = -1;
            }
            return false;
        }
    }
    running_.store(true, std::memory_order_release);
    for (auto& worker : workers_) {
        worker->thread = std::thread([this, w = worker.get()] { run(*w); });
    }
    return true;
}

void
WorkerPool::stop()
{
    if (!running_.exchange(false, std::memory_order_acq_rel)) return;
    for (auto& worker : workers_) {
        {
            // The lock pairs the flag flip with the cv wait: a worker
            // between its predicate check and its sleep must observe
            // either the old flag (and be notified) or the new one.
            std::lock_guard<std::mutex> lock(worker->mutex);
        }
        worker->cv.notify_all();
    }
    for (auto& worker : workers_) {
        if (worker->thread.joinable()) worker->thread.join();
    }
}

WorkerJob*
WorkerPool::acquire()
{
    if (free_.empty()) return nullptr;
    WorkerJob* job = free_.back();
    free_.pop_back();
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    return job;
}

void
WorkerPool::release(WorkerJob* job)
{
    // Reset only what the next use would otherwise inherit; the
    // OffloadRequest keeps its SmallVector storage for reuse.
    job->offload.reads.clear();
    job->offload.writes.clear();
    job->timed_out = false;
    job->stages = StageTimestamps{};
    job->route = shard::RouteInfo{};
    free_.push_back(job);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
}

size_t
WorkerPool::home_worker(const fpga::OffloadRequest& request) const
{
    const shard::Partitioner& partitioner = router_.partitioner();
    const size_t n = workers_.size();
    size_t owner = n; // owner of the first address; n: none yet
    // True when addr's shard belongs to another worker than the first.
    auto spans = [&](uint64_t addr) {
        const size_t worker = partitioner.shard_of(addr) % n;
        if (owner == n) owner = worker;
        return worker != owner;
    };
    for (uint64_t addr : request.reads) {
        if (spans(addr)) return kCoordinator;
    }
    for (uint64_t addr : request.writes) {
        if (spans(addr)) return kCoordinator;
    }
    return owner == n ? 0 : owner; // address-free: worker 0
}

void
WorkerPool::submit(WorkerJob* job)
{
    const size_t home = home_worker(job->offload);
    job->spans_owners = home == kCoordinator;
    if (!job->spans_owners) {
        push(*workers_[home], job);
        workers_[home]->cv.notify_one();
        return;
    }
    // Straight to the role holder. A stale read costs one handover
    // hop, never correctness: run() checks the role again when it pops
    // the job.
    size_t holder = coordinator_.load(std::memory_order_relaxed);
    if (holder != kNoCoordinator) {
        push(*workers_[holder], job);
        workers_[holder]->cv.notify_one();
        return;
    }
    {
        // The role is free: give it to the least-loaded worker, ties
        // going round-robin, and push under the role mutex so that
        // worker cannot drop the role before the job is in its feed.
        std::lock_guard<std::mutex> role(coordinator_mutex_);
        holder = coordinator_.load(std::memory_order_relaxed);
        if (holder == kNoCoordinator) {
            const size_t n = workers_.size();
            size_t least = SIZE_MAX;
            for (size_t k = 0; k < n; ++k) {
                const size_t i = (next_claim_ + k) % n;
                const size_t depth =
                    workers_[i]->depth.load(std::memory_order_relaxed);
                if (depth < least) {
                    least = depth;
                    holder = i;
                }
            }
            next_claim_ = (holder + 1) % n;
            coordinator_.store(holder, std::memory_order_relaxed);
        }
        push(*workers_[holder], job);
    }
    workers_[holder]->cv.notify_one();
}

void
WorkerPool::push(Worker& worker, WorkerJob* job)
{
    worker.depth.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(worker.mutex);
    worker.ring[(worker.head + worker.count) % worker.ring.size()] = job;
    ++worker.count;
}

void
WorkerPool::run(Worker& worker)
{
    // Whether this worker holds the coordinator role, as far as it has
    // seen: submit() may hand the role to an idle worker together with
    // a job, and the worker learns so when it pops a spanning job.
    // Only the holder drops the role, so a local flag suffices and the
    // hot loop never reads the shared coordinator_ word.
    bool coordinating = false;
    for (;;) {
        WorkerJob* job = nullptr;
        {
            std::unique_lock<std::mutex> lock(worker.mutex);
            if (coordinating && worker.count == 0) {
                // Out of work: drop the role before sleeping. Every
                // push into a role holder's feed that relies on the
                // role happens under coordinator_mutex_, so none can
                // land after the emptiness check below. A push from
                // submit()'s unlocked hint still may; this worker then
                // pops it and takes or hands over the role (submit()
                // never overlaps stop(), so it has not exited).
                lock.unlock();
                {
                    std::lock_guard<std::mutex> role(coordinator_mutex_);
                    std::lock_guard<std::mutex> feed(worker.mutex);
                    if (worker.count == 0) {
                        coordinator_.store(kNoCoordinator,
                                           std::memory_order_relaxed);
                        coordinating = false;
                    }
                }
                lock.lock();
            }
            worker.cv.wait(lock, [&] {
                return worker.count != 0 ||
                       !running_.load(std::memory_order_acquire);
            });
            // Stopping: drain the remaining feed with real engine
            // passes — every accepted job gets its true verdict, and
            // the final drain_completions() closes the ledger. The
            // role was dropped above, so nothing is handed over to a
            // worker that has exited.
            if (worker.count == 0) return;
            job = worker.ring[worker.head];
            worker.head = (worker.head + 1) % worker.ring.size();
            --worker.count;
        }
        if (job->spans_owners && !coordinating) {
            Worker* holder = nullptr;
            {
                std::lock_guard<std::mutex> role(coordinator_mutex_);
                const size_t index =
                    coordinator_.load(std::memory_order_relaxed);
                if (index == kNoCoordinator) {
                    coordinator_.store(worker.index,
                                       std::memory_order_relaxed);
                    coordinating = true;
                } else if (index == worker.index) {
                    coordinating = true; // handed out by submit()
                } else {
                    // Another worker holds the role: hand the pass
                    // over instead of queueing on its shard locks.
                    holder = workers_[index].get();
                    push(*holder, job);
                }
            }
            if (holder != nullptr) {
                holder->cv.notify_one();
                worker.depth.fetch_sub(1, std::memory_order_relaxed);
                continue;
            }
        }
        execute(worker, job);
    }
}

void
WorkerPool::execute(Worker& worker, WorkerJob* job)
{
    const uint64_t start = obs::now_ns();
    job->stages.server_queue_ns = start - job->arrival_ns;
    if (job->deadline_ns != 0 &&
        start - job->arrival_ns > job->deadline_ns) {
        // Expired while queued: the client has already given up — an
        // engine pass would only burn window slots for a verdict
        // nobody applies (same rule as process_batch).
        job->timed_out = true;
        job->result = {core::Verdict::kTimeout, 0,
                       obs::AbortReason::kTimeout};
    } else {
        job->engine_start_ns = start;
        job->result = router_.process(job->offload, &job->route);
        job->engine_end_ns = obs::now_ns();
        job->stages.engine_ns = job->engine_end_ns - start;
        // What the same pass would cost over the paper's CCI link —
        // modeled, never part of the wall-clock sum.
        job->stages.link_ns = static_cast<uint64_t>(
            router_.isolated_latency_ns(job->offload));
        if (worker.validations != nullptr) worker.validations->add(1);
    }
    worker.depth.fetch_sub(1, std::memory_order_relaxed);
    complete(job);
}

void
WorkerPool::complete(WorkerJob* job)
{
    bool was_empty = false;
    {
        std::lock_guard<std::mutex> lock(completion_mutex_);
        was_empty = completions_.empty();
        completions_.push_back(job);
    }
    if (was_empty) {
        // Coalesced wake: only the empty -> non-empty transition costs
        // a write(); the IO thread's next drain covers every completion
        // that piles up behind it.
        const char byte = 0;
        [[maybe_unused]] ssize_t n = write(completion_fds_[1], &byte, 1);
    }
}

size_t
WorkerPool::drain_completions(std::vector<WorkerJob*>& out)
{
    char drain[16];
    while (read(completion_fds_[0], drain, sizeof(drain)) > 0) {}
    drained_.clear();
    {
        std::lock_guard<std::mutex> lock(completion_mutex_);
        completions_.swap(drained_);
    }
    out.insert(out.end(), drained_.begin(), drained_.end());
    return drained_.size();
}

} // namespace rococo::svc
