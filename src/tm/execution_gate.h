/// @file
/// Execution gate for irrevocability (§4.2: "to ensure long
/// transactions can eventually commit, irrevocability may be
/// required"). Optimistic attempts pass it side by side; an irrevocable
/// attempt drains them all and runs alone.
///
/// A std::shared_mutex does the same job, but every shared acquisition
/// is an RMW on one process-wide cache line, paid by every attempt,
/// read-only ones included. Here an optimistic attempt stores to a flag
/// on its own cache line and loads one shared flag that changes only
/// when an irrevocable attempt starts or ends (a Dekker handshake):
///
///   optimistic:  active[t] = 1 (seq_cst); if irrevocable, clear and wait
///   irrevocable: take the mutex; irrevocable = 1 (seq_cst);
///                wait until every active[t] reads 0
///
/// Sequential consistency guarantees that of two racing entries at
/// least one sees the other's store, so the irrevocable attempt never
/// runs beside an optimistic one. The flags live in an array allocated
/// at construction, so the drainer never races a thread registering.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

namespace rococo::tm {

class ExecutionGate
{
  public:
    explicit ExecutionGate(unsigned max_threads)
        : active_(std::make_unique<ActiveFlag[]>(max_threads)),
          threads_(max_threads)
    {
    }

    ExecutionGate(const ExecutionGate&) = delete;
    ExecutionGate& operator=(const ExecutionGate&) = delete;

    /// Scope of one optimistic attempt by thread @p tid. Waits while an
    /// irrevocable attempt runs.
    class Shared
    {
      public:
        Shared(ExecutionGate& gate, unsigned tid)
            : flag_(gate.active_[tid].value)
        {
            for (;;) {
                flag_.store(1, std::memory_order_seq_cst);
                if (!gate.irrevocable_.load(std::memory_order_seq_cst)) {
                    return;
                }
                flag_.store(0, std::memory_order_release);
                while (gate.irrevocable_.load(std::memory_order_acquire)) {
                    std::this_thread::yield();
                }
            }
        }
        ~Shared() { flag_.store(0, std::memory_order_release); }

        Shared(const Shared&) = delete;
        Shared& operator=(const Shared&) = delete;

      private:
        std::atomic<uint32_t>& flag_;
    };

    /// Irrevocable entry (BasicLockable, for std::lock_guard): one at a
    /// time, after every optimistic attempt in flight has left. The
    /// calling thread must not hold a Shared scope.
    void
    lock()
    {
        mutex_.lock();
        irrevocable_.store(true, std::memory_order_seq_cst);
        for (unsigned t = 0; t < threads_; ++t) {
            while (active_[t].value.load(std::memory_order_seq_cst) != 0) {
                std::this_thread::yield();
            }
        }
    }

    void
    unlock()
    {
        irrevocable_.store(false, std::memory_order_release);
        mutex_.unlock();
    }

  private:
    struct alignas(64) ActiveFlag
    {
        std::atomic<uint32_t> value{0};
    };

    std::unique_ptr<ActiveFlag[]> active_;
    unsigned threads_;
    /// Read by every optimistic entry; written only around irrevocable
    /// attempts, so the line stays shared in every core's cache.
    alignas(64) std::atomic<bool> irrevocable_{false};
    std::mutex mutex_; ///< one irrevocable attempt at a time
};

} // namespace rococo::tm
