/// @file
/// Spin-then-park mutex for short critical sections.
///
/// A plain std::mutex parks a contended locker on the futex at once.
/// When the holder keeps the lock for only a few microseconds (one
/// validation-engine pass), the park and the wake-up cost more than
/// the wait itself. This lock first spins with `pause` for a bounded
/// time, then parks like a futex mutex (Drepper's three-state lock:
/// 0 free, 1 held, 2 held with parked waiters).
///
/// The spin is bounded by time, not by iteration count: the latency of
/// one `pause` differs by more than 10x between x86 generations (about
/// 25 ns on recent Xeons), so a fixed count would spin anywhere from a
/// few microseconds to over a hundred.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace rococo {

class SpinParkMutex
{
  public:
    /// How long a contended lock() spins before it parks: about one
    /// engine pass on an 8-address request.
    static constexpr std::chrono::nanoseconds kSpinBound{4000};

    SpinParkMutex() = default;
    SpinParkMutex(const SpinParkMutex&) = delete;
    SpinParkMutex& operator=(const SpinParkMutex&) = delete;

    bool
    try_lock()
    {
        uint32_t expected = kFree;
        return state_.compare_exchange_strong(expected, kHeld,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed);
    }

    void
    lock()
    {
        if (try_lock() || spin_try_lock()) return;
        // Park. Setting 2 makes the eventual unlock() wake a waiter; a
        // waiter that wins the exchange owns the lock in state 2, which
        // at worst costs one needless wake-up.
        while (state_.exchange(kParked, std::memory_order_acquire) != kFree) {
            state_.wait(kParked, std::memory_order_relaxed);
        }
    }

    void
    unlock()
    {
        if (state_.exchange(kFree, std::memory_order_release) == kParked) {
            state_.notify_one();
        }
    }

  private:
    static constexpr uint32_t kFree = 0;
    static constexpr uint32_t kHeld = 1;
    static constexpr uint32_t kParked = 2;
    /// pause instructions between clock reads while spinning.
    static constexpr int kPausesPerCheck = 8;

    static void
    pause()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    }

    /// Spin for up to kSpinBound, taking the lock if it frees up.
    /// Reads before each CAS, so spinners share the line instead of
    /// bouncing it.
    bool
    spin_try_lock()
    {
        using Clock = std::chrono::steady_clock;
        const Clock::time_point deadline = Clock::now() + kSpinBound;
        do {
            for (int i = 0; i < kPausesPerCheck; ++i) pause();
            if (state_.load(std::memory_order_relaxed) == kFree &&
                try_lock()) {
                return true;
            }
        } while (Clock::now() < deadline);
        return false;
    }

    std::atomic<uint32_t> state_{kFree};
};

} // namespace rococo
