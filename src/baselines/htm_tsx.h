/// @file
/// Simulated best-effort HTM in the style of Intel TSX — the HTM
/// baseline of the paper's evaluation (§6.2).
///
/// Models the properties that shape TSX's Fig. 10 curves:
///  * eager conflict detection: accesses acquire cache-line-like
///    ownership (reader mask / writer slot per stripe); a conflicting
///    access dooms the current owner(s) — requester wins, producing the
///    chain-abort avalanche the paper observes;
///  * capacity aborts: a transaction whose footprint exceeds the
///    modelled cache capacity aborts unconditionally;
///  * best-effort + fallback: after `retries` aborted attempts, the
///    transaction takes a global lock, which quiesces and aborts all
///    speculative transactions (the standard lock-elision fallback).
///    With 4 retries the abort-rate ceiling is 5/6 ≈ 83.3%
///    (footnote 10).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "baselines/lock_table.h"
#include "common/stats.h"
#include "tm/redo_log.h"
#include "tm/tm.h"

namespace rococo::baselines {

struct HtmConfig
{
    size_t stripes = size_t{1} << 16;
    unsigned max_threads = 64;
    /// Speculative attempts before falling back to the global lock.
    unsigned retries = 4;
    /// Modelled capacity in distinct stripes (write set, ~L1) and
    /// total accesses (read set, ~L2), causing capacity aborts.
    size_t write_capacity = 512;
    size_t read_capacity = 4096;
};

class HtmTsxSim final : public tm::TmRuntime
{
  public:
    ~HtmTsxSim() override;

    explicit HtmTsxSim(const HtmConfig& config = {});

    std::string name() const override { return "HTM-TSX"; }

    void thread_init(unsigned thread_id) override;
    void thread_fini() override;

    CounterBag stats() const override;

    obs::AbortReason last_abort_reason() const override;

  protected:
    bool try_execute(const std::function<void(tm::Tx&)>& body) override;

  private:
    class TxImpl;
    struct Descriptor;

    /// Per-stripe ownership: a 64-thread reader bitmask and a writer
    /// slot holding the owning attempt's tag (0 = none; see owner_tag()
    /// in htm_tsx.cc).
    struct Stripe
    {
        std::atomic<uint64_t> readers{0};
        std::atomic<uint64_t> writer{0};
    };

    Descriptor& descriptor();

    bool speculative_attempt(const std::function<void(tm::Tx&)>& body,
                             Descriptor& d);
    void fallback_execute(const std::function<void(tm::Tx&)>& body,
                          Descriptor& d);
    void release_footprint(Descriptor& d);
    /// Doom @p victim and wait until it cannot commit without seeing
    /// the doom.
    void doom(unsigned victim);
    /// False once @p d's attempt was doomed or a fallback began.
    bool attempt_live(const Descriptor& d) const;

    HtmConfig config_;
    std::vector<Stripe> stripes_;
    std::unique_ptr<std::atomic<uint32_t>[]> doomed_;

    /// Serializes commit decisions and write-back; doom() and the
    /// fallback pass through it as a barrier.
    std::mutex commit_mutex_;
    /// Fallback (non-speculative) transactions started + finished: odd
    /// while one runs. A speculative attempt that sees it change
    /// aborts, even if the fallback began and ended between accesses.
    std::atomic<uint64_t> fallback_epoch_{0};
    std::mutex fallback_mutex_;

    mutable std::mutex stats_mutex_;
    CounterBag stats_;
    std::vector<std::unique_ptr<Descriptor>> descriptors_;

    size_t
    stripe_index(const void* addr) const
    {
        auto x = reinterpret_cast<uintptr_t>(addr);
        x ^= x >> 33;
        x *= 0xc2b2ae3d27d4eb4fULL;
        x ^= x >> 29;
        return static_cast<size_t>(x) & (stripes_.size() - 1);
    }
};

} // namespace rococo::baselines
