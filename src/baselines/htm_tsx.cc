#include "baselines/htm_tsx.h"

#include <bit>
#include <thread>

#include "common/check.h"

namespace rococo::baselines {
namespace {

thread_local unsigned tls_thread_id = ~0u;

/// Writer tag of one speculative attempt: its attempt number in the high
/// half, thread id + 1 in the low half. The attempt number keeps a
/// stealer's CAS from succeeding against a later attempt of the thread
/// it doomed (ABA).
uint64_t
owner_tag(uint32_t attempt, unsigned thread_id)
{
    return (uint64_t{attempt} << 32) | (thread_id + 1);
}

unsigned
owner_thread(uint64_t tag)
{
    return static_cast<unsigned>(tag & 0xffffffffu) - 1;
}

} // namespace

struct HtmTsxSim::Descriptor
{
    explicit Descriptor(unsigned tid)
        : thread_id(tid)
    {
    }

    unsigned thread_id;
    unsigned failed_attempts = 0;
    std::vector<size_t> read_stripes;  ///< stripes with our reader bit
    std::vector<size_t> write_stripes; ///< stripes we own as writer
    tm::RedoLog redo;
    size_t accesses = 0;
    uint64_t fallback_epoch = 0; ///< fallback_epoch_ at attempt start
    uint32_t attempts = 0;       ///< speculative attempts started
    uint64_t tag = 0;            ///< owner_tag() of the current attempt
    CounterBag stats;
    obs::AbortReason last_abort = obs::AbortReason::kNone;

    void
    reset()
    {
        read_stripes.clear();
        write_stripes.clear();
        redo.clear();
        accesses = 0;
        last_abort = obs::AbortReason::kNone;
    }
};

class HtmTsxSim::TxImpl final : public tm::Tx
{
  public:
    TxImpl(HtmTsxSim& rt, Descriptor& d)
        : rt_(rt), d_(d)
    {
    }

    tm::Word
    load(const tm::TmCell& cell) override
    {
        check_doom_and_capacity();

        tm::Word value;
        if (!d_.redo.empty() && d_.redo.get(&cell, value)) return value;

        const size_t idx = rt_.stripe_index(&cell);
        Stripe& stripe = rt_.stripes_[idx];

        // Acquire shared ownership: announce the reader bit, then look
        // for a writer. store() announces the writer, then looks for
        // readers. Both sides are seq_cst, so of a racing read and
        // write at least one sees the other.
        const uint64_t my_bit = uint64_t{1} << (d_.thread_id & 63);
        if (!(stripe.readers.load(std::memory_order_relaxed) & my_bit)) {
            stripe.readers.fetch_or(my_bit, std::memory_order_seq_cst);
            d_.read_stripes.push_back(idx);
        }
        // A foreign writer loses (requester wins, as when a load forces
        // the writer's M-state line out of its cache).
        const uint64_t writer = stripe.writer.load(std::memory_order_seq_cst);
        if (writer != 0 && writer != d_.tag) rt_.doom(owner_thread(writer));
        ++d_.accesses;
        value = cell.value.load(std::memory_order_acquire);
        // A conflicting writer that committed since the last access
        // doomed us first; never hand the body a torn snapshot.
        check_doom();
        return value;
    }

    void
    store(tm::TmCell& cell, tm::Word value) override
    {
        check_doom_and_capacity();

        const size_t idx = rt_.stripe_index(&cell);
        Stripe& stripe = rt_.stripes_[idx];

        // Exclusive ownership: doom every foreign reader and writer
        // (the store invalidates their lines).
        // Claim with a CAS, dooming the current owner first: once we
        // are the owner, every earlier one has either written back in
        // full or can no longer commit, so a reader that finds us needs
        // to doom only us. (An exchange would leave a window in which
        // the old owner, not yet doomed, commits behind our back.)
        uint64_t writer = stripe.writer.load(std::memory_order_seq_cst);
        while (writer != d_.tag) {
            if (writer != 0) rt_.doom(owner_thread(writer));
            if (stripe.writer.compare_exchange_weak(
                    writer, d_.tag, std::memory_order_seq_cst)) {
                d_.write_stripes.push_back(idx);
                break;
            }
        }
        const uint64_t my_bit = uint64_t{1} << (d_.thread_id & 63);
        uint64_t readers =
            stripe.readers.load(std::memory_order_seq_cst) & ~my_bit;
        while (readers != 0) {
            const unsigned victim = std::countr_zero(readers);
            rt_.doom(victim);
            readers &= readers - 1;
        }
        d_.redo.put(&cell, value);
        ++d_.accesses;
        if (d_.write_stripes.size() > rt_.config_.write_capacity) {
            capacity_abort();
        }
    }

    [[noreturn]] void
    retry() override
    {
        d_.stats.bump(tm::stat::kEagerAborts);
        d_.last_abort = obs::AbortReason::kExplicitRetry;
        throw tm::TxAbortException{};
    }

  private:
    /// Abort if a conflicting access doomed us or a fallback
    /// transaction started since this attempt began.
    void
    check_doom()
    {
        if (!rt_.attempt_live(d_)) {
            d_.stats.bump(tm::stat::kConflictAborts);
            d_.last_abort = obs::AbortReason::kConflict;
            throw tm::TxAbortException{};
        }
    }

    void
    check_doom_and_capacity()
    {
        check_doom();
        if (d_.accesses > rt_.config_.read_capacity) capacity_abort();
    }

    [[noreturn]] void
    capacity_abort()
    {
        d_.stats.bump(tm::stat::kCapacityAborts);
        d_.last_abort = obs::AbortReason::kCapacity;
        throw tm::TxAbortException{};
    }

    HtmTsxSim& rt_;
    Descriptor& d_;
};

HtmTsxSim::HtmTsxSim(const HtmConfig& config)
    : config_(config), stripes_(config.stripes),
      doomed_(std::make_unique<std::atomic<uint32_t>[]>(config.max_threads)),
      descriptors_(config.max_threads)
{
    ROCOCO_CHECK(std::has_single_bit(config.stripes));
    ROCOCO_CHECK(config.max_threads <= 64);
    for (unsigned i = 0; i < config.max_threads; ++i) {
        doomed_[i].store(0, std::memory_order_relaxed);
    }
}

HtmTsxSim::~HtmTsxSim() = default;

void
HtmTsxSim::thread_init(unsigned thread_id)
{
    ROCOCO_CHECK(thread_id < config_.max_threads);
    if (!descriptors_[thread_id]) {
        descriptors_[thread_id] = std::make_unique<Descriptor>(thread_id);
    }
    tls_thread_id = thread_id;
}

void
HtmTsxSim::thread_fini()
{
    ROCOCO_CHECK(tls_thread_id != ~0u);
    Descriptor& d = *descriptors_[tls_thread_id];
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.add(d.stats);
    }
    d.stats = CounterBag();
    tls_thread_id = ~0u;
}

HtmTsxSim::Descriptor&
HtmTsxSim::descriptor()
{
    ROCOCO_CHECK(tls_thread_id != ~0u);
    return *descriptors_[tls_thread_id];
}

void
HtmTsxSim::doom(unsigned victim)
{
    doomed_[victim].store(1, std::memory_order_seq_cst);
    // Wait out a commit the victim may be inside: after this barrier it
    // has either written back in full or will see the doom when it
    // tries to commit, as if the conflict had aborted it at once.
    std::lock_guard<std::mutex> barrier(commit_mutex_);
}

bool
HtmTsxSim::attempt_live(const Descriptor& d) const
{
    return !doomed_[d.thread_id].load(std::memory_order_acquire) &&
           fallback_epoch_.load(std::memory_order_acquire) ==
               d.fallback_epoch;
}

void
HtmTsxSim::release_footprint(Descriptor& d)
{
    const uint64_t my_bit = uint64_t{1} << (d.thread_id & 63);
    for (size_t idx : d.read_stripes) {
        stripes_[idx].readers.fetch_and(~my_bit, std::memory_order_acq_rel);
    }
    for (size_t idx : d.write_stripes) {
        uint64_t expected = d.tag;
        stripes_[idx].writer.compare_exchange_strong(
            expected, 0, std::memory_order_acq_rel);
    }
}

bool
HtmTsxSim::speculative_attempt(const std::function<void(tm::Tx&)>& body,
                               Descriptor& d)
{
    uint64_t epoch;
    while ((epoch = fallback_epoch_.load(std::memory_order_acquire)) & 1) {
        std::this_thread::yield();
    }
    d.reset();
    d.fallback_epoch = epoch;
    d.tag = owner_tag(++d.attempts, d.thread_id);
    doomed_[d.thread_id].store(0, std::memory_order_release);
    TxImpl tx(*this, d);

    bool committed = false;
    try {
        body(tx);
        // Commit decision is serialized against doom() effects and the
        // fallback barrier.
        std::lock_guard<std::mutex> lock(commit_mutex_);
        if (attempt_live(d)) {
            d.redo.apply();
            committed = true;
        } else {
            d.stats.bump(tm::stat::kConflictAborts);
            d.last_abort = obs::AbortReason::kConflict;
        }
    } catch (const tm::TxAbortException&) {
        // Doom/capacity/user abort: counters were bumped at the throw
        // site.
    }
    release_footprint(d);
    return committed;
}

void
HtmTsxSim::fallback_execute(const std::function<void(tm::Tx&)>& body,
                            Descriptor& d)
{
    // Global-lock fallback: exclusive, non-speculative execution.
    std::lock_guard<std::mutex> serial(fallback_mutex_);
    // Odd epoch: no speculative attempt may start, and every one in
    // flight sees the epoch change at its next access or commit.
    fallback_epoch_.fetch_add(1, std::memory_order_seq_cst);
    {
        // Barrier: wait out any in-flight speculative commit.
        std::lock_guard<std::mutex> barrier(commit_mutex_);
    }

    /// Direct-access Tx handle used only under the fallback lock.
    class DirectTx final : public tm::Tx
    {
      public:
        tm::Word
        load(const tm::TmCell& cell) override
        {
            return cell.value.load(std::memory_order_acquire);
        }
        void
        store(tm::TmCell& cell, tm::Word value) override
        {
            cell.value.store(value, std::memory_order_release);
        }
        [[noreturn]] void
        retry() override
        {
            throw tm::TxAbortException{};
        }
    } tx;

    try {
        body(tx);
    } catch (const tm::TxAbortException&) {
        // A retry() under the fallback lock cannot make progress by
        // waiting (we are serial); surface it as a commit of a no-op
        // retry loop by re-running the body until it succeeds.
        fallback_epoch_.fetch_add(1, std::memory_order_release);
        throw;
    }
    fallback_epoch_.fetch_add(1, std::memory_order_release);
    d.stats.bump(tm::stat::kFallbackCommits);
    d.stats.bump(tm::stat::kCommits);
}

bool
HtmTsxSim::try_execute(const std::function<void(tm::Tx&)>& body)
{
    Descriptor& d = descriptor();
    if (d.failed_attempts > config_.retries) {
        try {
            fallback_execute(body, d);
            d.failed_attempts = 0;
            return true;
        } catch (const tm::TxAbortException&) {
            // retry() under the fallback lock: go back to speculation so
            // other threads can change the awaited state.
            d.failed_attempts = 0;
            d.stats.bump(tm::stat::kAborts);
            return false;
        }
    }
    if (speculative_attempt(body, d)) {
        d.failed_attempts = 0;
        d.stats.bump(tm::stat::kCommits);
        return true;
    }
    ++d.failed_attempts;
    d.stats.bump(tm::stat::kAborts);
    return false;
}

CounterBag
HtmTsxSim::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
}

obs::AbortReason
HtmTsxSim::last_abort_reason() const
{
    if (tls_thread_id == ~0u || !descriptors_[tls_thread_id]) {
        return obs::AbortReason::kUnknown;
    }
    return descriptors_[tls_thread_id]->last_abort;
}

} // namespace rococo::baselines
