#include "baselines/tinystm_lsa.h"

#include <algorithm>
#include <thread>

#include "common/check.h"

namespace rococo::baselines {
namespace {

thread_local unsigned tls_thread_id = ~0u;

} // namespace

/// Per-thread transaction state.
struct TinyStmLsa::Descriptor
{
    explicit Descriptor(unsigned tid)
        : thread_id(tid)
    {
    }

    struct ReadEntry
    {
        std::atomic<uint64_t>* lock;
        uint64_t version;
    };

    unsigned thread_id;
    uint64_t snapshot = 0;
    std::vector<ReadEntry> read_set;
    tm::RedoLog redo;
    CounterBag stats;
    obs::AbortReason last_abort = obs::AbortReason::kNone;

    void
    reset(uint64_t now)
    {
        snapshot = now;
        read_set.clear();
        redo.clear();
        last_abort = obs::AbortReason::kNone;
    }
};

class TinyStmLsa::TxImpl final : public tm::Tx
{
  public:
    TxImpl(TinyStmLsa& rt, Descriptor& d)
        : rt_(rt), d_(d)
    {
    }

    tm::Word
    load(const tm::TmCell& cell) override
    {
        tm::Word value;
        if (!d_.redo.empty() && d_.redo.get(&cell, value)) return value;

        std::atomic<uint64_t>& lock = rt_.locks_.lock_for(&cell);
        for (unsigned spin = 0;; ++spin) {
            const uint64_t v1 = lock.load(std::memory_order_acquire);
            if (LockTable::is_locked(v1)) {
                // Commit-time locking: the owner is writing back right
                // now; wait briefly, then abort.
                if (spin > rt_.config_.read_lock_spins) {
                    abort_tx(tm::stat::kConflictAborts,
                             obs::AbortReason::kLockedConflict);
                }
                std::this_thread::yield();
                continue;
            }
            value = cell.value.load(std::memory_order_acquire);
            const uint64_t v2 = lock.load(std::memory_order_acquire);
            if (v1 != v2) continue; // raced with a writer; re-read

            if (LockTable::version_of(v1) > d_.snapshot) {
                // LSA snapshot extension. It validates only the read
                // set, which does not hold this stripe yet: a writer
                // that commits here between our read and the new
                // snapshot would leave `value` older than the snapshot
                // claims (a lost update once the commit-time validation
                // is skipped). So re-read under the extended snapshot.
                if (!extend_snapshot()) {
                    abort_tx(tm::stat::kStaleAborts,
                             obs::AbortReason::kSnapshotStale);
                }
                continue;
            }
            d_.read_set.push_back({&lock, LockTable::version_of(v1)});
            return value;
        }
    }

    void
    store(tm::TmCell& cell, tm::Word value) override
    {
        d_.redo.put(&cell, value);
    }

    [[noreturn]] void
    retry() override
    {
        abort_tx(tm::stat::kEagerAborts, obs::AbortReason::kExplicitRetry);
    }

  private:
    /// Slide the snapshot to the current clock if every read stripe is
    /// still at its recorded version and unlocked.
    bool
    extend_snapshot()
    {
        const uint64_t now = rt_.clock_.load(std::memory_order_acquire);
        for (const auto& entry : d_.read_set) {
            const uint64_t v = entry.lock->load(std::memory_order_acquire);
            if (LockTable::is_locked(v) ||
                LockTable::version_of(v) != entry.version) {
                return false;
            }
        }
        d_.snapshot = now;
        return true;
    }

    [[noreturn]] void
    abort_tx(const char* counter, obs::AbortReason reason)
    {
        d_.stats.bump(counter);
        d_.last_abort = reason;
        throw tm::TxAbortException{};
    }

    TinyStmLsa& rt_;
    Descriptor& d_;

    friend class TinyStmLsa;
};

TinyStmLsa::TinyStmLsa(const TinyStmConfig& config)
    : config_(config), locks_(config.stripes),
      descriptors_(config.max_threads)
{
}

TinyStmLsa::~TinyStmLsa() = default;

void
TinyStmLsa::thread_init(unsigned thread_id)
{
    ROCOCO_CHECK(thread_id < config_.max_threads);
    if (!descriptors_[thread_id]) {
        descriptors_[thread_id] = std::make_unique<Descriptor>(thread_id);
    }
    tls_thread_id = thread_id;
}

void
TinyStmLsa::thread_fini()
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

TinyStmLsa::Descriptor&
TinyStmLsa::descriptor()
{
    ROCOCO_CHECK(tls_thread_id != ~0u);
    return *descriptors_[tls_thread_id];
}

bool
TinyStmLsa::try_execute(const std::function<void(tm::Tx&)>& body)
{
    Descriptor& d = descriptor();
    d.reset(clock_.load(std::memory_order_acquire));
    TxImpl tx(*this, d);

    try {
        body(tx);
    } catch (const tm::TxAbortException&) {
        d.stats.bump(tm::stat::kAborts);
        return false;
    }

    if (d.redo.empty()) {
        d.stats.bump(tm::stat::kCommits);
        d.stats.bump(tm::stat::kReadOnlyCommits);
        return true;
    }

    // Commit phase: acquire write stripes in address order (deadlock
    // freedom), validate, write back, release with the new version.
    std::vector<std::atomic<uint64_t>*> write_locks;
    write_locks.reserve(d.redo.size());
    for (const auto& entry : d.redo.entries()) {
        write_locks.push_back(&locks_.lock_for(entry.cell));
    }
    std::sort(write_locks.begin(), write_locks.end());
    write_locks.erase(std::unique(write_locks.begin(), write_locks.end()),
                      write_locks.end());

    std::vector<uint64_t> saved_versions;
    saved_versions.reserve(write_locks.size());
    const uint64_t me = LockTable::make_locked(d.thread_id);
    for (size_t i = 0; i < write_locks.size(); ++i) {
        uint64_t expected = write_locks[i]->load(std::memory_order_relaxed);
        if (LockTable::is_locked(expected) ||
            LockTable::version_of(expected) > d.snapshot) {
            // Either another committer owns the stripe or our snapshot
            // is stale; check extension below only for version bumps.
            if (LockTable::is_locked(expected)) {
                release_locks(write_locks, saved_versions, i);
                d.stats.bump(tm::stat::kConflictAborts);
                d.stats.bump(tm::stat::kAborts);
                d.last_abort = obs::AbortReason::kLockedConflict;
                return false;
            }
        }
        if (!write_locks[i]->compare_exchange_strong(
                expected, me, std::memory_order_acq_rel)) {
            release_locks(write_locks, saved_versions, i);
            d.stats.bump(tm::stat::kConflictAborts);
            d.stats.bump(tm::stat::kAborts);
            d.last_abort = obs::AbortReason::kLockedConflict;
            return false;
        }
        saved_versions.push_back(LockTable::version_of(expected));
    }

    const uint64_t commit_ts =
        clock_.fetch_add(1, std::memory_order_acq_rel) + 1;

    if (commit_ts > d.snapshot + 1) {
        // Someone committed since our snapshot: re-validate the reads.
        for (const auto& entry : d.read_set) {
            const uint64_t v = entry.lock->load(std::memory_order_acquire);
            const bool mine = LockTable::is_locked(v) &&
                              LockTable::owner_of(v) == d.thread_id;
            if (mine) {
                // We hold this stripe's write lock: compare against the
                // version we saved when acquiring it — another
                // transaction may have committed to the stripe between
                // our read and our lock acquisition.
                const auto it = std::lower_bound(write_locks.begin(),
                                                 write_locks.end(),
                                                 entry.lock);
                ROCOCO_DCHECK(it != write_locks.end() &&
                              *it == entry.lock);
                const size_t idx =
                    static_cast<size_t>(it - write_locks.begin());
                if (saved_versions[idx] == entry.version) continue;
            } else if (!LockTable::is_locked(v) &&
                       LockTable::version_of(v) == entry.version) {
                continue;
            }
            release_locks(write_locks, saved_versions,
                          write_locks.size());
            d.stats.bump(tm::stat::kValidationAborts);
            d.stats.bump(tm::stat::kAborts);
            d.last_abort = obs::AbortReason::kConflict;
            return false;
        }
    }

    d.redo.apply();
    const uint64_t new_version = LockTable::make_version(commit_ts);
    for (auto* lock : write_locks) {
        lock->store(new_version, std::memory_order_release);
    }
    d.stats.bump(tm::stat::kCommits);
    return true;
}

void
TinyStmLsa::release_locks(const std::vector<std::atomic<uint64_t>*>& locks,
                          const std::vector<uint64_t>& versions,
                          size_t count)
{
    for (size_t i = 0; i < count; ++i) {
        locks[i]->store(LockTable::make_version(versions[i]),
                        std::memory_order_release);
    }
}

CounterBag
TinyStmLsa::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
}

obs::AbortReason
TinyStmLsa::last_abort_reason() const
{
    if (tls_thread_id == ~0u || !descriptors_[tls_thread_id]) {
        return obs::AbortReason::kUnknown;
    }
    return descriptors_[tls_thread_id]->last_abort;
}

} // namespace rococo::baselines
