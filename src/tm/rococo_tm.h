/// @file
/// ROCoCoTM: the hybrid TM of §5 — eager CPU-side conflict detection on
/// bloom-filter signatures (Algorithm 1), lazy version management
/// (redo log + commit-time write-back), commit-time locking via the
/// update set, and validation offloaded to the (software-modelled) FPGA
/// engine.
///
/// Lifecycle of a writing transaction (Fig. 6 (a)/(b)):
///   Executor (CPU): run the body; every load maintains the lazy
///     snapshot (LocalTS/ValidTS/MissSet) against the commit log and
///     aborts early on inconsistency — "fast path for true conflicts
///     without any atomic operation".
///   Detector+Manager (FPGA): the read/write address sets and ValidTS
///     are shipped to the validation backend, which classifies
///     dependencies and runs the ROCoCo reachability check. In process
///     the engine runs on the committing thread itself, under a
///     per-shard lock (shard::ShardRouter): no queue, no validator
///     thread, no wake-up. fpga::ValidationPipeline, the worker-thread
///     model of the hardware pull queue, is the device model the
///     micro benchmarks measure, not a serving path.
///   Committer (CPU): on approval, publishes the write signature to the
///     update set, waits its cid turn, applies the redo log, appends
///     its signature to the commit log and advances GlobalTS.
///
/// Read-only transactions commit directly on the CPU (§5.3).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fpga/validation_backend.h"
#include "fpga/validation_engine.h"
#include "obs/health.h"
#include "tm/commit_log.h"
#include "tm/execution_gate.h"
#include "tm/tm.h"
#include "tm/tx_descriptor.h"
#include "tm/update_set.h"

namespace rococo::shard {
class ShardRouter;
} // namespace rococo::shard

namespace rococo::tm {

struct RococoTmConfig
{
    fpga::EngineConfig engine;
    size_t commit_log_capacity = 1 << 14;
    unsigned max_threads = 64;
    /// Starvation escape hatch (§4.2: "to ensure long transactions can
    /// eventually commit, irrevocability may be required"): after this
    /// many consecutive aborts a transaction runs irrevocably —
    /// exclusively, with every other transaction drained — and is
    /// guaranteed to commit. 0 disables irrevocability.
    unsigned irrevocable_after = 64;
    /// Unix-socket path of a svc::Server to validate against. Empty
    /// (the default) keeps validation in-process: the runtime owns a
    /// shard::ShardRouter and runs the engine on the committing
    /// thread, the single-address-space deployment of Fig. 6 (b).
    /// Non-empty swaps in a svc::ValidationClient, sharing
    /// the server's sliding window with every other client process —
    /// the engine geometry below must match the server's, and the
    /// server must be reachable when the runtime is constructed
    /// (ROCOCO_CHECK aborts otherwise: a disconnected backend would
    /// reject every validation and retry silently forever).
    std::string validation_service;
    /// Number of validation engines of the in-process shard::ShardRouter.
    /// 1 (the default) is one engine behind one lock; > 1
    /// hash-partitions the address space across that many engines with
    /// cross-shard two-phase coordination (src/shard/router.h). Either
    /// way the engine runs on the committing thread. Ignored when
    /// validation_service is set — the service server owns the shard
    /// count there (svc::ServerConfig::shards).
    uint32_t validation_shards = 1;
    /// Per-validation deadline in ns; 0 waits indefinitely. On expiry
    /// the attempt aborts with obs::AbortReason::kTimeout and retries —
    /// the verdict the backend eventually produces is discarded, which
    /// is safe precisely because the attempt aborts (never
    /// half-commits).
    uint64_t validation_timeout_ns = 0;
    /// Continuous monitoring (obs/health.h). Opt-in here (the default
    /// below overrides MonitorConfig's service-side default of on): an
    /// embedding application owns the choice. When enabled, the
    /// sampler tracks tm.commit_rate (commits/s) and tm.abort_rate
    /// (aborts per attempt, live across the per-thread descriptor
    /// registries) off a per-attempt tick, and the abort-rate SLO rule
    /// grades it. The runtime writes no incident files: that is the
    /// validation service's flight recorder (svc::ServerConfig).
    obs::MonitorConfig monitor{.enabled = false};
};

class RococoTm final : public TmRuntime
{
  public:
    explicit RococoTm(const RococoTmConfig& config = {});
    ~RococoTm() override;

    std::string name() const override { return "ROCoCoTM"; }

    void thread_init(unsigned thread_id) override;
    void thread_fini() override;

    CounterBag stats() const override;

    /// Typed cause of the calling thread's most recent abort.
    obs::AbortReason last_abort_reason() const override;

    /// Abort provenance: the committed cid the calling thread's most
    /// recent abort collided with, or core::kNoConflictCid. Meaningful
    /// under the same contract as last_abort_reason().
    uint64_t last_conflict_cid() const;

    /// The runtime's health monitor, or nullptr when
    /// RococoTmConfig::monitor.enabled is false (series inspection,
    /// tests).
    obs::HealthMonitor* health_monitor() { return monitor_.get(); }

    /// Validation-backend verdict counters (the dotted line of
    /// Fig. 10); router- or client-side depending on config.
    CounterBag fpga_stats() const { return backend_->stats(); }

    /// Full metrics registry behind stats() (per-thread registries
    /// merged at thread_fini).
    const obs::Registry& registry() const { return registry_; }

  protected:
    bool try_execute(const std::function<void(Tx&)>& body) override;

  private:
    class TxImpl;

    TxDescriptor& descriptor();

    /// One attempt through the normal path; assumes the caller holds
    /// the execution gate (shared or exclusive).
    bool attempt(const std::function<void(Tx&)>& body, TxDescriptor& d);

    /// Ship @p request to the backend and wait for the verdict. In
    /// process, while a TelemetrySession is active, splits the wait
    /// into fpga.stage.queue (shard-lock wait) and fpga.stage.engine
    /// (time under the lock).
    core::ValidationResult validate(fpga::OffloadRequest request);

    RococoTmConfig config_;
    std::unique_ptr<fpga::ValidationBackend> backend_;
    /// backend_ as the in-process router, or nullptr for the service
    /// client.
    shard::ShardRouter* router_ = nullptr;
    std::shared_ptr<const sig::SignatureConfig> sig_config_;
    CommitLog commit_log_;
    UpdateSet update_set_;

    /// Execution gate: normal transactions pass it shared; an
    /// irrevocable transaction holds it exclusively, so it runs alone
    /// and its validation cannot fail.
    ExecutionGate gate_;

    /// In-process ledger histograms in the global registry, hoisted so
    /// the commit path never takes the registry mutex.
    obs::LatencyHistogram* stage_queue_ = nullptr;
    obs::LatencyHistogram* stage_engine_ = nullptr;

    obs::Registry registry_; ///< merged per-thread metrics (thread-safe)
    /// Guards descriptor creation vs. the monitor's series callbacks,
    /// which walk descriptors_ mid-run to fold in live per-thread
    /// counters.
    mutable std::mutex descriptor_mutex_;
    std::vector<std::unique_ptr<TxDescriptor>> descriptors_;

    /// Present iff config_.monitor.enabled; ticked per attempt by
    /// whichever worker starts one (try_lock inside keeps them from
    /// contending). Its series callbacks sum the merged registry plus
    /// the live per-thread descriptor registries (under
    /// descriptor_mutex_).
    std::unique_ptr<obs::HealthMonitor> monitor_;
};

} // namespace rococo::tm
