/// @file
/// Abstract validation backend: the seam between the TM runtime and
/// whatever actually runs the ROCoCo reachability check. Three
/// implementations exist:
///
///   * shard::ShardRouter — runs the engine on the calling thread under
///     a per-shard lock (one engine by default). RococoTm's in-process
///     backend: the single-address-space deployment of the paper,
///     Fig. 6 (b), without a handoff to another thread;
///   * svc::ValidationClient — a socket client of the networked
///     validation service (src/svc), where one server-owned engine and
///     sliding window are shared by many client processes, the way one
///     FPGA serves a whole socket's worth of executors over CCI;
///   * fpga::ValidationPipeline — a worker thread that owns a
///     ValidationEngine and drains a pull queue: the device model of
///     the hardware pipeline, measured by bench/micro_validate, not a
///     serving path.
///
/// RococoTm selects the router or the client from its config;
/// everything above this interface is identical either way.
#pragma once

#include <chrono>
#include <future>
#include <memory>

#include "common/stats.h"
#include "fpga/detector.h"
#include "obs/registry.h"

namespace rococo::fpga {

class ValidationBackend
{
  public:
    virtual ~ValidationBackend() = default;

    /// Enqueue a request; the future resolves when a verdict exists —
    /// including shutdown/backpressure verdicts, never a broken
    /// promise.
    virtual std::future<core::ValidationResult> submit(
        OffloadRequest request) = 0;

    /// submit() + wait.
    virtual core::ValidationResult validate(OffloadRequest request) = 0;

    /// submit() + wait at most @p timeout; on expiry returns a
    /// Verdict::kTimeout result with obs::AbortReason::kTimeout (the
    /// late verdict, if any, is discarded).
    virtual core::ValidationResult validate(
        OffloadRequest request, std::chrono::nanoseconds timeout) = 0;

    /// Backend-side counters (verdicts, submissions, queue/backlog
    /// occupancy — see the concrete class for the exact keys).
    virtual CounterBag stats() const = 0;

    /// Export backend metrics into @p registry.
    virtual void export_metrics(obs::Registry& registry) const = 0;

    /// Signature geometry shared with CPU-side eager detection. For the
    /// service client this is derived from the same EngineConfig the
    /// server was started with — the two must agree.
    virtual std::shared_ptr<const sig::SignatureConfig> signature_config()
        const = 0;

    /// Stop the backend; outstanding futures resolve (with real or
    /// aborted verdicts). Idempotent.
    virtual void stop() = 0;
};

} // namespace rococo::fpga
