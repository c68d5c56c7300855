/// @file
/// Folds quiescent snapshots of the program's tracer rings into the
/// per-layer ledger: the benchmark's own kv.<op> span around each KV
/// call, the TM's tx.* spans nested inside it, and the self times that
/// follow (a span's duration minus the part its child spans cover).
#pragma once

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "obs/trace_event.h"

namespace perfbench {

enum OpKind
{
    kGet,
    kScan,
    kPut,
    kRmw,
    kOpKinds,
};

/// Span names the benchmark records around each KvInterface call.
inline constexpr const char* kOpSpan[kOpKinds] = {"kv.get", "kv.scan",
                                                  "kv.put", "kv.rmw"};
inline constexpr const char* kOpName[kOpKinds] = {"get", "scan", "put",
                                                  "rmw"};

/// get + scan are read-only transactions (committed on the CPU, never
/// shipped); put + rmw are validated ones.
enum OpClass
{
    kRead,
    kWrite,
    kClasses,
};
inline constexpr const char* kClassName[kClasses] = {"read", "write"};

inline OpClass
class_of(OpKind kind)
{
    return kind == kGet || kind == kScan ? kRead : kWrite;
}

/// Per op class: sums over all traced calls, in ns (counts as counts).
struct ClassLedger
{
    uint64_t ops = 0;
    uint64_t attempts = 0;
    uint64_t validations = 0; ///< tx.validate spans (one per shipped attempt)
    double span = 0;          ///< kv.<op> span
    double kv_self = 0;       ///< span minus its tx.attempt children
    double execute = 0;       ///< tx.execute
    double ship = 0;          ///< tx.ship
    double validate = 0;      ///< tx.validate (the wait for the verdict)
    double commit_lock = 0;   ///< tx.commit_lock
    double writeback = 0;     ///< tx.writeback
    double commit_other = 0;  ///< tx.commit minus lock and write-back
    double attempt_other = 0; ///< tx.attempt minus its four children
};

class TraceFold
{
  public:
    /// Fold one snapshot (every ring quiescent). Events of one thread
    /// nest by time: a kv.<op> span holds tx.attempt spans, which hold
    /// tx.execute / ship / validate / commit, and tx.commit holds
    /// tx.commit_lock and tx.writeback.
    void fold(std::vector<obs::TraceEvent> events);

    ClassLedger cls[kClasses];
    /// Pooled per-event distributions, in ns.
    LogHist kv_self, execute, attempt_other, validate, commit_lock,
        writeback;
    /// tm spans found outside the span that should contain them; any
    /// means the nesting (and so the ledger) is broken.
    uint64_t orphans = 0;
};

} // namespace perfbench
