#include "ledger.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

namespace {

struct Interval
{
    bool open = false;
    uint64_t begin = 0;
    uint64_t end = 0;
    uint64_t dur = 0;
    uint64_t children = 0; ///< summed duration of direct children

    bool
    holds(const obs::TraceEvent& e) const
    {
        return open && e.ts_ns >= begin && e.ts_ns + e.dur_ns <= end;
    }
    void
    start(const obs::TraceEvent& e)
    {
        *this = {true, e.ts_ns, e.ts_ns + e.dur_ns, e.dur_ns, 0};
    }
};

bool
is(const obs::TraceEvent& e, const char* name)
{
    return e.name != nullptr && std::strcmp(e.name, name) == 0;
}

/// One client thread's stream, folded op by op.
class ThreadFold
{
  public:
    explicit ThreadFold(TraceFold& out) : out_(out) {}
    ~ThreadFold() { finish_op(); }

    void
    event(const obs::TraceEvent& e)
    {
        if (e.phase != obs::EventPhase::kComplete || e.name == nullptr) {
            return;
        }
        if (e.cat != nullptr && std::strcmp(e.cat, "kv") == 0) {
            finish_op();
            for (int k = 0; k < kOpKinds; ++k) {
                if (is(e, kOpSpan[k])) kind_ = OpKind(k);
            }
            op_.start(e);
            cur_ = {};
            return;
        }
        if (is(e, "tx.attempt")) {
            finish_attempt();
            if (!op_.holds(e)) return orphan();
            attempt_.start(e);
            op_.children += e.dur_ns;
            ++cur_.attempts;
            return;
        }
        const bool execute = is(e, "tx.execute");
        const bool ship = is(e, "tx.ship");
        const bool validate = is(e, "tx.validate");
        const bool commit = is(e, "tx.commit");
        if (execute || ship || validate || commit) {
            if (!attempt_.holds(e)) return orphan();
            attempt_.children += e.dur_ns;
            const double d = double(e.dur_ns);
            if (execute) {
                cur_.execute += d;
                out_.execute.record(e.dur_ns);
            } else if (ship) {
                cur_.ship += d;
            } else if (validate) {
                cur_.validate += d;
                ++cur_.validations;
                out_.validate.record(e.dur_ns);
            } else {
                finish_commit();
                commit_.start(e);
            }
            return;
        }
        const bool lock = is(e, "tx.commit_lock");
        if (lock || is(e, "tx.writeback")) {
            if (!commit_.holds(e)) return orphan();
            commit_.children += e.dur_ns;
            if (lock) {
                cur_.commit_lock += double(e.dur_ns);
                out_.commit_lock.record(e.dur_ns);
            } else {
                cur_.writeback += double(e.dur_ns);
                out_.writeback.record(e.dur_ns);
            }
        }
        // Anything else (svc.rpc, flow and counter events, backend
        // threads' spans) is measured through the stage histograms.
    }

  private:
    void orphan() { ++out_.orphans; }

    void
    finish_commit()
    {
        if (!commit_.open) return;
        cur_.commit_other += double(commit_.dur - commit_.children);
        commit_.open = false;
    }

    void
    finish_attempt()
    {
        finish_commit();
        if (!attempt_.open) return;
        const uint64_t other = attempt_.dur - attempt_.children;
        cur_.attempt_other += double(other);
        out_.attempt_other.record(other);
        attempt_.open = false;
    }

    void
    finish_op()
    {
        finish_attempt();
        if (!op_.open) return;
        const uint64_t self = op_.dur - op_.children;
        out_.kv_self.record(self);
        ClassLedger& c = out_.cls[class_of(kind_)];
        ++c.ops;
        c.attempts += cur_.attempts;
        c.validations += cur_.validations;
        c.span += double(op_.dur);
        c.kv_self += double(self);
        c.execute += cur_.execute;
        c.ship += cur_.ship;
        c.validate += cur_.validate;
        c.commit_lock += cur_.commit_lock;
        c.writeback += cur_.writeback;
        c.commit_other += cur_.commit_other;
        c.attempt_other += cur_.attempt_other;
        op_.open = false;
    }

    TraceFold& out_;
    OpKind kind_ = kGet;
    Interval op_, attempt_, commit_;
    ClassLedger cur_; ///< the open op's sums
};

} // namespace

void
TraceFold::fold(std::vector<obs::TraceEvent> events)
{
    // Parents first on a shared start timestamp: longer span first.
    std::sort(events.begin(), events.end(),
              [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                  if (a.tid != b.tid) return a.tid < b.tid;
                  if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                  return a.dur_ns > b.dur_ns;
              });
    size_t i = 0;
    while (i < events.size()) {
        const uint32_t tid = events[i].tid;
        ThreadFold thread(*this);
        for (; i < events.size() && events[i].tid == tid; ++i) {
            thread.event(events[i]);
        }
    }
}

} // namespace perfbench
