#pragma once
/// \file spans.hpp
/// \brief The benchmark's own span recorder: spans around every library call
/// the harness makes, kept in memory and written as Chrome-trace JSON at
/// exit.
///
/// A span has a name, a start, a duration, the span that was open on the
/// same thread when it began (its parent), and the op it belongs to; every
/// span of one op shares that op id (0 = set-up).  Calls too frequent to
/// record one by one (sim::run_instrumented's RunHooks fire per rank and function) are
/// summed by a HookTimer and entered as one *aggregate* span per op, with a
/// call count.  A layer's self time is its span duration minus the
/// durations of its children, so self times telescope to the op's wall time
/// when every child lies inside its parent.
///
/// Recording is off unless enable(true) was called; a disabled SpanLog
/// costs one branch per Scope.

#include "sim/driver.hpp"
#include "telemetry/json.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gsph::bench {

inline std::int64_t now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class SpanLog {
public:
    struct Span {
        std::string name;
        long op = 0;
        int parent = -1;
        int tid = 0;
        std::int64_t start_ns = 0;
        std::int64_t dur_ns = -1; ///< -1 while open
        long calls = 1;
        bool aggregate = false;
    };

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /// Drop every recorded span (between independent runs in one process).
    void reset()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.clear();
        last_op_ = 0;
    }

    /// Begin an op on the calling thread; spans opened until end_op() carry
    /// its id.  Returns the id (0 when disabled).
    long begin_op()
    {
        if (!enabled_) return 0;
        std::lock_guard<std::mutex> lock(mutex_);
        local().op = ++last_op_;
        return local().op;
    }
    void end_op() { local().op = 0; }

    int open(std::string_view name)
    {
        if (!enabled_) return -1;
        Local& t = local();
        const std::int64_t start = now_ns();
        std::lock_guard<std::mutex> lock(mutex_);
        if (t.tid == 0) t.tid = ++last_tid_;
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({std::string(name), t.op, t.stack.empty() ? -1 : t.stack.back(),
                          t.tid, start, -1, 1, false});
        t.stack.push_back(id);
        return id;
    }

    void close(int id)
    {
        if (id < 0) return;
        const std::int64_t end = now_ns();
        Local& t = local();
        std::lock_guard<std::mutex> lock(mutex_);
        Span& s = spans_[static_cast<std::size_t>(id)];
        s.dur_ns = end - s.start_ns;
        if (!t.stack.empty() && t.stack.back() == id) t.stack.pop_back();
    }

    /// Enter `total_ns` spent in `calls` calls under `parent` (a span id from
    /// open() or a previous aggregate).  Returns the new span's id.
    int aggregate(const std::string& name, int parent, std::int64_t total_ns, long calls)
    {
        if (!enabled_ || parent < 0) return -1;
        std::lock_guard<std::mutex> lock(mutex_);
        const Span& p = spans_[static_cast<std::size_t>(parent)];
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({name, p.op, parent, p.tid, p.start_ns, total_ns, calls, true});
        return id;
    }

    std::vector<Span> spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

private:
    struct Local {
        long op = 0;
        int tid = 0;
        std::vector<int> stack;
    };
    static Local& local()
    {
        thread_local Local state;
        return state;
    }

    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    long last_op_ = 0;
    int last_tid_ = 0;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
public:
    Scope(SpanLog& log, std::string_view name) : log_(log), id_(log.open(name)) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

private:
    SpanLog& log_;
    int id_;
};

/// Sums the time spent inside a RunHooks chain.  wrap() must be called
/// right after an observer's or policy's attach(): the wrapped chain then
/// contains the observer plus everything attached before it, and the
/// difference between two successive timers is that observer's self time.
/// Hooks fire on the driving thread only (run_instrumented's contract), so the
/// totals need no synchronisation.  The wrapped hooks hold the timer's
/// address, so it must outlive them and is not copyable.
struct HookTimer {
    explicit HookTimer(std::string timer_name) : name(std::move(timer_name)) {}
    HookTimer(const HookTimer&) = delete;
    HookTimer& operator=(const HookTimer&) = delete;

    std::string name;
    std::int64_t ns = 0;
    long calls = 0;

    void wrap(sim::RunHooks& hooks)
    {
        if (auto inner = std::move(hooks.before_function)) {
            hooks.before_function = [this, inner](int rank, gpusim::GpuDevice& dev,
                                                  sph::SphFunction fn) {
                const std::int64_t t0 = now_ns();
                inner(rank, dev, fn);
                ns += now_ns() - t0;
                ++calls;
            };
        }
        if (auto inner = std::move(hooks.after_function)) {
            hooks.after_function = [this, inner](int rank, gpusim::GpuDevice& dev,
                                                 sph::SphFunction fn,
                                                 const gpusim::KernelResult& res) {
                const std::int64_t t0 = now_ns();
                inner(rank, dev, fn, res);
                ns += now_ns() - t0;
                ++calls;
            };
        }
        if (auto inner = std::move(hooks.after_step)) {
            hooks.after_step = [this, inner](int step) {
                const std::int64_t t0 = now_ns();
                inner(step);
                ns += now_ns() - t0;
                ++calls;
            };
        }
    }
};

/// Enter a chain of timers (outermost first, as wrapped last-to-first) as
/// nested aggregate spans under `parent`.
inline void add_hook_spans(SpanLog& log, int parent, const std::vector<HookTimer*>& chain)
{
    for (const HookTimer* t : chain) {
        if (t->calls == 0) continue;
        parent = log.aggregate(t->name, parent, t->ns, t->calls);
    }
}

/// Self time of every span: duration minus its children's durations.
inline std::vector<std::int64_t> self_times(const std::vector<SpanLog::Span>& spans)
{
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur_ns;
    for (const auto& s : spans) {
        if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur_ns;
    }
    return self;
}

/// Chrome trace-event JSON (loadable by Perfetto): one complete ("X") event
/// per span on its thread's track.  Aggregates go to a track of their own
/// per name, starting at their parent's start, since their calls are spread
/// over the parent's interval.
inline telemetry::Json chrome_trace(const std::vector<SpanLog::Span>& spans,
                                    const std::string& process_name)
{
    telemetry::Json events = telemetry::Json::array();
    std::map<std::string, int> aggregate_tids;
    std::map<int, std::string> track_names;
    std::int64_t origin = 0;
    for (const auto& s : spans) {
        if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        if (s.dur_ns < 0) continue;
        int tid = s.tid;
        if (s.aggregate) {
            auto [it, inserted] = aggregate_tids.emplace(
                s.name, 1000 + static_cast<int>(aggregate_tids.size()));
            tid = it->second;
            if (inserted) track_names[tid] = "sum of calls: " + s.name;
        }
        else if (!track_names.count(tid)) {
            track_names[tid] = "thread " + std::to_string(tid);
        }
        telemetry::Json e = telemetry::Json::object();
        e["name"] = s.name;
        e["ph"] = "X";
        e["pid"] = 1;
        e["tid"] = tid;
        e["ts"] = static_cast<double>(s.start_ns - origin) / 1e3;
        e["dur"] = static_cast<double>(s.dur_ns) / 1e3;
        telemetry::Json args = telemetry::Json::object();
        args["span"] = i;
        args["parent"] = s.parent;
        args["op"] = s.op;
        if (s.aggregate) args["calls"] = s.calls;
        e["args"] = std::move(args);
        events.push_back(std::move(e));
    }
    auto meta = [&](const char* name, int tid, const std::string& value) {
        telemetry::Json m = telemetry::Json::object();
        m["name"] = name;
        m["ph"] = "M";
        m["pid"] = 1;
        m["tid"] = tid;
        telemetry::Json args = telemetry::Json::object();
        args["name"] = value;
        m["args"] = std::move(args);
        events.push_back(std::move(m));
    };
    meta("process_name", 0, process_name);
    for (const auto& [tid, name] : track_names) meta("thread_name", tid, name);
    return events;
}

} // namespace gsph::bench
