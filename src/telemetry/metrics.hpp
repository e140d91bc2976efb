#pragma once
/// \file metrics.hpp
/// \brief Named counters / gauges / histograms for every greensph layer.
///
/// The paper's method lives or dies by visibility into the instrumentation
/// itself: how many times NVML application clocks were set, how often the
/// governor changed clocks, how many configurations a tuner sweep priced,
/// how many PMT reads a profiler issued.  Components register instruments
/// into a MetricsRegistry by dotted name ("nvml.set_app_clock.calls",
/// "governor.transitions", ...) and the registry renders one dump as JSON
/// (machine-readable, for CI and notebooks) or as a util::Table (for the
/// terminal).
///
/// Instruments are created on first use and live for the lifetime of the
/// registry; reset() zeroes every value but keeps the objects, so cached
/// references (hot paths cache them to skip the name lookup) stay valid
/// across runs.
///
/// Thread safety: the parallel execution engine (util::ThreadPool) runs
/// device work on worker threads, and every layer instruments into the
/// global registry from there.  Counter and Gauge are lock-free atomics,
/// Histogram serializes observations behind a mutex, and registry lookup /
/// rendering / reset take the registry mutex.  Histogram::stat() returns an
/// unsynchronized reference for the common read-at-quiescence pattern; use
/// snapshot() when observers may still be running.

#include "checkpoint/state.hpp"
#include "telemetry/digest.hpp"
#include "telemetry/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace gsph::telemetry {

/// Monotonically increasing count (resets only via MetricsRegistry::reset).
/// inc() is lock-free and safe from any thread.
class Counter {
public:
    void inc(double delta = 1.0) { value_.fetch_add(delta, std::memory_order_relaxed); }
    double value() const { return value_.load(std::memory_order_relaxed); }
    const std::string& name() const { return name_; }

private:
    friend class MetricsRegistry;
    explicit Counter(std::string name) : name_(std::move(name)) {}
    std::string name_;
    std::atomic<double> value_{0.0};
};

/// Last-written value (clock caps, learned tables, convergence state).
class Gauge {
public:
    void set(double value) { value_.store(value, std::memory_order_relaxed); }
    double value() const { return value_.load(std::memory_order_relaxed); }
    const std::string& name() const { return name_; }

private:
    friend class MetricsRegistry;
    explicit Gauge(std::string name) : name_(std::move(name)) {}
    std::string name_;
    std::atomic<double> value_{0.0};
};

/// Streaming distribution (count/mean/min/max/stddev/sum via Welford).
/// observe() serializes behind a mutex; note that under concurrent
/// observers the accumulation order (and thus the exact floating-point
/// mean/stddev) depends on scheduling.
class Histogram {
public:
    void observe(double value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stat_.add(value);
    }
    /// Unsynchronized view; only valid once concurrent observers quiesced
    /// (e.g. after a ThreadPool::parallel_for returned).
    const util::RunningStat& stat() const { return stat_; }
    /// Locked copy, safe while observers are still running.
    util::RunningStat snapshot() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stat_;
    }
    const std::string& name() const { return name_; }

private:
    friend class MetricsRegistry;
    explicit Histogram(std::string name) : name_(std::move(name)) {}
    std::string name_;
    util::RunningStat stat_;
    mutable std::mutex mutex_;
};

/// Streaming quantile distribution (LogHistogram): p50/p95/p99 with bounded
/// relative error for signals whose tails matter (kernel duration, power,
/// energy-per-step).  Replaces sorted-full-copy percentile reads where a
/// consumer needs quantiles of an unbounded stream.  observe() serializes
/// behind a mutex, like Histogram.
class Digest {
public:
    void observe(double value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        hist_.observe(value);
    }
    double quantile(double q) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hist_.quantile(q);
    }
    /// Locked copy, safe while observers are still running.
    LogHistogram snapshot() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hist_;
    }
    const std::string& name() const { return name_; }

private:
    friend class MetricsRegistry;
    explicit Digest(std::string name) : name_(std::move(name)) {}
    std::string name_;
    LogHistogram hist_;
    mutable std::mutex mutex_;
};

/// Point-in-time copy of every instrument, independent of the registry.
/// The checkpoint subsystem persists one of these across a kill/resume so
/// counters accumulated before the kill survive into the resumed process.
/// Histograms carry the raw Welford accumulator (not just derived stats) so
/// restore + further observations is bit-identical to never having stopped.
struct MetricsSnapshot {
    struct HistogramState {
        std::size_t n = 0;
        double mean = 0.0;
        double m2 = 0.0;
        double min = 0.0;
        double max = 0.0;
        double sum = 0.0;
    };
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramState> histograms;
    std::map<std::string, LogHistogram::State> digests;
};

class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// The process-wide registry every layer instruments into.
    static MetricsRegistry& global();

    /// Look up or create.  A name identifies exactly one instrument kind;
    /// re-requesting it as a different kind throws std::invalid_argument.
    /// Returned references stay valid for the registry's lifetime and may
    /// be cached and used from any thread.
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);
    Digest& digest(const std::string& name);

    bool has(const std::string& name) const;
    /// Counter/gauge value or histogram/digest count; 0 for unknown names.
    double value(const std::string& name) const;

    /// Zero every instrument, keeping registrations (and references) alive.
    void reset();

    /// Copy out / overwrite every instrument's value.  restore() creates
    /// instruments that do not exist yet and overwrites (never adds to)
    /// existing ones; instruments absent from the snapshot are left alone.
    MetricsSnapshot snapshot() const;
    void restore(const MetricsSnapshot& snap);

    /// Checkpoint section: the snapshot() of every instrument, by kind, in
    /// name order.  restore_state() restore()s it, so instruments the
    /// section does not name keep their values.
    void save_state(checkpoint::StateWriter& writer) const;
    void restore_state(const checkpoint::StateReader& reader);

    std::size_t size() const;

    /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
    /// mean, min, max, stddev, sum}}, "digests": {name: {count, mean, min,
    /// max, sum, p50, p95, p99}}} — names sorted (std::map order).  The
    /// "digests" key is present only when at least one digest exists, so
    /// runs without the live observability plane keep the legacy document.
    Json to_json() const;

    /// Terminal rendering: one row per instrument.
    util::Table to_table() const;

private:
    struct Instrument {
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
        std::unique_ptr<Digest> digest;
    };
    mutable std::mutex mutex_; ///< guards the instruments_ map itself
    std::map<std::string, Instrument> instruments_;
};

} // namespace gsph::telemetry
