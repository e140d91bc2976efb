#include "telemetry/metrics.hpp"

#include "util/strings.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace gsph::telemetry {

MetricsRegistry& MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

Counter& MetricsRegistry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Instrument& slot = instruments_[name];
    if (slot.gauge || slot.histogram || slot.digest) {
        throw std::invalid_argument("metrics: '" + name + "' is not a counter");
    }
    if (!slot.counter) slot.counter.reset(new Counter(name));
    return *slot.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Instrument& slot = instruments_[name];
    if (slot.counter || slot.histogram || slot.digest) {
        throw std::invalid_argument("metrics: '" + name + "' is not a gauge");
    }
    if (!slot.gauge) slot.gauge.reset(new Gauge(name));
    return *slot.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Instrument& slot = instruments_[name];
    if (slot.counter || slot.gauge || slot.digest) {
        throw std::invalid_argument("metrics: '" + name + "' is not a histogram");
    }
    if (!slot.histogram) slot.histogram.reset(new Histogram(name));
    return *slot.histogram;
}

Digest& MetricsRegistry::digest(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Instrument& slot = instruments_[name];
    if (slot.counter || slot.gauge || slot.histogram) {
        throw std::invalid_argument("metrics: '" + name + "' is not a digest");
    }
    if (!slot.digest) slot.digest.reset(new Digest(name));
    return *slot.digest;
}

bool MetricsRegistry::has(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return instruments_.find(name) != instruments_.end();
}

double MetricsRegistry::value(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = instruments_.find(name);
    if (it == instruments_.end()) return 0.0;
    if (it->second.counter) return it->second.counter->value();
    if (it->second.gauge) return it->second.gauge->value();
    if (it->second.histogram) {
        return static_cast<double>(it->second.histogram->snapshot().count());
    }
    if (it->second.digest) {
        return static_cast<double>(it->second.digest->snapshot().count());
    }
    return 0.0;
}

void MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, slot] : instruments_) {
        (void)name;
        if (slot.counter) slot.counter->value_.store(0.0, std::memory_order_relaxed);
        if (slot.gauge) slot.gauge->value_.store(0.0, std::memory_order_relaxed);
        if (slot.histogram) {
            std::lock_guard<std::mutex> hist_lock(slot.histogram->mutex_);
            slot.histogram->stat_.reset();
        }
        if (slot.digest) {
            std::lock_guard<std::mutex> digest_lock(slot.digest->mutex_);
            slot.digest->hist_.reset();
        }
    }
}

MetricsSnapshot MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    for (const auto& [name, slot] : instruments_) {
        if (slot.counter) {
            snap.counters[name] = slot.counter->value();
        }
        else if (slot.gauge) {
            snap.gauges[name] = slot.gauge->value();
        }
        else if (slot.histogram) {
            std::lock_guard<std::mutex> hist_lock(slot.histogram->mutex_);
            const util::RunningStat& s = slot.histogram->stat_;
            snap.histograms[name] = {s.count(),   s.raw_mean(), s.raw_m2(),
                                     s.raw_min(), s.raw_max(),  s.sum()};
        }
        else if (slot.digest) {
            std::lock_guard<std::mutex> digest_lock(slot.digest->mutex_);
            snap.digests[name] = slot.digest->hist_.state();
        }
    }
    return snap;
}

void MetricsRegistry::restore(const MetricsSnapshot& snap)
{
    for (const auto& [name, value] : snap.counters) {
        counter(name).value_.store(value, std::memory_order_relaxed);
    }
    for (const auto& [name, value] : snap.gauges) {
        gauge(name).value_.store(value, std::memory_order_relaxed);
    }
    for (const auto& [name, state] : snap.histograms) {
        Histogram& hist = histogram(name);
        std::lock_guard<std::mutex> hist_lock(hist.mutex_);
        hist.stat_.restore(state.n, state.mean, state.m2, state.min, state.max,
                           state.sum);
    }
    for (const auto& [name, state] : snap.digests) {
        Digest& dig = digest(name);
        std::lock_guard<std::mutex> digest_lock(dig.mutex_);
        dig.hist_.restore(state);
    }
}

void MetricsRegistry::save_state(checkpoint::StateWriter& w) const
{
    const MetricsSnapshot snap = snapshot();
    w.put_u64("counters", snap.counters.size());
    std::size_t i = 0;
    for (const auto& [name, value] : snap.counters) {
        const std::string prefix = "counter." + std::to_string(i++) + ".";
        w.put_str(prefix + "name", name);
        w.put_f64(prefix + "value", value);
    }
    w.put_u64("gauges", snap.gauges.size());
    i = 0;
    for (const auto& [name, value] : snap.gauges) {
        const std::string prefix = "gauge." + std::to_string(i++) + ".";
        w.put_str(prefix + "name", name);
        w.put_f64(prefix + "value", value);
    }
    w.put_u64("histograms", snap.histograms.size());
    i = 0;
    for (const auto& [name, h] : snap.histograms) {
        const std::string prefix = "hist." + std::to_string(i++) + ".";
        w.put_str(prefix + "name", name);
        w.put_u64(prefix + "n", h.n);
        w.put_f64(prefix + "mean", h.mean);
        w.put_f64(prefix + "m2", h.m2);
        w.put_f64(prefix + "min", h.min);
        w.put_f64(prefix + "max", h.max);
        w.put_f64(prefix + "sum", h.sum);
    }
    w.put_u64("digests", snap.digests.size());
    i = 0;
    for (const auto& [name, d] : snap.digests) {
        const std::string prefix = "digest." + std::to_string(i++) + ".";
        w.put_str(prefix + "name", name);
        w.put_u64(prefix + "count", d.count);
        w.put_f64(prefix + "min", d.min);
        w.put_f64(prefix + "max", d.max);
        w.put_f64(prefix + "sum", d.sum);
        w.put_f64(prefix + "sum_c", d.sum_compensation);
        w.put_u64(prefix + "low_count", d.low_count);
        // Bucket indexes are signed; the u64 bit pattern round-trips.
        std::vector<std::uint64_t> idx;
        idx.reserve(d.bucket_index.size());
        for (const std::int64_t b : d.bucket_index) {
            idx.push_back(static_cast<std::uint64_t>(b));
        }
        w.put_u64_vec(prefix + "bucket_index", idx);
        w.put_u64_vec(prefix + "bucket_count", d.bucket_count);
    }
}

void MetricsRegistry::restore_state(const checkpoint::StateReader& r)
{
    MetricsSnapshot snap;
    const std::uint64_t n_counters = r.get_u64("counters");
    for (std::uint64_t i = 0; i < n_counters; ++i) {
        const std::string prefix = "counter." + std::to_string(i) + ".";
        snap.counters[r.get_str(prefix + "name")] = r.get_f64(prefix + "value");
    }
    const std::uint64_t n_gauges = r.get_u64("gauges");
    for (std::uint64_t i = 0; i < n_gauges; ++i) {
        const std::string prefix = "gauge." + std::to_string(i) + ".";
        snap.gauges[r.get_str(prefix + "name")] = r.get_f64(prefix + "value");
    }
    const std::uint64_t n_hists = r.get_u64("histograms");
    for (std::uint64_t i = 0; i < n_hists; ++i) {
        const std::string prefix = "hist." + std::to_string(i) + ".";
        MetricsSnapshot::HistogramState h;
        h.n = static_cast<std::size_t>(r.get_u64(prefix + "n"));
        h.mean = r.get_f64(prefix + "mean");
        h.m2 = r.get_f64(prefix + "m2");
        h.min = r.get_f64(prefix + "min");
        h.max = r.get_f64(prefix + "max");
        h.sum = r.get_f64(prefix + "sum");
        snap.histograms[r.get_str(prefix + "name")] = h;
    }
    const std::uint64_t n_digests = r.get_u64("digests");
    for (std::uint64_t i = 0; i < n_digests; ++i) {
        const std::string prefix = "digest." + std::to_string(i) + ".";
        LogHistogram::State d;
        d.count = r.get_u64(prefix + "count");
        d.min = r.get_f64(prefix + "min");
        d.max = r.get_f64(prefix + "max");
        d.sum = r.get_f64(prefix + "sum");
        d.sum_compensation = r.get_f64(prefix + "sum_c");
        d.low_count = r.get_u64(prefix + "low_count");
        for (const std::uint64_t b : r.get_u64_vec(prefix + "bucket_index")) {
            d.bucket_index.push_back(static_cast<std::int64_t>(b));
        }
        d.bucket_count = r.get_u64_vec(prefix + "bucket_count");
        snap.digests[r.get_str(prefix + "name")] = std::move(d);
    }
    restore(snap);
}

std::size_t MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return instruments_.size();
}

Json MetricsRegistry::to_json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Json root = Json::object();
    Json counters = Json::object();
    Json gauges = Json::object();
    Json histograms = Json::object();
    Json digests = Json::object();
    bool any_digest = false;
    for (const auto& [name, slot] : instruments_) {
        if (slot.counter) {
            counters[name] = slot.counter->value();
        }
        else if (slot.gauge) {
            gauges[name] = slot.gauge->value();
        }
        else if (slot.histogram) {
            const util::RunningStat s = slot.histogram->snapshot();
            Json h = Json::object();
            h["count"] = s.count();
            h["mean"] = s.mean();
            h["min"] = s.min();
            h["max"] = s.max();
            h["stddev"] = s.stddev();
            h["sum"] = s.sum();
            histograms[name] = std::move(h);
        }
        else if (slot.digest) {
            std::lock_guard<std::mutex> digest_lock(slot.digest->mutex_);
            const LogHistogram& h = slot.digest->hist_;
            Json d = Json::object();
            d["count"] = static_cast<double>(h.count());
            d["mean"] = h.mean();
            d["min"] = h.min();
            d["max"] = h.max();
            d["sum"] = h.sum();
            d["p50"] = h.quantile(50.0);
            d["p95"] = h.quantile(95.0);
            d["p99"] = h.quantile(99.0);
            digests[name] = std::move(d);
            any_digest = true;
        }
    }
    root["counters"] = std::move(counters);
    root["gauges"] = std::move(gauges);
    root["histograms"] = std::move(histograms);
    if (any_digest) root["digests"] = std::move(digests);
    return root;
}

util::Table MetricsRegistry::to_table() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    util::Table table({"Metric", "Kind", "Value", "Count", "Mean", "Min", "Max"});
    for (const auto& [name, slot] : instruments_) {
        if (slot.counter) {
            table.add_row({name, "counter", util::format_fixed(slot.counter->value(), 0),
                           "", "", "", ""});
        }
        else if (slot.gauge) {
            table.add_row({name, "gauge", util::format_fixed(slot.gauge->value(), 3), "",
                           "", "", ""});
        }
        else if (slot.histogram) {
            const util::RunningStat s = slot.histogram->snapshot();
            table.add_row({name, "histogram", util::format_fixed(s.sum(), 3),
                           std::to_string(s.count()), util::format_fixed(s.mean(), 3),
                           util::format_fixed(s.min(), 3),
                           util::format_fixed(s.max(), 3)});
        }
        else if (slot.digest) {
            const LogHistogram h = slot.digest->snapshot();
            table.add_row({name, "digest", util::format_fixed(h.sum(), 3),
                           std::to_string(h.count()), util::format_fixed(h.mean(), 3),
                           util::format_fixed(h.min(), 3),
                           util::format_fixed(h.max(), 3)});
        }
    }
    return table;
}

} // namespace gsph::telemetry
