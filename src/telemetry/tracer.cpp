#include "telemetry/tracer.hpp"

#include "checkpoint/state.hpp"
#include "telemetry/json.hpp"
#include "util/atomic_file.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace gsph::telemetry {

namespace {

/// Args as a Json object holds them: a repeated key keeps the position of
/// its first occurrence and the value of its last.
void append_args(std::string& out,
                 const std::vector<std::pair<std::string, std::string>>& args)
{
    bool first = true;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& key = args[i].first;
        bool repeated = false;
        for (std::size_t j = 0; j < i && !repeated; ++j) repeated = args[j].first == key;
        if (repeated) continue;
        const std::string* value = &args[i].second;
        for (std::size_t j = i + 1; j < args.size(); ++j) {
            if (args[j].first == key) value = &args[j].second;
        }
        if (!first) out += ',';
        first = false;
        out += '"';
        append_json_escaped(out, key);
        out += "\":\"";
        append_json_escaped(out, *value);
        out += '"';
    }
}

/// One event object, key for key as Json::dump writes it.
void append_event(std::string& out, const TraceEvent& e)
{
    out += "{\"name\":\"";
    append_json_escaped(out, e.name);
    out += '"';
    if (!e.category.empty()) {
        out += ",\"cat\":\"";
        append_json_escaped(out, e.category);
        out += '"';
    }
    out += ",\"ph\":\"";
    append_json_escaped(out, std::string_view(&e.phase, 1));
    out += "\",\"ts\":";
    append_json_number(out, e.time_s * 1e6); // trace-event format: microseconds
    out += ",\"pid\":";
    append_json_number(out, e.pid);
    out += ",\"tid\":";
    append_json_number(out, e.tid);
    if (e.phase == 'C') {
        out += ",\"args\":{\"value\":";
        append_json_number(out, e.counter_value);
        out += '}';
    }
    else if (e.phase == 'M') {
        out += ",\"args\":{\"name\":\"";
        append_json_escaped(out, e.metadata);
        out += "\"}";
    }
    else {
        if (e.phase == 'i') out += ",\"s\":\"t\""; // thread-scoped instant
        if (!e.args.empty()) {
            out += ",\"args\":{";
            append_args(out, e.args);
            out += '}';
        }
    }
    out += '}';
}

/// Typical rendered size of one event; only sizes the initial reservation.
constexpr std::size_t kChromeBytesPerEvent = 96;

[[noreturn]] void malformed(const std::string& why)
{
    throw checkpoint::CheckpointError("span tracer checkpoint: " + why);
}

int checked_int(std::int64_t value, const char* key)
{
    if (value < INT_MIN || value > INT_MAX) {
        malformed(std::string(key) + " value " + std::to_string(value) +
                  " is out of range");
    }
    return static_cast<int>(value);
}

} // namespace

void SpanTracer::record(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::thread::id self = std::this_thread::get_id();
    auto it = by_thread_.find(self);
    if (it == by_thread_.end()) {
        buffers_.push_back(std::make_unique<ThreadBuffer>());
        it = by_thread_.emplace(self, buffers_.back().get()).first;
    }
    it->second->events.push_back(std::move(event));
}

void SpanTracer::begin(int pid, int tid, const std::string& name, double t_s,
                       const std::string& category,
                       std::vector<std::pair<std::string, std::string>> args)
{
    TraceEvent e;
    e.name = name;
    e.category = category;
    e.phase = 'B';
    e.time_s = t_s;
    e.pid = pid;
    e.tid = tid;
    e.args = std::move(args);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++open_[{pid, tid}];
    }
    record(std::move(e));
}

void SpanTracer::end(int pid, int tid, double t_s)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = open_.find({pid, tid});
        if (it == open_.end() || it->second <= 0) {
            throw std::logic_error("SpanTracer: end with no open span on pid " +
                                   std::to_string(pid) + " tid " + std::to_string(tid));
        }
        --it->second;
    }
    TraceEvent e;
    e.phase = 'E';
    e.time_s = t_s;
    e.pid = pid;
    e.tid = tid;
    record(std::move(e));
}

void SpanTracer::counter(int pid, const std::string& name, double t_s, double value)
{
    TraceEvent e;
    e.name = name;
    e.phase = 'C';
    e.time_s = t_s;
    e.pid = pid;
    e.counter_value = value;
    record(std::move(e));
}

void SpanTracer::instant(int pid, int tid, const std::string& name, double t_s,
                         std::vector<std::pair<std::string, std::string>> args)
{
    TraceEvent e;
    e.name = name;
    e.phase = 'i';
    e.time_s = t_s;
    e.pid = pid;
    e.tid = tid;
    e.args = std::move(args);
    record(std::move(e));
}

void SpanTracer::set_process_name(int pid, const std::string& name)
{
    TraceEvent e;
    e.name = "process_name";
    e.phase = 'M';
    e.pid = pid;
    e.metadata = name;
    record(std::move(e));
}

void SpanTracer::set_thread_name(int pid, int tid, const std::string& name)
{
    TraceEvent e;
    e.name = "thread_name";
    e.phase = 'M';
    e.pid = pid;
    e.tid = tid;
    e.metadata = name;
    record(std::move(e));
}

int SpanTracer::open_spans(int pid, int tid) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = open_.find({pid, tid});
    return it == open_.end() ? 0 : it->second;
}

std::size_t SpanTracer::count_locked() const
{
    std::size_t total = 0;
    for (const auto& b : buffers_) total += b->events.size();
    return total;
}

std::size_t SpanTracer::event_count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_locked();
}

std::vector<TraceEvent> SpanTracer::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TraceEvent> merged;
    merged.reserve(count_locked());
    for (const auto& b : buffers_) {
        merged.insert(merged.end(), b->events.begin(), b->events.end());
    }
    return merged;
}

std::string SpanTracer::to_chrome_json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t total = count_locked();
    if (total == 0) return "[]";
    std::string out;
    out.reserve(total * kChromeBytesPerEvent);
    out += '[';
    bool first = true;
    for (const auto& b : buffers_) {
        for (const TraceEvent& e : b->events) {
            if (!first) out += ',';
            first = false;
            append_event(out, e);
        }
    }
    out += ']';
    return out;
}

bool SpanTracer::write_file(const std::string& path) const
{
    std::string json = to_chrome_json();
    json += '\n';
    return util::atomic_write_file(path, json);
}

void SpanTracer::save_state(checkpoint::StateWriter& writer) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t n = count_locked();

    // Strings repeat across events (function names, categories, arg keys),
    // so each is stored once and the columns hold indices into the table.
    std::vector<std::string_view> table;
    std::unordered_map<std::string_view, std::uint64_t> index;
    const auto intern = [&](const std::string& s) {
        const auto [it, inserted] = index.try_emplace(s, table.size());
        if (inserted) table.push_back(s);
        return it->second;
    };
    std::string phases;
    std::vector<std::uint64_t> names, categories, n_args, args, time_runs, metadata;
    std::vector<std::int64_t> pids, tids;
    std::vector<double> times, values;
    phases.reserve(n);
    names.reserve(n);
    categories.reserve(n);
    n_args.reserve(n);
    pids.reserve(n);
    tids.reserve(n);
    std::uint64_t last_time_bits = 0;
    for (const auto& b : buffers_) {
        for (const TraceEvent& e : b->events) {
            phases.push_back(e.phase);
            names.push_back(intern(e.name));
            categories.push_back(intern(e.category));
            pids.push_back(e.pid);
            tids.push_back(e.tid);
            n_args.push_back(e.args.size());
            for (const auto& [key, value] : e.args) {
                args.push_back(intern(key));
                args.push_back(intern(value));
            }
            // A span's end, its counter samples and the next span's begin
            // share one timestamp: store each run of bit-equal times once.
            std::uint64_t bits = 0;
            std::memcpy(&bits, &e.time_s, sizeof(bits));
            if (!time_runs.empty() && bits == last_time_bits) {
                ++time_runs.back();
            }
            else {
                times.push_back(e.time_s);
                time_runs.push_back(1);
                last_time_bits = bits;
            }
            // Only counters carry a value and only metadata events a name.
            if (e.phase == 'C') values.push_back(e.counter_value);
            if (e.phase == 'M') metadata.push_back(intern(e.metadata));
        }
    }

    writer.put_u64("strings", table.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
        writer.put_str("str." + std::to_string(i), table[i]);
    }
    writer.put_str("ev.ph", phases);
    writer.put_u64_vec("ev.name", names);
    writer.put_u64_vec("ev.cat", categories);
    writer.put_i64_vec("ev.pid", pids);
    writer.put_i64_vec("ev.tid", tids);
    writer.put_f64_vec("ev.t", times);
    writer.put_u64_vec("ev.trun", time_runs);
    writer.put_f64_vec("ev.cv", values);
    writer.put_u64_vec("ev.md", metadata);
    writer.put_u64_vec("ev.nargs", n_args);
    writer.put_u64_vec("ev.args", args);

    std::vector<std::int64_t> open;
    open.reserve(open_.size() * 3);
    for (const auto& [track, depth] : open_) {
        open.push_back(track.first);
        open.push_back(track.second);
        open.push_back(depth);
    }
    writer.put_i64_vec("open", open);
}

void SpanTracer::restore_state(const checkpoint::StateReader& reader)
{
    std::vector<std::string> table;
    const std::uint64_t n_strings = reader.get_u64("strings");
    for (std::uint64_t i = 0; i < n_strings; ++i) {
        table.push_back(reader.get_str("str." + std::to_string(i)));
    }
    const auto string_at = [&](std::uint64_t i, const char* key) -> const std::string& {
        if (i >= table.size()) {
            malformed(std::string(key) + " index " + std::to_string(i) +
                      " is past the string table (" + std::to_string(table.size()) +
                      " strings)");
        }
        return table[i];
    };

    const std::string phases = reader.get_str("ev.ph");
    const std::size_t n = phases.size();
    const auto column = [](auto values, std::size_t expected, const char* key,
                           const char* per) {
        if (values.size() != expected) {
            malformed(std::string(key) + " has " + std::to_string(values.size()) +
                      " entries for " + std::to_string(expected) + " " + per);
        }
        return values;
    };
    const auto count_phase = [&](char phase) {
        return static_cast<std::size_t>(std::count(phases.begin(), phases.end(), phase));
    };
    const auto names = column(reader.get_u64_vec("ev.name"), n, "ev.name", "events");
    const auto categories = column(reader.get_u64_vec("ev.cat"), n, "ev.cat", "events");
    const auto pids = column(reader.get_i64_vec("ev.pid"), n, "ev.pid", "events");
    const auto tids = column(reader.get_i64_vec("ev.tid"), n, "ev.tid", "events");
    const auto time_runs = reader.get_u64_vec("ev.trun");
    const auto times = column(reader.get_f64_vec("ev.t"), time_runs.size(), "ev.t",
                              "timestamp runs");
    const auto values =
        column(reader.get_f64_vec("ev.cv"), count_phase('C'), "ev.cv", "counter events");
    const auto metadata =
        column(reader.get_u64_vec("ev.md"), count_phase('M'), "ev.md", "metadata events");
    const auto n_args = column(reader.get_u64_vec("ev.nargs"), n, "ev.nargs", "events");
    const auto args = reader.get_u64_vec("ev.args");

    std::vector<TraceEvent> events(n);
    std::size_t filled = 0;
    for (std::size_t r = 0; r < time_runs.size(); ++r) {
        if (time_runs[r] == 0 || time_runs[r] > n - filled) {
            malformed("ev.trun does not split the events into runs");
        }
        for (std::uint64_t k = 0; k < time_runs[r]; ++k) events[filled++].time_s = times[r];
    }
    if (filled != n) {
        malformed("ev.trun covers " + std::to_string(filled) + " of " +
                  std::to_string(n) + " events");
    }

    std::size_t next_value = 0;
    std::size_t next_metadata = 0;
    std::size_t next_arg = 0;
    for (std::size_t i = 0; i < n; ++i) {
        TraceEvent& e = events[i];
        e.phase = phases[i];
        if (std::string_view("BECiM").find(e.phase) == std::string_view::npos) {
            malformed("event " + std::to_string(i) + " has unknown phase '" +
                      std::string(1, e.phase) + "'");
        }
        e.name = string_at(names[i], "ev.name");
        e.category = string_at(categories[i], "ev.cat");
        e.pid = checked_int(pids[i], "ev.pid");
        e.tid = checked_int(tids[i], "ev.tid");
        if (e.phase == 'C') e.counter_value = values[next_value++];
        if (e.phase == 'M') e.metadata = string_at(metadata[next_metadata++], "ev.md");
        if (n_args[i] > (args.size() - next_arg) / 2) {
            malformed("ev.args holds fewer key/value pairs than ev.nargs counts");
        }
        for (std::uint64_t k = 0; k < n_args[i]; ++k, next_arg += 2) {
            e.args.emplace_back(string_at(args[next_arg], "ev.args"),
                                string_at(args[next_arg + 1], "ev.args"));
        }
    }
    if (next_arg != args.size()) {
        malformed("ev.args holds more key/value pairs than ev.nargs counts");
    }

    const auto open_triples = reader.get_i64_vec("open");
    if (open_triples.size() % 3 != 0) {
        malformed("open does not hold (pid, tid, depth) triples");
    }
    std::map<std::pair<int, int>, int> open;
    for (std::size_t i = 0; i < open_triples.size(); i += 3) {
        const int pid = checked_int(open_triples[i], "open");
        const int tid = checked_int(open_triples[i + 1], "open");
        const int depth = checked_int(open_triples[i + 2], "open");
        if (depth < 0) malformed("open holds a negative span depth");
        open[{pid, tid}] = depth;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.clear();
    by_thread_.clear();
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->events = std::move(events);
    by_thread_.emplace(std::this_thread::get_id(), buffers_.back().get());
    open_ = std::move(open);
}

void SpanTracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.clear();
    by_thread_.clear();
    open_.clear();
}

} // namespace gsph::telemetry
