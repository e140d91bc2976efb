#include "telemetry/tracer.hpp"

#include "telemetry/json.hpp"
#include "util/atomic_file.hpp"

#include <algorithm>
#include <climits>
#include <cstring>
#include <stdexcept>

namespace gsph::telemetry {

namespace {

/// Typical rendered size of one event; only sizes the initial reservation.
constexpr std::size_t kChromeBytesPerEvent = 96;

std::uint64_t time_bits(double t)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &t, sizeof(bits));
    return bits;
}

/// Args as a Json object holds them: a repeated key keeps the position of
/// its first occurrence and the value of its last.  `pairs` holds
/// `n` key/value id pairs; `quoted` is the escaped string table.
void append_args(std::string& out, const std::uint32_t* pairs, std::size_t n,
                 const std::vector<std::string>& quoted)
{
    bool first = true;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t key = pairs[2 * i];
        bool repeated = false;
        for (std::size_t j = 0; j < i && !repeated; ++j) repeated = pairs[2 * j] == key;
        if (repeated) continue;
        std::uint32_t value = pairs[2 * i + 1];
        for (std::size_t j = i + 1; j < n; ++j) {
            if (pairs[2 * j] == key) value = pairs[2 * j + 1];
        }
        if (!first) out += ',';
        first = false;
        out += '"';
        out += quoted[key];
        out += "\":\"";
        out += quoted[value];
        out += '"';
    }
}

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

/// `values` after checking it holds `expected` entries.
template <typename Values>
Values column(Values values, std::size_t expected, const std::string& key, const char* per)
{
    if (values.size() != expected) {
        malformed(key + " has " + std::to_string(values.size()) + " entries for " +
                  std::to_string(expected) + " " + per);
    }
    return values;
}

template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from)
{
    to.insert(to.end(), from.begin(), from.end());
}

} // namespace

std::uint32_t SpanTracer::Columns::add_string(std::string_view s)
{
    const auto id = static_cast<std::uint32_t>(strings.size());
    strings.emplace_back(s);
    ids.emplace(strings.back(), id);
    if (s.empty() && !empty_id) empty_id = id;
    return id;
}

std::uint32_t SpanTracer::intern_locked(std::string_view s)
{
    Columns& c = columns_;
    // Every 'E' event and most categories are empty: skip their hashing.
    if (s.empty() && c.empty_id) return *c.empty_id;
    const auto it = c.ids.find(s);
    return it != c.ids.end() ? it->second : c.add_string(s);
}

void SpanTracer::record_locked(char phase, int pid, int tid, std::string_view name,
                               double t_s, std::string_view category, Args args)
{
    Columns& c = columns_;
    c.phase.push_back(phase);
    c.name.push_back(intern_locked(name));
    c.category.push_back(intern_locked(category));
    c.pid.push_back(pid);
    c.tid.push_back(tid);
    c.n_args.push_back(static_cast<std::uint32_t>(args.size()));
    for (const auto& [key, value] : args) {
        c.args.push_back(intern_locked(key));
        c.args.push_back(intern_locked(value));
    }
    // A span's end, its counter samples and the next span's begin share one
    // timestamp: store each run of bit-equal times once.
    if (!c.run_time.empty() && time_bits(t_s) == time_bits(c.run_time.back())) {
        ++c.run_length.back();
    }
    else {
        c.run_time.push_back(t_s);
        c.run_length.push_back(1);
    }
}

void SpanTracer::begin(int pid, int tid, std::string_view name, double t_s,
                       std::string_view category, Args args)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++open_[{pid, tid}];
    record_locked('B', pid, tid, name, t_s, category, args);
}

void SpanTracer::end(int pid, int tid, double t_s)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = open_.find({pid, tid});
    if (it == open_.end() || it->second <= 0) {
        throw std::logic_error("SpanTracer: end with no open span on pid " +
                               std::to_string(pid) + " tid " + std::to_string(tid));
    }
    --it->second;
    record_locked('E', pid, tid, {}, t_s, {}, {});
}

void SpanTracer::counter(int pid, std::string_view name, double t_s, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    record_locked('C', pid, 0, name, t_s, {}, {});
    columns_.value.push_back(value);
}

void SpanTracer::instant(int pid, int tid, std::string_view name, double t_s, Args args)
{
    std::lock_guard<std::mutex> lock(mutex_);
    record_locked('i', pid, tid, name, t_s, {}, args);
}

void SpanTracer::set_process_name(int pid, std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    record_locked('M', pid, 0, "process_name", 0.0, {}, {});
    columns_.metadata.push_back(intern_locked(name));
}

void SpanTracer::set_thread_name(int pid, int tid, std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    record_locked('M', pid, tid, "thread_name", 0.0, {}, {});
    columns_.metadata.push_back(intern_locked(name));
}

int SpanTracer::open_spans(int pid, int tid) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = open_.find({pid, tid});
    return it == open_.end() ? 0 : it->second;
}

std::size_t SpanTracer::event_count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return columns_.phase.size();
}

template <typename Visit>
void SpanTracer::for_each_locked(Visit visit) const
{
    const Columns& c = columns_;
    std::size_t run = 0, left_in_run = c.run_length.empty() ? 0 : c.run_length[0];
    std::size_t next_value = 0, next_metadata = 0, next_arg = 0;
    for (std::size_t i = 0; i < c.phase.size(); ++i) {
        if (left_in_run == 0) left_in_run = c.run_length[++run];
        --left_in_run;
        const char phase = c.phase[i];
        visit(EventRef{phase, c.name[i], c.category[i], run, c.run_time[run], c.pid[i],
                       c.tid[i], phase == 'C' ? c.value[next_value++] : 0.0,
                       phase == 'M' ? c.metadata[next_metadata++] : 0,
                       c.args.data() + next_arg, c.n_args[i]});
        next_arg += 2 * std::size_t{c.n_args[i]};
    }
}

std::vector<TraceEvent> SpanTracer::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto& strings = columns_.strings;
    std::vector<TraceEvent> out;
    out.reserve(columns_.phase.size());
    for_each_locked([&](const EventRef& e) {
        TraceEvent& t = out.emplace_back();
        t.name = strings[e.name];
        t.category = strings[e.category];
        t.phase = e.phase;
        t.time_s = e.time_s;
        t.pid = e.pid;
        t.tid = e.tid;
        t.counter_value = e.value;
        if (e.phase == 'M') t.metadata = strings[e.metadata];
        for (std::uint32_t k = 0; k < e.n_args; ++k) {
            t.args.emplace_back(strings[e.args[2 * k]], strings[e.args[2 * k + 1]]);
        }
    });
    return out;
}

std::string SpanTracer::to_chrome_json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Columns& c = columns_;
    if (c.phase.empty()) return "[]";

    // Each table string is escaped once, and each run's timestamp is
    // formatted once.
    std::vector<std::string> quoted(c.strings.size());
    for (std::size_t s = 0; s < quoted.size(); ++s) append_json_escaped(quoted[s], c.strings[s]);

    std::string out;
    out.reserve(c.phase.size() * kChromeBytesPerEvent);
    out += '[';
    std::string ts;
    std::size_t ts_run = 0;
    for_each_locked([&](const EventRef& e) {
        if (ts.empty() || e.run != ts_run) {
            ts.clear();
            append_json_number(ts, e.time_s * 1e6); // trace-event format: us
            ts_run = e.run;
        }
        if (out.size() > 1) out += ',';
        out += "{\"name\":\"";
        out += quoted[e.name];
        out += '"';
        if (!c.strings[e.category].empty()) {
            out += ",\"cat\":\"";
            out += quoted[e.category];
            out += '"';
        }
        out += ",\"ph\":\"";
        out += e.phase; // one of "BECiM": nothing to escape
        out += "\",\"ts\":";
        out += ts;
        out += ",\"pid\":";
        append_json_number(out, e.pid);
        out += ",\"tid\":";
        append_json_number(out, e.tid);
        if (e.phase == 'C') {
            out += ",\"args\":{\"value\":";
            append_json_number(out, e.value);
            out += '}';
        }
        else if (e.phase == 'M') {
            out += ",\"args\":{\"name\":\"";
            out += quoted[e.metadata];
            out += "\"}";
        }
        else {
            if (e.phase == 'i') out += ",\"s\":\"t\""; // thread-scoped instant
            if (e.n_args != 0) {
                out += ",\"args\":{";
                append_args(out, e.args, e.n_args, quoted);
                out += '}';
            }
        }
        out += '}';
    });
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
    const Columns& c = columns_;
    Logged& logged = logged_;
    checkpoint::StateWriter& log = writer.log();

    for (; logged.strings < c.strings.size(); ++logged.strings) {
        log.put_str("str." + std::to_string(logged.strings), c.strings[logged.strings]);
    }
    // The last run stays open: the next event may extend it.
    const std::size_t closed_runs = c.run_length.empty() ? 0 : c.run_length.size() - 1;
    if (logged.events < c.phase.size()) {
        const std::string chunk = "ev." + std::to_string(logged.chunks++) + ".";
        // "BECiM" letters encode as themselves.
        log.put_str(chunk + "ph", std::string_view(c.phase).substr(logged.events));
        log.put_vec(chunk + "name", c.name, logged.events);
        log.put_vec(chunk + "cat", c.category, logged.events);
        log.put_vec(chunk + "pid", c.pid, logged.events);
        log.put_vec(chunk + "tid", c.tid, logged.events);
        log.put_vec(chunk + "nargs", c.n_args, logged.events);
        log.put_vec(chunk + "t", c.run_time, logged.runs, closed_runs);
        log.put_vec(chunk + "trun", c.run_length, logged.runs, closed_runs);
        log.put_vec(chunk + "cv", c.value, logged.values);
        log.put_vec(chunk + "md", c.metadata, logged.metadata);
        log.put_vec(chunk + "args", c.args, logged.args);
        logged.events = c.phase.size();
        logged.runs = closed_runs;
        logged.values = c.value.size();
        logged.metadata = c.metadata.size();
        logged.args = c.args.size();
    }

    writer.put_u64("strings", c.strings.size());
    writer.put_u64("chunks", logged.chunks);
    writer.put_f64("ev.t.open", c.run_time.empty() ? 0.0 : c.run_time.back());
    writer.put_u64("ev.trun.open", c.run_length.empty() ? 0 : c.run_length.back());
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
    Columns c;
    const std::uint64_t n_strings = reader.get_u64("strings");
    for (std::uint64_t s = 0; s < n_strings; ++s) {
        c.add_string(reader.get_str("str." + std::to_string(s)));
    }
    const auto string_id = [&](std::uint64_t id, const char* key) {
        if (id >= c.strings.size()) {
            malformed(std::string(key) + " index " + std::to_string(id) +
                      " is past the string table (" + std::to_string(c.strings.size()) +
                      " strings)");
        }
        return static_cast<std::uint32_t>(id);
    };

    // The chunks, each checked against its own phases, then joined.
    std::vector<std::uint64_t> names, categories, metadata, n_args, args;
    std::vector<std::int64_t> pids, tids;
    const std::uint64_t chunks = reader.get_u64("chunks");
    for (std::uint64_t k = 0; k < chunks; ++k) {
        const std::string chunk = "ev." + std::to_string(k) + ".";
        const std::string phase = reader.get_str(chunk + "ph");
        const std::size_t n = phase.size();
        const auto count_phase = [&](char p) {
            return static_cast<std::size_t>(std::count(phase.begin(), phase.end(), p));
        };
        const auto u64 = [&](const char* key, std::size_t expected, const char* per) {
            return column(reader.get_u64_vec(chunk + key), expected, chunk + key, per);
        };
        const auto i64 = [&](const char* key) {
            return column(reader.get_i64_vec(chunk + key), n, chunk + key, "events");
        };
        c.phase += phase;
        append(names, u64("name", n, "events"));
        append(categories, u64("cat", n, "events"));
        append(pids, i64("pid"));
        append(tids, i64("tid"));
        const std::vector<std::uint64_t> chunk_n_args = u64("nargs", n, "events");
        append(n_args, chunk_n_args);
        const std::vector<std::uint64_t> lengths = reader.get_u64_vec(chunk + "trun");
        append(c.run_length, lengths);
        append(c.run_time, column(reader.get_f64_vec(chunk + "t"), lengths.size(),
                                  chunk + "t", "timestamp runs"));
        append(c.value, column(reader.get_f64_vec(chunk + "cv"), count_phase('C'),
                               chunk + "cv", "counter events"));
        append(metadata, u64("md", count_phase('M'), "metadata events"));
        std::uint64_t pairs = 0;
        for (const std::uint64_t a : chunk_n_args) {
            if (a > UINT32_MAX) malformed(chunk + "nargs holds " + std::to_string(a));
            pairs += a;
        }
        append(args, u64("args", 2 * pairs, "args keys and values"));
    }
    if (const std::uint64_t open_run = reader.get_u64("ev.trun.open"); open_run != 0) {
        c.run_length.push_back(open_run);
        c.run_time.push_back(reader.get_f64("ev.t.open"));
    }

    const std::size_t n = c.phase.size();
    std::size_t covered = 0;
    for (const std::uint64_t length : c.run_length) {
        if (length == 0 || length > n - covered) {
            malformed("ev.trun does not split the events into runs");
        }
        covered += length;
    }
    if (covered != n) {
        malformed("ev.trun covers " + std::to_string(covered) + " of " +
                  std::to_string(n) + " events");
    }

    for (std::size_t i = 0; i < n; ++i) {
        if (std::string_view("BECiM").find(c.phase[i]) == std::string_view::npos) {
            malformed("event " + std::to_string(i) + " has unknown phase '" +
                      std::string(1, c.phase[i]) + "'");
        }
        c.name.push_back(string_id(names[i], "ev.name"));
        c.category.push_back(string_id(categories[i], "ev.cat"));
        c.pid.push_back(checked_int(pids[i], "ev.pid"));
        c.tid.push_back(checked_int(tids[i], "ev.tid"));
        c.n_args.push_back(static_cast<std::uint32_t>(n_args[i]));
    }
    for (const std::uint64_t id : metadata) c.metadata.push_back(string_id(id, "ev.md"));
    for (const std::uint64_t id : args) c.args.push_back(string_id(id, "ev.args"));

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

    Logged logged;
    logged.strings = c.strings.size();
    logged.events = n;
    logged.runs = c.run_length.empty() ? 0 : c.run_length.size() - 1;
    logged.values = c.value.size();
    logged.metadata = c.metadata.size();
    logged.args = c.args.size();
    logged.chunks = chunks;

    std::lock_guard<std::mutex> lock(mutex_);
    columns_ = std::move(c);
    logged_ = logged;
    open_ = std::move(open);
}

} // namespace gsph::telemetry
