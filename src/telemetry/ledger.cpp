#include "telemetry/ledger.hpp"

#include "sph/functions.hpp"
#include "telemetry/metrics.hpp"
#include "util/atomic_file.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace gsph::telemetry {

namespace {

/// Matches the prometheus renderer's value formatting so appended ledger
/// samples look like every other exposition line.
std::string format_value(double v)
{
    if (std::isnan(v)) return "NaN";
    if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

const char* fn_name(int function)
{
    if (function >= 0 && function < sph::kSphFunctionCount) {
        return sph::to_string(static_cast<sph::SphFunction>(function));
    }
    return "none";
}

/// Appends the members of one JSON object, key for key as Json::dump
/// writes them.
class JsonMembers {
public:
    explicit JsonMembers(std::string& out) : out_(out) {}

    /// Appends `"key":`, after a comma unless it is the first member, and
    /// returns the buffer for the value.
    std::string& key(std::string_view key)
    {
        if (!first_) out_ += ',';
        first_ = false;
        out_ += '"';
        append_json_escaped(out_, key);
        out_ += "\":";
        return out_;
    }
    void number(std::string_view k, double value) { append_json_number(key(k), value); }
    void boolean(std::string_view k, bool value) { key(k) += value ? "true" : "false"; }
    void string(std::string_view k, std::string_view value)
    {
        std::string& out = key(k);
        out += '"';
        append_json_escaped(out, value);
        out += '"';
    }
    void numbers(std::string_view k, const std::vector<double>& values)
    {
        std::string& out = key(k);
        out += '[';
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i) out += ',';
            append_json_number(out, values[i]);
        }
        out += ']';
    }
    /// A nested object whose members `fill` appends.
    template <class Fill>
    void object(std::string_view k, const Fill& fill)
    {
        std::string& out = key(k);
        out += '{';
        JsonMembers inner(out);
        fill(inner);
        out += '}';
    }

private:
    std::string& out_;
    bool first_ = true;
};

/// Sets the members of a Json object to what Json::parse reads back from
/// JsonMembers' text: a non-finite number becomes null and a byte that is
/// not well-formed UTF-8 becomes U+FFFD, so both dump the same bytes.
class JsonTreeMembers {
public:
    explicit JsonTreeMembers(Json& object) : object_(object) {}

    void number(std::string_view k, double value) { member(k) = json_number(value); }
    void boolean(std::string_view k, bool value) { member(k) = value; }
    void string(std::string_view k, std::string_view value)
    {
        member(k) = well_formed_utf8(value);
    }
    void numbers(std::string_view k, const std::vector<double>& values)
    {
        Json array = Json::array();
        for (double v : values) array.push_back(json_number(v));
        member(k) = std::move(array);
    }
    template <class Fill>
    void object(std::string_view k, const Fill& fill)
    {
        Json inner = Json::object();
        JsonTreeMembers members(inner);
        fill(members);
        member(k) = std::move(inner);
    }

private:
    static Json json_number(double v) { return std::isfinite(v) ? Json(v) : Json(); }
    /// A repeated key keeps its first position and takes the last value, as
    /// the parser does.
    Json& member(std::string_view k) { return object_[well_formed_utf8(k)]; }

    Json& object_;
};

/// The members of one decision, for the JSONL line (JsonMembers) and the
/// live view (JsonTreeMembers).  A repeated input name keeps its first
/// position and its last value, as in a Json object.
template <class Members>
void describe_decision(Members& m, const AuditedDecision& d)
{
    const DecisionRecord& r = d.record;
    m.number("id", static_cast<double>(d.id));
    m.number("step", d.step);
    m.string("policy", r.policy);
    m.number("rank", r.rank);
    m.string("function", fn_name(r.function));
    m.numbers("candidate_mhz", r.candidate_mhz);
    m.number("chosen_mhz", r.chosen_mhz);
    // Untraced runs omit the key entirely so pre-tracing consumers (and
    // byte-identity tests) see unchanged documents.
    if (!r.trace_id.empty()) m.string("trace_id", r.trace_id);
    // Warmup / first-visit decisions carry no prediction; emitting the
    // struct default (0) here made every warmup decision count as a
    // misprediction downstream.  Mark them explicitly instead.
    if (r.predicted_edp > 0.0) {
        m.number("predicted_edp", r.predicted_edp);
    }
    else {
        m.boolean("no_prediction", true);
    }
    m.object("inputs", [&r](auto& inputs) {
        for (std::size_t i = 0; i < r.inputs.size(); ++i) {
            const std::string& name = r.inputs[i].first;
            bool repeated = false;
            for (std::size_t k = 0; k < i && !repeated; ++k) {
                repeated = r.inputs[k].first == name;
            }
            if (repeated) continue;
            double value = r.inputs[i].second;
            for (std::size_t k = i + 1; k < r.inputs.size(); ++k) {
                if (r.inputs[k].first == name) value = r.inputs[k].second;
            }
            inputs.number(name, value);
        }
    });
    m.boolean("resolved", d.resolved);
    m.number("realized_edp", d.realized_edp);
    if (d.resolved && r.predicted_edp > 0.0) {
        m.number("prediction_error", (d.realized_edp - r.predicted_edp) / r.predicted_edp);
    }
}

[[noreturn]] void malformed(const std::string& why)
{
    throw checkpoint::CheckpointError("ledger: " + why);
}

/// `values` after checking it holds `expected` entries.
template <typename Values>
Values sized(Values values, std::uint64_t expected, const std::string& key)
{
    if (values.size() != expected) {
        malformed(key + " has " + std::to_string(values.size()) + " entries for " +
                  std::to_string(expected));
    }
    return values;
}

int checked_int(std::int64_t value, const std::string& key)
{
    if (value < INT_MIN || value > INT_MAX) malformed(key + " holds " + std::to_string(value));
    return static_cast<int>(value);
}

/// Appends the decisions stored by column under `prefix` to `out`; their
/// strings are ids into `strings`.
void append_decisions(const checkpoint::StateReader& reader, const std::string& prefix,
                      const std::vector<std::string>& strings,
                      std::vector<AuditedDecision>& out)
{
    const std::vector<std::int64_t> ids = reader.get_i64_vec(prefix + "id");
    const std::size_t n = ids.size();
    const auto column = [&](auto values, const char* key, std::uint64_t expected) {
        return sized(std::move(values), expected, prefix + key);
    };
    const auto total = [&](const std::vector<std::uint64_t>& counts, const char* key) {
        std::uint64_t sum = 0;
        for (const std::uint64_t c : counts) {
            if (c > UINT32_MAX) malformed(prefix + key + " holds " + std::to_string(c));
            sum += c;
        }
        return sum;
    };
    const auto steps = column(reader.get_i64_vec(prefix + "step"), "step", n);
    const auto policies = column(reader.get_u64_vec(prefix + "policy"), "policy", n);
    const auto ranks = column(reader.get_i64_vec(prefix + "rank"), "rank", n);
    const auto functions = column(reader.get_i64_vec(prefix + "fn"), "fn", n);
    const auto n_candidates = column(reader.get_u64_vec(prefix + "ncand"), "ncand", n);
    const auto chosen = column(reader.get_f64_vec(prefix + "chosen"), "chosen", n);
    const auto predicted = column(reader.get_f64_vec(prefix + "predicted"), "predicted", n);
    const auto traces = column(reader.get_u64_vec(prefix + "trace"), "trace", n);
    const auto resolved = column(reader.get_u64_vec(prefix + "resolved"), "resolved", n);
    const auto realized = column(reader.get_f64_vec(prefix + "realized"), "realized", n);
    const auto n_inputs = column(reader.get_u64_vec(prefix + "ninputs"), "ninputs", n);
    const auto candidates =
        column(reader.get_f64_vec(prefix + "cand"), "cand", total(n_candidates, "ncand"));
    const std::uint64_t inputs = total(n_inputs, "ninputs");
    const auto input_names = column(reader.get_u64_vec(prefix + "input"), "input", inputs);
    const auto input_values = column(reader.get_f64_vec(prefix + "value"), "value", inputs);

    const auto string = [&](std::uint64_t id, const char* key) -> const std::string& {
        if (id >= strings.size()) {
            malformed(prefix + key + " index " + std::to_string(id) +
                      " is past the string table");
        }
        return strings[id];
    };
    const auto small = [&](std::int64_t v, const char* key) {
        return checked_int(v, prefix + key);
    };
    std::size_t next_candidate = 0;
    std::size_t next_input = 0;
    for (std::size_t i = 0; i < n; ++i) {
        AuditedDecision& d = out.emplace_back();
        d.id = ids[i];
        d.step = small(steps[i], "step");
        d.record.policy = string(policies[i], "policy");
        d.record.rank = small(ranks[i], "rank");
        d.record.function = small(functions[i], "fn");
        const auto first = candidates.begin() + static_cast<std::ptrdiff_t>(next_candidate);
        next_candidate += n_candidates[i];
        d.record.candidate_mhz.assign(
            first, candidates.begin() + static_cast<std::ptrdiff_t>(next_candidate));
        d.record.chosen_mhz = chosen[i];
        d.record.predicted_edp = predicted[i];
        d.record.trace_id = string(traces[i], "trace");
        if (resolved[i] > 1) malformed(prefix + "resolved holds " + std::to_string(resolved[i]));
        d.resolved = resolved[i] == 1;
        d.realized_edp = realized[i];
        for (std::uint64_t k = 0; k < n_inputs[i]; ++k, ++next_input) {
            d.record.inputs.emplace_back(string(input_names[next_input], "input"),
                                         input_values[next_input]);
        }
    }
}

} // namespace

const char* to_string(LedgerPhase phase)
{
    switch (phase) {
    case LedgerPhase::kKernel: return "kernel";
    case LedgerPhase::kSync: return "sync";
    }
    return "unknown";
}

AttributionLedger::AttributionLedger(int n_ranks) : n_ranks_(n_ranks)
{
    if (n_ranks_ < 1) {
        throw std::invalid_argument("AttributionLedger: n_ranks < 1");
    }
    ranks_.resize(static_cast<std::size_t>(n_ranks_));
    pending_.assign(
        static_cast<std::size_t>(n_ranks_) * sph::kSphFunctionCount, -1);
    // Pre-register so /metrics exposes them from the first scrape.
    MetricsRegistry& reg = MetricsRegistry::global();
    decisions_counter_ = &reg.counter("ledger.decisions");
    resolved_counter_ = &reg.counter("ledger.decisions_resolved");
}

AttributionLedger::~AttributionLedger()
{
    if (sink_installed_) set_decision_sink({});
}

void AttributionLedger::attach(sim::RunHooks& hooks)
{
    hooks.append({
        .before_function = [this](int rank, gpusim::GpuDevice& dev,
                                  sph::SphFunction fn) { on_before(rank, dev, fn); },
        .after_function = [this](int rank, gpusim::GpuDevice& dev, sph::SphFunction fn,
                                 const gpusim::KernelResult&) { on_after(rank, dev, fn); },
        .after_step = [this](int step) { on_step_end(step); },
    });
    set_decision_sink(
        [this](DecisionRecord&& record) { on_decision(std::move(record)); });
    sink_installed_ = true;
}

void AttributionLedger::on_before(int rank, gpusim::GpuDevice& dev,
                                  sph::SphFunction)
{
    std::lock_guard<std::mutex> lock(mutex_);
    RankState& rs = ranks_.at(static_cast<std::size_t>(rank));
    rs.dev = &dev; // refresh every call: resume restores state, not pointers
    if (!rs.primed) {
        // First observation: start the telescoping window here.  The driver
        // takes its loop-window energy baseline at the same point (no device
        // advances between loop start and the first before-hook), so the
        // bucket sum tracks RunResult::gpu_energy_j.
        rs.primed = true;
        rs.last_energy_j = dev.energy_j();
        rs.last_time_s = dev.now();
    }
    else {
        // Everything since this rank's last event — attributed comm, idle
        // padding — ran under the *previous* applied clock and belongs to
        // the function that caused it.
        sweep_locked(rs, rank, rs.prev_function, LedgerPhase::kSync,
                     /*count_call=*/false);
    }
    rs.applied_mhz = dev.application_clock_mhz();
}

void AttributionLedger::on_after(int rank, gpusim::GpuDevice& dev,
                                 sph::SphFunction fn)
{
    std::lock_guard<std::mutex> lock(mutex_);
    RankState& rs = ranks_.at(static_cast<std::size_t>(rank));
    rs.dev = &dev;
    if (!rs.primed) return;
    const int fi = static_cast<int>(fn);
    // The decided window's realized outcome, joined to the pending decision
    // before the sweep consumes the deltas.
    const double window_energy_j = dev.energy_j() - rs.last_energy_j;
    const double window_time_s = dev.now() - rs.last_time_s;
    sweep_locked(rs, rank, fi, LedgerPhase::kKernel, /*count_call=*/true);
    rs.prev_function = fi;

    const std::size_t key = static_cast<std::size_t>(rank) *
                                sph::kSphFunctionCount +
                            static_cast<std::size_t>(fi);
    const std::int64_t p = pending_.at(key);
    if (p >= 0) {
        AuditedDecision& d = decisions_.at(static_cast<std::size_t>(p));
        d.resolved = true;
        d.realized_edp = window_energy_j * window_time_s;
        pending_.at(key) = -1;
        resolved_counter_->inc();
    }
}

void AttributionLedger::on_step_end(int step)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // End-of-step catch-up (cluster.sync_all_to): charge each rank's
    // residual idle window to the function that preceded it.
    for (int r = 0; r < n_ranks_; ++r) {
        RankState& rs = ranks_[static_cast<std::size_t>(r)];
        if (!rs.primed || rs.dev == nullptr) continue;
        sweep_locked(rs, r, rs.prev_function, LedgerPhase::kSync,
                     /*count_call=*/false);
    }
    steps_completed_ = step + 1;
}

void AttributionLedger::sweep_locked(RankState& rs, int rank, int function,
                                     LedgerPhase phase, bool count_call)
{
    const double energy_j = rs.dev->energy_j();
    const double time_s = rs.dev->now();
    const double de = energy_j - rs.last_energy_j;
    const double dt = time_s - rs.last_time_s;
    rs.last_energy_j = energy_j;
    rs.last_time_s = time_s;
    // Skip empty idle sweeps so the bucket set stays minimal; the deltas
    // are bit-identical across thread counts, so this skip is too.
    if (!count_call && de == 0.0 && dt == 0.0) return;
    Cell& cell = cell_locked(rank, function, phase, rs.applied_mhz);
    cell.energy_j += de;
    cell.time_s += dt;
    if (count_call) ++cell.calls;
}

AttributionLedger::Cell& AttributionLedger::cell_locked(int rank, int function,
                                                        LedgerPhase phase,
                                                        double freq_mhz)
{
    const Key key{rank, function, static_cast<int>(phase),
                  static_cast<std::int64_t>(std::llround(freq_mhz * 100.0))};
    Cell& cell = buckets_[key];
    cell.freq_mhz = freq_mhz;
    return cell;
}

void AttributionLedger::on_decision(DecisionRecord&& record)
{
    std::lock_guard<std::mutex> lock(mutex_);
    AuditedDecision d;
    d.id = next_decision_id_++;
    d.step = steps_completed_;
    d.record = std::move(record);
    const int rank = d.record.rank;
    const int fi = d.record.function;
    decisions_.push_back(std::move(d));
    if (rank >= 0 && rank < n_ranks_ && fi >= 0 &&
        fi < sph::kSphFunctionCount) {
        const std::size_t key = static_cast<std::size_t>(rank) *
                                    sph::kSphFunctionCount +
                                static_cast<std::size_t>(fi);
        pending_.at(key) = static_cast<std::int64_t>(decisions_.size()) - 1;
    }
    decisions_counter_->inc();
}

std::vector<AttributionBucket> AttributionLedger::buckets() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<AttributionBucket> out;
    out.reserve(buckets_.size());
    for (const auto& [key, cell] : buckets_) {
        AttributionBucket b;
        b.rank = key.rank;
        b.function = key.function;
        b.phase = static_cast<LedgerPhase>(key.phase);
        b.freq_mhz = cell.freq_mhz;
        b.energy_j = cell.energy_j;
        b.time_s = cell.time_s;
        b.calls = cell.calls;
        out.push_back(b);
    }
    return out;
}

double AttributionLedger::attributed_energy_j() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    for (const auto& [key, cell] : buckets_) sum += cell.energy_j;
    return sum;
}

double AttributionLedger::attributed_time_s() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    for (const auto& [key, cell] : buckets_) sum += cell.time_s;
    return sum;
}

std::vector<AuditedDecision> AttributionLedger::decisions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return decisions_;
}

std::size_t AttributionLedger::decision_count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return decisions_.size();
}

int AttributionLedger::steps_completed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return steps_completed_;
}

Json AttributionLedger::attribution_json(std::size_t max_decisions) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Json j = Json::object();
    j["schema"] = kLedgerSchema;
    j["n_ranks"] = n_ranks_;
    j["steps_completed"] = steps_completed_;
    double energy = 0.0;
    double time = 0.0;
    Json buckets = Json::array();
    for (const auto& [key, cell] : buckets_) {
        energy += cell.energy_j;
        time += cell.time_s;
        Json b = Json::object();
        b["rank"] = key.rank;
        b["function"] = fn_name(key.function);
        b["phase"] = to_string(static_cast<LedgerPhase>(key.phase));
        b["freq_mhz"] = cell.freq_mhz;
        b["energy_j"] = cell.energy_j;
        b["time_s"] = cell.time_s;
        b["calls"] = cell.calls;
        buckets.push_back(std::move(b));
    }
    j["attributed_energy_j"] = energy;
    j["attributed_time_s"] = time;
    j["bucket_count"] = buckets_.size();
    j["decision_count"] = decisions_.size();
    j["buckets"] = std::move(buckets);
    Json decisions = Json::array();
    const std::size_t start =
        decisions_.size() > max_decisions ? decisions_.size() - max_decisions : 0;
    for (std::size_t i = start; i < decisions_.size(); ++i) {
        Json decision = Json::object();
        JsonTreeMembers members(decision);
        describe_decision(members, decisions_[i]);
        decisions.push_back(std::move(decision));
    }
    j["decisions"] = std::move(decisions);
    return j;
}

std::string AttributionLedger::top_exposition(std::size_t top_n) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<Key, const Cell*>> cells;
    cells.reserve(buckets_.size());
    double total_energy = 0.0;
    double total_time = 0.0;
    for (const auto& [key, cell] : buckets_) {
        cells.emplace_back(key, &cell);
        total_energy += cell.energy_j;
        total_time += cell.time_s;
    }
    // Top energy consumers first; ties broken by key order so the sample
    // set is deterministic.
    std::stable_sort(cells.begin(), cells.end(),
                     [](const auto& a, const auto& b) {
                         return a.second->energy_j > b.second->energy_j;
                     });
    if (cells.size() > top_n) cells.resize(top_n);

    std::string out;
    out += "# HELP greensph_attribution_energy_joules energy attributed to "
           "(rank, function, phase, applied clock), top buckets\n";
    out += "# TYPE greensph_attribution_energy_joules gauge\n";
    for (const auto& [key, cell] : cells) {
        out += "greensph_attribution_energy_joules{rank=\"" +
               std::to_string(key.rank) + "\",function=\"" +
               fn_name(key.function) + "\",phase=\"" +
               to_string(static_cast<LedgerPhase>(key.phase)) +
               "\",freq_mhz=\"" + format_value(cell->freq_mhz) + "\"} " +
               format_value(cell->energy_j) + "\n";
    }
    out += "# HELP greensph_attribution_total_energy_joules energy "
           "attributed across all buckets\n";
    out += "# TYPE greensph_attribution_total_energy_joules gauge\n";
    out += "greensph_attribution_total_energy_joules " +
           format_value(total_energy) + "\n";
    out += "# HELP greensph_attribution_total_seconds device seconds "
           "attributed across all buckets\n";
    out += "# TYPE greensph_attribution_total_seconds gauge\n";
    out += "greensph_attribution_total_seconds " + format_value(total_time) +
           "\n";
    out += "# HELP greensph_attribution_bucket_count live attribution "
           "buckets\n";
    out += "# TYPE greensph_attribution_bucket_count gauge\n";
    out += "greensph_attribution_bucket_count " +
           format_value(static_cast<double>(buckets_.size())) + "\n";
    out += "# HELP greensph_attribution_decision_count audited policy "
           "decisions\n";
    out += "# TYPE greensph_attribution_decision_count gauge\n";
    out += "greensph_attribution_decision_count " +
           format_value(static_cast<double>(decisions_.size())) + "\n";
    return out;
}

std::string AttributionLedger::jsonl(const Json& header) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Json h = Json::object();
    h["schema"] = kLedgerSchema;
    if (header.is_object()) {
        for (const auto& [key, value] : header.members()) h[key] = value;
    }
    h["n_ranks"] = n_ranks_;
    h["steps_completed"] = steps_completed_;
    double energy = 0.0;
    double time = 0.0;
    for (const auto& [key, cell] : buckets_) {
        energy += cell.energy_j;
        time += cell.time_s;
    }
    h["attributed_energy_j"] = energy;
    h["attributed_time_s"] = time;
    h["bucket_count"] = buckets_.size();
    h["decision_count"] = decisions_.size();

    std::string out = h.dump(-1) + "\n";
    for (const auto& [key, cell] : buckets_) {
        out += '{';
        JsonMembers b(out);
        b.string("type", "bucket");
        b.number("rank", key.rank);
        b.string("function", fn_name(key.function));
        b.string("phase", to_string(static_cast<LedgerPhase>(key.phase)));
        b.number("freq_mhz", cell.freq_mhz);
        b.number("energy_j", cell.energy_j);
        b.number("time_s", cell.time_s);
        b.number("calls", static_cast<double>(cell.calls));
        out += "}\n";
    }
    for (const AuditedDecision& d : decisions_) {
        out += '{';
        JsonMembers line(out);
        line.string("type", "decision");
        describe_decision(line, d);
        out += "}\n";
    }
    return out;
}

bool AttributionLedger::write_jsonl(const std::string& path, const Json& header) const
{
    return util::atomic_write_file(path, jsonl(header));
}

void AttributionLedger::save_state(checkpoint::StateWriter& writer) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    writer.put_i64("n_ranks", n_ranks_);
    writer.put_i64("steps_completed", steps_completed_);
    writer.put_i64("next_decision_id", next_decision_id_);
    // Buckets by column, in key order.
    std::vector<std::int64_t> rank, function, phase, calls;
    std::vector<double> freq, energy, time;
    for (const auto& [key, cell] : buckets_) {
        rank.push_back(key.rank);
        function.push_back(key.function);
        phase.push_back(key.phase);
        freq.push_back(cell.freq_mhz);
        energy.push_back(cell.energy_j);
        time.push_back(cell.time_s);
        calls.push_back(cell.calls);
    }
    writer.put_i64_vec("bucket.rank", rank);
    writer.put_i64_vec("bucket.fn", function);
    writer.put_i64_vec("bucket.phase", phase);
    writer.put_f64_vec("bucket.freq_mhz", freq);
    writer.put_f64_vec("bucket.energy_j", energy);
    writer.put_f64_vec("bucket.time_s", time);
    writer.put_i64_vec("bucket.calls", calls);
    // A decision changes only while a pending_ entry points at it, and an
    // entry is only ever set to the decision just appended: the decisions
    // before the first pending one are settled, and logged once.
    std::size_t settled = decisions_.size();
    for (const std::int64_t p : pending_) {
        if (p >= 0) settled = std::min(settled, static_cast<std::size_t>(p));
    }
    checkpoint::StateWriter& log = writer.log();
    if (logged_decisions_ < settled) {
        put_decisions_locked(log, "dec." + std::to_string(logged_chunks_++) + ".",
                             logged_decisions_, settled);
        logged_decisions_ = settled;
    }
    put_decisions_locked(writer, "tail.", logged_decisions_, decisions_.size());
    for (; logged_strings_ < strings_.size(); ++logged_strings_) {
        log.put_str("str." + std::to_string(logged_strings_), strings_[logged_strings_]);
    }
    writer.put_u64("strings", strings_.size());
    writer.put_u64("chunks", logged_chunks_);
    // Pending-decision indices, shifted by one so "none" (-1) encodes as 0.
    std::vector<std::uint64_t> pending(pending_.size());
    for (std::size_t k = 0; k < pending_.size(); ++k) {
        pending[k] = static_cast<std::uint64_t>(pending_[k] + 1);
    }
    writer.put_u64_vec("pending", pending);
}

std::uint32_t AttributionLedger::string_id_locked(const std::string& s) const
{
    const auto [it, added] =
        string_ids_.try_emplace(s, static_cast<std::uint32_t>(strings_.size()));
    if (added) strings_.push_back(s);
    return it->second;
}

void AttributionLedger::put_decisions_locked(checkpoint::StateWriter& writer,
                                             const std::string& prefix, std::size_t from,
                                             std::size_t to) const
{
    std::vector<std::int64_t> id, step, rank, function;
    std::vector<std::uint64_t> policy, trace, resolved, n_candidates, n_inputs, input_name;
    std::vector<double> candidate, chosen, predicted, realized, input_value;
    for (std::size_t d = from; d < to; ++d) {
        const AuditedDecision& dec = decisions_[d];
        const DecisionRecord& r = dec.record;
        id.push_back(dec.id);
        step.push_back(dec.step);
        policy.push_back(string_id_locked(r.policy));
        rank.push_back(r.rank);
        function.push_back(r.function);
        n_candidates.push_back(r.candidate_mhz.size());
        candidate.insert(candidate.end(), r.candidate_mhz.begin(), r.candidate_mhz.end());
        chosen.push_back(r.chosen_mhz);
        predicted.push_back(r.predicted_edp);
        trace.push_back(string_id_locked(r.trace_id));
        resolved.push_back(dec.resolved ? 1 : 0);
        realized.push_back(dec.realized_edp);
        n_inputs.push_back(r.inputs.size());
        for (const auto& [name, value] : r.inputs) {
            input_name.push_back(string_id_locked(name));
            input_value.push_back(value);
        }
    }
    writer.put_i64_vec(prefix + "id", id);
    writer.put_i64_vec(prefix + "step", step);
    writer.put_u64_vec(prefix + "policy", policy);
    writer.put_i64_vec(prefix + "rank", rank);
    writer.put_i64_vec(prefix + "fn", function);
    writer.put_u64_vec(prefix + "ncand", n_candidates);
    writer.put_f64_vec(prefix + "cand", candidate);
    writer.put_f64_vec(prefix + "chosen", chosen);
    writer.put_f64_vec(prefix + "predicted", predicted);
    writer.put_u64_vec(prefix + "trace", trace);
    writer.put_u64_vec(prefix + "resolved", resolved);
    writer.put_f64_vec(prefix + "realized", realized);
    writer.put_u64_vec(prefix + "ninputs", n_inputs);
    writer.put_u64_vec(prefix + "input", input_name);
    writer.put_f64_vec(prefix + "value", input_value);
}

void AttributionLedger::restore_state(const checkpoint::StateReader& reader)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t n = reader.get_i64("n_ranks");
    if (n != n_ranks_) {
        throw checkpoint::CheckpointError(
            "ledger: checkpoint has " + std::to_string(n) + " ranks, run has " +
            std::to_string(n_ranks_));
    }
    steps_completed_ = static_cast<int>(reader.get_i64("steps_completed"));
    next_decision_id_ = reader.get_i64("next_decision_id");
    // on_step_end swept every rank up to its device's energy and time, so a
    // rank restarts unprimed: its first before-hook primes it there again.
    ranks_.assign(ranks_.size(), RankState{});
    buckets_.clear();
    const std::vector<std::int64_t> ranks = reader.get_i64_vec("bucket.rank");
    const std::size_t n_buckets = ranks.size();
    const auto functions = sized(reader.get_i64_vec("bucket.fn"), n_buckets, "bucket.fn");
    const auto phases = sized(reader.get_i64_vec("bucket.phase"), n_buckets, "bucket.phase");
    const auto freqs =
        sized(reader.get_f64_vec("bucket.freq_mhz"), n_buckets, "bucket.freq_mhz");
    const auto energies =
        sized(reader.get_f64_vec("bucket.energy_j"), n_buckets, "bucket.energy_j");
    const auto times = sized(reader.get_f64_vec("bucket.time_s"), n_buckets, "bucket.time_s");
    const auto calls = sized(reader.get_i64_vec("bucket.calls"), n_buckets, "bucket.calls");
    for (std::size_t i = 0; i < n_buckets; ++i) {
        Cell& cell = cell_locked(checked_int(ranks[i], "bucket.rank"),
                                 checked_int(functions[i], "bucket.fn"),
                                 static_cast<LedgerPhase>(checked_int(phases[i], "bucket.phase")),
                                 freqs[i]);
        cell.energy_j = energies[i];
        cell.time_s = times[i];
        cell.calls = static_cast<long>(calls[i]);
    }

    strings_.clear();
    string_ids_.clear();
    const std::uint64_t n_strings = reader.get_u64("strings");
    for (std::uint64_t i = 0; i < n_strings; ++i) {
        strings_.push_back(reader.get_str("str." + std::to_string(i)));
        string_ids_.try_emplace(strings_.back(), static_cast<std::uint32_t>(i));
    }
    decisions_.clear();
    const std::uint64_t chunks = reader.get_u64("chunks");
    for (std::uint64_t k = 0; k < chunks; ++k) {
        append_decisions(reader, "dec." + std::to_string(k) + ".", strings_, decisions_);
    }
    logged_strings_ = strings_.size();
    logged_decisions_ = decisions_.size();
    logged_chunks_ = chunks;
    append_decisions(reader, "tail.", strings_, decisions_);

    const std::vector<std::uint64_t> pending = reader.get_u64_vec("pending");
    if (pending.size() != pending_.size()) {
        throw checkpoint::CheckpointError(
            "ledger: pending vector has " + std::to_string(pending.size()) +
            " entries, expected " + std::to_string(pending_.size()));
    }
    for (std::size_t k = 0; k < pending_.size(); ++k) {
        if (pending[k] > decisions_.size()) {
            throw checkpoint::CheckpointError("ledger: pending holds decision " +
                                              std::to_string(pending[k] - 1) + " of " +
                                              std::to_string(decisions_.size()));
        }
        pending_[k] = static_cast<std::int64_t>(pending[k]) - 1;
    }
}

} // namespace gsph::telemetry
