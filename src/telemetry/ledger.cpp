#include "telemetry/ledger.hpp"

#include "sph/functions.hpp"
#include "telemetry/metrics.hpp"
#include "util/atomic_file.hpp"

#include <algorithm>
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

private:
    std::string& out_;
    bool first_ = true;
};

/// The members of one decision.  A repeated input name keeps its first
/// position and its last value, as in a Json object.
void append_decision(JsonMembers& m, const AuditedDecision& d)
{
    const DecisionRecord& r = d.record;
    m.number("id", static_cast<double>(d.id));
    m.number("step", d.step);
    m.string("policy", r.policy);
    m.number("rank", r.rank);
    m.string("function", fn_name(r.function));
    std::string& candidates = m.key("candidate_mhz");
    candidates += '[';
    for (std::size_t i = 0; i < r.candidate_mhz.size(); ++i) {
        if (i) candidates += ',';
        append_json_number(candidates, r.candidate_mhz[i]);
    }
    candidates += ']';
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
    std::string& inputs_text = m.key("inputs");
    inputs_text += '{';
    JsonMembers inputs(inputs_text);
    for (std::size_t i = 0; i < r.inputs.size(); ++i) {
        const std::string& name = r.inputs[i].first;
        bool repeated = false;
        for (std::size_t k = 0; k < i && !repeated; ++k) repeated = r.inputs[k].first == name;
        if (repeated) continue;
        double value = r.inputs[i].second;
        for (std::size_t k = i + 1; k < r.inputs.size(); ++k) {
            if (r.inputs[k].first == name) value = r.inputs[k].second;
        }
        inputs.number(name, value);
    }
    inputs_text += '}';
    m.boolean("resolved", d.resolved);
    m.number("realized_edp", d.realized_edp);
    if (d.resolved && r.predicted_edp > 0.0) {
        m.number("prediction_error", (d.realized_edp - r.predicted_edp) / r.predicted_edp);
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
    // The live view parses the JSONL writer's text: one encoder per record.
    std::string text;
    for (std::size_t i = start; i < decisions_.size(); ++i) {
        text = "{";
        JsonMembers members(text);
        append_decision(members, decisions_[i]);
        text += '}';
        decisions.push_back(Json::parse(text));
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

bool AttributionLedger::write_jsonl(const std::string& path,
                                    const Json& header) const
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
        append_decision(line, d);
        out += "}\n";
    }
    return util::atomic_write_file(path, out);
}

void AttributionLedger::save_state(checkpoint::StateWriter& writer) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    writer.put_i64("n_ranks", n_ranks_);
    writer.put_i64("steps_completed", steps_completed_);
    writer.put_i64("next_decision_id", next_decision_id_);
    for (int r = 0; r < n_ranks_; ++r) {
        const RankState& rs = ranks_[static_cast<std::size_t>(r)];
        const std::string prefix = "rank." + std::to_string(r) + ".";
        writer.put_bool(prefix + "primed", rs.primed);
        writer.put_f64(prefix + "last_energy_j", rs.last_energy_j);
        writer.put_f64(prefix + "last_time_s", rs.last_time_s);
        writer.put_i64(prefix + "prev_function", rs.prev_function);
        writer.put_f64(prefix + "applied_mhz", rs.applied_mhz);
    }
    writer.put_u64("buckets", buckets_.size());
    std::size_t i = 0;
    for (const auto& [key, cell] : buckets_) {
        const std::string prefix = "bucket." + std::to_string(i) + ".";
        writer.put_i64(prefix + "rank", key.rank);
        writer.put_i64(prefix + "function", key.function);
        writer.put_i64(prefix + "phase", key.phase);
        writer.put_f64(prefix + "freq_mhz", cell.freq_mhz);
        writer.put_f64(prefix + "energy_j", cell.energy_j);
        writer.put_f64(prefix + "time_s", cell.time_s);
        writer.put_i64(prefix + "calls", cell.calls);
        ++i;
    }
    // A decision's lines change only while a pending_ entry points at it,
    // and an entry is only ever set to the decision just appended: the
    // lines of the decisions before the first pending one are kept between
    // saves.
    std::size_t settled = decisions_.size();
    for (const std::int64_t p : pending_) {
        if (p >= 0) settled = std::min(settled, static_cast<std::size_t>(p));
    }
    for (std::size_t d = saved_decisions_.size(); d < settled; ++d) {
        checkpoint::StateWriter lines;
        put_decision_locked(lines, d);
        saved_decisions_.push_lines(lines);
    }
    writer.put_u64("decisions", decisions_.size());
    writer.put_lines(saved_decisions_);
    for (std::size_t d = settled; d < decisions_.size(); ++d) put_decision_locked(writer, d);
    // Pending-decision indices, shifted by one so "none" (-1) encodes as 0.
    std::vector<std::uint64_t> pending(pending_.size());
    for (std::size_t k = 0; k < pending_.size(); ++k) {
        pending[k] = static_cast<std::uint64_t>(pending_[k] + 1);
    }
    writer.put_u64_vec("pending", pending);
}

void AttributionLedger::put_decision_locked(checkpoint::StateWriter& writer,
                                            std::size_t d) const
{
    const AuditedDecision& dec = decisions_[d];
    const std::string prefix = "decision." + std::to_string(d) + ".";
    writer.put_i64(prefix + "id", dec.id);
    writer.put_i64(prefix + "step", dec.step);
    writer.put_str(prefix + "policy", dec.record.policy);
    writer.put_i64(prefix + "rank", dec.record.rank);
    writer.put_i64(prefix + "function", dec.record.function);
    writer.put_f64_vec(prefix + "candidate_mhz", dec.record.candidate_mhz);
    writer.put_f64(prefix + "chosen_mhz", dec.record.chosen_mhz);
    writer.put_f64(prefix + "predicted_edp", dec.record.predicted_edp);
    // Written only when set: older checkpoints (and untraced runs)
    // simply lack the key, and restore tolerates that via has().
    if (!dec.record.trace_id.empty()) {
        writer.put_str(prefix + "trace_id", dec.record.trace_id);
    }
    writer.put_bool(prefix + "resolved", dec.resolved);
    writer.put_f64(prefix + "realized_edp", dec.realized_edp);
    writer.put_u64(prefix + "inputs", dec.record.inputs.size());
    for (std::size_t k = 0; k < dec.record.inputs.size(); ++k) {
        const std::string ip = prefix + "input." + std::to_string(k) + ".";
        writer.put_str(ip + "name", dec.record.inputs[k].first);
        writer.put_f64(ip + "value", dec.record.inputs[k].second);
    }
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
    for (int r = 0; r < n_ranks_; ++r) {
        RankState& rs = ranks_[static_cast<std::size_t>(r)];
        const std::string prefix = "rank." + std::to_string(r) + ".";
        rs.primed = reader.get_bool(prefix + "primed");
        rs.last_energy_j = reader.get_f64(prefix + "last_energy_j");
        rs.last_time_s = reader.get_f64(prefix + "last_time_s");
        rs.prev_function = static_cast<int>(reader.get_i64(prefix + "prev_function"));
        rs.applied_mhz = reader.get_f64(prefix + "applied_mhz");
        rs.dev = nullptr; // re-bound by the first before_function hook
    }
    buckets_.clear();
    const std::uint64_t n_buckets = reader.get_u64("buckets");
    for (std::uint64_t i = 0; i < n_buckets; ++i) {
        const std::string prefix = "bucket." + std::to_string(i) + ".";
        const int rank = static_cast<int>(reader.get_i64(prefix + "rank"));
        const int function = static_cast<int>(reader.get_i64(prefix + "function"));
        const int phase = static_cast<int>(reader.get_i64(prefix + "phase"));
        const double freq = reader.get_f64(prefix + "freq_mhz");
        Cell& cell = cell_locked(rank, function,
                                 static_cast<LedgerPhase>(phase), freq);
        cell.energy_j = reader.get_f64(prefix + "energy_j");
        cell.time_s = reader.get_f64(prefix + "time_s");
        cell.calls = static_cast<long>(reader.get_i64(prefix + "calls"));
    }
    decisions_.clear();
    saved_decisions_.clear();
    const std::uint64_t n_decisions = reader.get_u64("decisions");
    decisions_.reserve(n_decisions);
    for (std::uint64_t d = 0; d < n_decisions; ++d) {
        const std::string prefix = "decision." + std::to_string(d) + ".";
        AuditedDecision dec;
        dec.id = reader.get_i64(prefix + "id");
        dec.step = static_cast<int>(reader.get_i64(prefix + "step"));
        dec.record.policy = reader.get_str(prefix + "policy");
        dec.record.rank = static_cast<int>(reader.get_i64(prefix + "rank"));
        dec.record.function =
            static_cast<int>(reader.get_i64(prefix + "function"));
        dec.record.candidate_mhz = reader.get_f64_vec(prefix + "candidate_mhz");
        dec.record.chosen_mhz = reader.get_f64(prefix + "chosen_mhz");
        dec.record.predicted_edp = reader.get_f64(prefix + "predicted_edp");
        if (reader.has(prefix + "trace_id")) {
            dec.record.trace_id = reader.get_str(prefix + "trace_id");
        }
        dec.resolved = reader.get_bool(prefix + "resolved");
        dec.realized_edp = reader.get_f64(prefix + "realized_edp");
        const std::uint64_t n_inputs = reader.get_u64(prefix + "inputs");
        for (std::uint64_t k = 0; k < n_inputs; ++k) {
            const std::string ip = prefix + "input." + std::to_string(k) + ".";
            dec.record.inputs.emplace_back(reader.get_str(ip + "name"),
                                           reader.get_f64(ip + "value"));
        }
        decisions_.push_back(std::move(dec));
    }
    const std::vector<std::uint64_t> pending = reader.get_u64_vec("pending");
    if (pending.size() != pending_.size()) {
        throw checkpoint::CheckpointError(
            "ledger: pending vector has " + std::to_string(pending.size()) +
            " entries, expected " + std::to_string(pending_.size()));
    }
    for (std::size_t k = 0; k < pending_.size(); ++k) {
        pending_[k] = static_cast<std::int64_t>(pending[k]) - 1;
    }
}

} // namespace gsph::telemetry
