#include "faults/fault_injector.hpp"

#include "telemetry/metrics.hpp"
#include "util/strings.hpp"

#include <atomic>
#include <chrono>
#include <csignal>
#include <stdexcept>
#include <thread>

namespace gsph::faults {

namespace {

telemetry::Counter& injected_counter(const char* name)
{
    return telemetry::MetricsRegistry::global().counter(name);
}

[[noreturn]] void spec_fail(const std::string& what, const std::string& value)
{
    throw std::invalid_argument("FaultSpec::parse: bad " + what + " '" + value + "'");
}

double parse_probability(const std::string& s, const std::string& what)
{
    double v = 0.0;
    try {
        std::size_t pos = 0;
        v = std::stod(s, &pos);
        if (pos != s.size()) spec_fail(what, s);
    }
    catch (const std::invalid_argument&) {
        spec_fail(what, s);
    }
    catch (const std::out_of_range&) {
        spec_fail(what, s);
    }
    if (!(v >= 0.0 && v <= 1.0)) spec_fail(what + " (want 0..1)", s);
    return v;
}

double parse_nonnegative(const std::string& s, const std::string& what)
{
    double v = 0.0;
    try {
        std::size_t pos = 0;
        v = std::stod(s, &pos);
        if (pos != s.size()) spec_fail(what, s);
    }
    catch (const std::invalid_argument&) {
        spec_fail(what, s);
    }
    catch (const std::out_of_range&) {
        spec_fail(what, s);
    }
    if (v < 0.0) spec_fail(what + " (want >= 0)", s);
    return v;
}

long long parse_count(const std::string& s, const std::string& what)
{
    long long v = 0;
    try {
        std::size_t pos = 0;
        v = std::stoll(s, &pos);
        if (pos != s.size()) spec_fail(what, s);
    }
    catch (const std::invalid_argument&) {
        spec_fail(what, s);
    }
    catch (const std::out_of_range&) {
        spec_fail(what, s);
    }
    if (v < 0) spec_fail(what + " (want >= 0)", s);
    return v;
}

std::atomic<FaultInjector*> g_injector{nullptr};

} // namespace

bool FaultSpec::any() const
{
    return transient_set_p > 0.0 || perm_lose_after >= 0 || stuck_at >= 0 ||
           energy_reset_p > 0.0 || slow_p > 0.0 || kill_at_step >= 0;
}

FaultSpec FaultSpec::parse(const std::string& text)
{
    FaultSpec spec;
    if (util::trim(text).empty()) return spec;
    for (const auto& clause_text : util::split(text, ';')) {
        const std::string clause = util::trim(clause_text);
        if (clause.empty()) continue;
        const auto colon = clause.find(':');
        const std::string name = util::trim(clause.substr(0, colon));
        std::map<std::string, std::string> kv;
        if (colon != std::string::npos) {
            for (const auto& pair_text : util::split(clause.substr(colon + 1), ',')) {
                const auto eq = pair_text.find('=');
                if (eq == std::string::npos) spec_fail("key=value pair", pair_text);
                kv[util::trim(pair_text.substr(0, eq))] =
                    util::trim(pair_text.substr(eq + 1));
            }
        }
        auto require = [&](const char* key) -> std::string {
            const auto it = kv.find(key);
            if (it == kv.end()) {
                throw std::invalid_argument("FaultSpec::parse: clause '" + name +
                                            "' needs " + key + "=");
            }
            std::string value = it->second;
            kv.erase(it);
            return value;
        };
        auto optional = [&](const char* key, std::string fallback) -> std::string {
            const auto it = kv.find(key);
            if (it == kv.end()) return fallback;
            std::string value = it->second;
            kv.erase(it);
            return value;
        };
        if (name == "transient-set") {
            spec.transient_set_p = parse_probability(require("p"), "transient-set p");
        }
        else if (name == "perm-loss") {
            spec.perm_lose_after = parse_count(require("after"), "perm-loss after");
        }
        else if (name == "stuck") {
            spec.stuck_at = parse_count(require("at"), "stuck at");
            spec.stuck_count = parse_count(optional("count", "1"), "stuck count");
            if (spec.stuck_count < 1) spec_fail("stuck count (want >= 1)", "0");
        }
        else if (name == "energy-wrap") {
            spec.energy_reset_p = parse_probability(require("p"), "energy-wrap p");
        }
        else if (name == "slow") {
            spec.slow_p = parse_probability(require("p"), "slow p");
            spec.slow_ms = parse_nonnegative(optional("ms", "1"), "slow ms");
        }
        else if (name == "kill-at-step") {
            spec.kill_at_step = parse_count(require("step"), "kill-at-step step");
        }
        else {
            throw std::invalid_argument("FaultSpec::parse: unknown fault class '" +
                                        name + "'");
        }
        if (!kv.empty()) {
            throw std::invalid_argument("FaultSpec::parse: clause '" + name +
                                        "': unknown key '" + kv.begin()->first + "'");
        }
    }
    return spec;
}

std::string FaultSpec::describe() const
{
    std::string out;
    auto append = [&](const std::string& clause) {
        if (!out.empty()) out += ';';
        out += clause;
    };
    if (transient_set_p > 0.0) {
        append("transient-set:p=" + util::format_fixed(transient_set_p, 3));
    }
    if (perm_lose_after >= 0) {
        append("perm-loss:after=" + std::to_string(perm_lose_after));
    }
    if (stuck_at >= 0) {
        append("stuck:at=" + std::to_string(stuck_at) +
               ",count=" + std::to_string(stuck_count));
    }
    if (energy_reset_p > 0.0) {
        append("energy-wrap:p=" + util::format_fixed(energy_reset_p, 3));
    }
    if (slow_p > 0.0) {
        append("slow:p=" + util::format_fixed(slow_p, 3) +
               ",ms=" + util::format_fixed(slow_ms, 1));
    }
    if (kill_at_step >= 0) {
        append("kill-at-step:step=" + std::to_string(kill_at_step));
    }
    return out.empty() ? "(none)" : out;
}

FaultInjector::FaultInjector(FaultSpec spec, std::uint64_t seed)
    : spec_(spec), rng_(seed)
{
}

void FaultInjector::maybe_stall_locked()
{
    if (spec_.slow_p <= 0.0) return;
    if (rng_.uniform() >= spec_.slow_p) return;
    static telemetry::Counter& slow = injected_counter("faults.injected.slow_calls");
    slow.inc();
    if (spec_.slow_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<long long>(spec_.slow_ms * 1000.0)));
    }
}

Outcome FaultInjector::decide(Op op)
{
    (void)op; // set and reset share the write counter and fault classes
    std::lock_guard<std::mutex> lock(mutex_);
    maybe_stall_locked();
    const long long call = clock_writes_++;
    if (spec_.perm_lose_after >= 0 && call >= spec_.perm_lose_after) {
        static telemetry::Counter& perm = injected_counter("faults.injected.perm_denied");
        perm.inc();
        return Outcome::kPermissionDenied;
    }
    if (spec_.stuck_at >= 0 && call >= spec_.stuck_at &&
        call < spec_.stuck_at + spec_.stuck_count) {
        static telemetry::Counter& stuck = injected_counter("faults.injected.stuck");
        stuck.inc();
        return Outcome::kStuck;
    }
    if (spec_.transient_set_p > 0.0 && rng_.uniform() < spec_.transient_set_p) {
        static telemetry::Counter& transient =
            injected_counter("faults.injected.transient");
        transient.inc();
        return Outcome::kTransientError;
    }
    return Outcome::kNone;
}

std::uint64_t FaultInjector::transform_energy(EnergyDomain domain,
                                              unsigned int device_index,
                                              std::uint64_t raw)
{
    std::lock_guard<std::mutex> lock(mutex_);
    maybe_stall_locked();
    if (spec_.energy_reset_p <= 0.0) return raw;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(domain) << 32) | device_index;
    if (rng_.uniform() < spec_.energy_reset_p) {
        static telemetry::Counter& resets =
            injected_counter("faults.injected.energy_reset");
        resets.inc();
        energy_offsets_[key] = raw;
    }
    const auto it = energy_offsets_.find(key);
    if (it == energy_offsets_.end()) return raw;
    return raw >= it->second ? raw - it->second : 0;
}

void FaultInjector::on_step_end(int step)
{
    if (spec_.kill_at_step < 0 || step != spec_.kill_at_step) return;
    // A real node failure gives no opportunity to flush or unwind; SIGKILL
    // cannot be caught, so the process dies exactly as hard.
    ::raise(SIGKILL);
}

long long FaultInjector::clock_writes_seen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return clock_writes_;
}

void FaultInjector::save_state(checkpoint::StateWriter& writer) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const util::Rng::State rng = rng_.state();
    // The injector draws only uniform(), so the Gaussian cache stays empty.
    writer.put_u64_vec("rng.s", {rng.s[0], rng.s[1], rng.s[2], rng.s[3]});
    writer.put_i64("clock_writes", clock_writes_);
    writer.put_u64("energy_offsets", energy_offsets_.size());
    std::size_t i = 0;
    for (const auto& [key, offset] : energy_offsets_) {
        const std::string prefix = "offset." + std::to_string(i++) + ".";
        writer.put_u64(prefix + "key", key);
        writer.put_u64(prefix + "value", offset);
    }
}

void FaultInjector::restore_state(const checkpoint::StateReader& reader)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto s = reader.get_u64_vec("rng.s");
    if (s.size() != 4) {
        throw checkpoint::CheckpointError("faults: rng.s must have 4 words");
    }
    util::Rng::State rng;
    rng.s = {s[0], s[1], s[2], s[3]};
    rng_.set_state(rng);
    clock_writes_ = reader.get_i64("clock_writes");
    energy_offsets_.clear();
    const std::uint64_t n = reader.get_u64("energy_offsets");
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::string prefix = "offset." + std::to_string(i) + ".";
        energy_offsets_[reader.get_u64(prefix + "key")] =
            reader.get_u64(prefix + "value");
    }
}

void install(FaultInjector* injector)
{
    g_injector.store(injector, std::memory_order_release);
}

FaultInjector* active() { return g_injector.load(std::memory_order_acquire); }

void notify_step_end(int step)
{
    if (FaultInjector* injector = active()) injector->on_step_end(step);
}

ScopedFaultInjection::ScopedFaultInjection(FaultSpec spec, std::uint64_t seed)
    : injector_(spec, seed)
{
    install(&injector_);
}

ScopedFaultInjection::~ScopedFaultInjection() { install(nullptr); }

} // namespace gsph::faults
