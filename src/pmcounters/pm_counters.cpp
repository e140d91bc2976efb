#include "pmcounters/pm_counters.hpp"

#include "util/strings.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace gsph::pmcounters {

PmCounters::PmCounters(PmCountersConfig config, cpusim::CpuDevice* cpu,
                       std::vector<gpusim::GpuDevice*> gpus)
    : config_(config), cpu_(cpu), gpus_(std::move(gpus))
{
    if (!cpu_) throw std::invalid_argument("PmCounters: null CPU");
    if (config_.sample_hz <= 0.0) throw std::invalid_argument("PmCounters: bad sample rate");
    if (config_.gcds_per_accel_file < 1)
        throw std::invalid_argument("PmCounters: bad gcds_per_accel_file");
    if (config_.counter_wrap_j < 0.0)
        throw std::invalid_argument("PmCounters: bad counter_wrap_j");
    if (!gpus_.empty() &&
        static_cast<int>(gpus_.size()) % config_.gcds_per_accel_file != 0) {
        throw std::invalid_argument("PmCounters: GPU count not divisible by GCDs per file");
    }
    published_.accel_energy_j.assign(static_cast<std::size_t>(accel_file_count()), 0.0);
    publish(0.0);
    next_tick_ = 1.0 / config_.sample_hz;
}

int PmCounters::accel_file_count() const
{
    return static_cast<int>(gpus_.size()) / config_.gcds_per_accel_file;
}

void PmCounters::publish(double now)
{
    // Power = energy delta over the sampling window (the BMC computes it the
    // same way); none over an empty window.
    Snapshot& s = published_;
    const double dt = now - s.time;
    const bool powered = dt > 0.0;
    s.time = now;

    const double cpu_j = cpu_->package_energy_j();
    const double mem_j = cpu_->dram_energy_j();
    s.cpu_power_w = powered ? (cpu_j - s.cpu_energy_j) / dt : 0.0;
    s.memory_power_w = powered ? (mem_j - s.memory_energy_j) / dt : 0.0;
    s.cpu_energy_j = cpu_j;
    s.memory_energy_j = mem_j;

    // The GPUs of one file are adjacent, so each file sums its own in GPU
    // order, as the node total sums them all.
    const std::size_t per_file = static_cast<std::size_t>(config_.gcds_per_accel_file);
    s.accel_power_w.resize(powered ? s.accel_energy_j.size() : 0);
    double accel_total = 0.0;
    for (std::size_t file = 0; file < s.accel_energy_j.size(); ++file) {
        double file_j = 0.0;
        for (std::size_t g = file * per_file; g < (file + 1) * per_file; ++g) {
            file_j += gpus_[g]->energy_j();
            accel_total += gpus_[g]->energy_j();
        }
        if (powered) s.accel_power_w[file] = (file_j - s.accel_energy_j[file]) / dt;
        s.accel_energy_j[file] = file_j;
    }

    const double aux_energy = config_.aux_power_w * now;
    double node_j = cpu_j + mem_j + accel_total + aux_energy;
    if (config_.counter_wrap_j > 0.0) {
        node_j = std::fmod(node_j, config_.counter_wrap_j);
    }
    s.node_power_w = powered ? (node_j - s.node_energy_j) / dt : 0.0;
    s.node_energy_j = node_j;
}

double next_tick_after(double tick, double period, double limit)
{
    // Inside one binade [2^e, 2^(e+1)) every double is a multiple of its ulp
    // u, so tick + period rounds to that grid whenever the sum stays in the
    // binade, and the step fl(tick + period) - tick (exact: Sterbenz) is
    // period rounded to a multiple of u, the same for every tick; on a
    // round-half-even tie it depends on the parity of tick / u, which the
    // first step inside the binade fixes.  So once two consecutive steps
    // inside a binade agree, every later step that ends inside it is the
    // same `step`, and n of them are one exact tick + n * step.  Steps that
    // end in the next binade, or start off the normal positive range, are
    // plain additions.
    constexpr std::uint64_t kExponent = 0x7ff0'0000'0000'0000;
    constexpr std::uint64_t kOneBinade = std::uint64_t{1} << 52;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double step = 0.0; // the previous step, when it stayed in its binade
    while (tick <= limit) {
        const double next = tick + period;
        if (!(next > tick)) {
            throw std::runtime_error("pm_counters: the sampling period no longer moves "
                                     "the next tick");
        }
        const double top = std::bit_cast<double>(
            (std::bit_cast<std::uint64_t>(tick) & kExponent) + kOneBinade);
        const bool in_binade = tick >= std::numeric_limits<double>::min() && top < kInf &&
                               next < top;
        const double previous = step;
        step = in_binade ? next - tick : 0.0;
        tick = next;
        if (!in_binade || step != previous) continue;

        // The n further steps from tick whose starts are at or under the
        // limit and whose ends are under top.  Each product and sum below is
        // a multiple of u under top, so exact; a floor of a rounded quotient
        // is at most one too high, which the checks take back.
        double n = std::floor((top - tick) / step);
        if (!(tick + n * step < top)) n -= 1.0;
        n = std::min(n, std::floor((limit - tick) / step) + 1.0);
        while (n > 0.0 && !(tick + (n - 1.0) * step <= limit)) n -= 1.0;
        if (n > 0.0) tick += n * step;
    }
    return tick;
}

void PmCounters::sample_to(double now)
{
    if (now < published_.time) {
        throw std::invalid_argument("PmCounters: time went backwards");
    }
    const double limit = now + 1e-12;
    if (!(next_tick_ <= limit)) return;
    next_tick_ = next_tick_after(next_tick_, 1.0 / config_.sample_hz, limit);
    publish(now);
    ++published_.freshness;
}

double PmCounters::accel_energy_j(int file_index) const
{
    if (file_index < 0 ||
        file_index >= static_cast<int>(published_.accel_energy_j.size())) {
        throw std::out_of_range("PmCounters: accel file index");
    }
    return published_.accel_energy_j[static_cast<std::size_t>(file_index)];
}

double PmCounters::other_energy_j() const
{
    double accel = 0.0;
    for (double e : published_.accel_energy_j) accel += e;
    return published_.node_energy_j - published_.cpu_energy_j - published_.memory_energy_j -
           accel;
}

std::vector<std::string> PmCounters::list_files() const
{
    std::vector<std::string> files = {"energy",       "power",        "cpu_energy",
                                      "cpu_power",    "memory_energy", "memory_power",
                                      "freshness",    "generation",    "raw_scan_hz"};
    for (int i = 0; i < accel_file_count(); ++i) {
        files.push_back("accel" + std::to_string(i) + "_energy");
        files.push_back("accel" + std::to_string(i) + "_power");
    }
    return files;
}

std::optional<std::string> PmCounters::read_file(const std::string& name) const
{
    auto joules = [](double j) {
        return std::to_string(static_cast<long long>(std::llround(j))) + " J";
    };
    auto watts = [](double w) {
        return std::to_string(static_cast<long long>(std::llround(w))) + " W";
    };

    if (name == "energy") return joules(published_.node_energy_j);
    if (name == "power") return watts(published_.node_power_w);
    if (name == "cpu_energy") return joules(published_.cpu_energy_j);
    if (name == "cpu_power") return watts(published_.cpu_power_w);
    if (name == "memory_energy") return joules(published_.memory_energy_j);
    if (name == "memory_power") return watts(published_.memory_power_w);
    if (name == "freshness") return std::to_string(published_.freshness);
    if (name == "generation") return std::string("1");
    if (name == "raw_scan_hz") {
        return std::to_string(static_cast<long long>(std::llround(config_.sample_hz)));
    }
    if (util::starts_with(name, "accel")) {
        // accel<i>_energy / accel<i>_power
        const std::size_t us = name.find('_');
        if (us == std::string::npos) return std::nullopt;
        const std::string idx_str = name.substr(5, us - 5);
        const std::string kind = name.substr(us + 1);
        try {
            const int idx = std::stoi(idx_str);
            if (idx < 0 || idx >= accel_file_count()) return std::nullopt;
            if (kind == "energy") {
                return joules(published_.accel_energy_j[static_cast<std::size_t>(idx)]);
            }
            if (kind == "power") {
                const auto& pw = published_.accel_power_w;
                const double w =
                    static_cast<std::size_t>(idx) < pw.size() ? pw[static_cast<std::size_t>(idx)] : 0.0;
                return watts(w);
            }
        }
        catch (const std::exception&) {
            return std::nullopt;
        }
    }
    return std::nullopt;
}

void PmCounters::save_state(checkpoint::StateWriter& writer) const
{
    writer.put_f64("next_tick", next_tick_);
    writer.put_f64("published.time", published_.time);
    writer.put_f64("published.node_j", published_.node_energy_j);
    writer.put_f64("published.cpu_j", published_.cpu_energy_j);
    writer.put_f64("published.mem_j", published_.memory_energy_j);
    writer.put_f64_vec("published.accel_j", published_.accel_energy_j);
    writer.put_f64("published.node_w", published_.node_power_w);
    writer.put_f64("published.cpu_w", published_.cpu_power_w);
    writer.put_f64("published.mem_w", published_.memory_power_w);
    writer.put_f64_vec("published.accel_w", published_.accel_power_w);
    writer.put_i64("published.freshness", published_.freshness);
}

void PmCounters::restore_state(const checkpoint::StateReader& reader)
{
    // publish() writes both vectors in place, one entry per accelerator file.
    const std::size_t files = static_cast<std::size_t>(accel_file_count());
    const auto per_file = [&](const std::string& key, bool may_be_empty) {
        std::vector<double> values = reader.get_f64_vec(key);
        if (values.size() != files && !(may_be_empty && values.empty())) {
            throw checkpoint::CheckpointError("pm_counters '" + key + "': " +
                                              std::to_string(values.size()) +
                                              " entries for " + std::to_string(files) +
                                              " accelerator files");
        }
        return values;
    };
    std::vector<double> accel_j = per_file("published.accel_j", false);
    // Empty when the published window had no length, so no powers.
    std::vector<double> accel_w = per_file("published.accel_w", true);

    next_tick_ = reader.get_f64("next_tick");
    published_.time = reader.get_f64("published.time");
    published_.node_energy_j = reader.get_f64("published.node_j");
    published_.cpu_energy_j = reader.get_f64("published.cpu_j");
    published_.memory_energy_j = reader.get_f64("published.mem_j");
    published_.accel_energy_j = std::move(accel_j);
    published_.node_power_w = reader.get_f64("published.node_w");
    published_.cpu_power_w = reader.get_f64("published.cpu_w");
    published_.memory_power_w = reader.get_f64("published.mem_w");
    published_.accel_power_w = std::move(accel_w);
    published_.freshness = reader.get_i64("published.freshness");
}

} // namespace gsph::pmcounters
