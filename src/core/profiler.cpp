#include "core/profiler.hpp"

#include "telemetry/metrics.hpp"
#include "util/strings.hpp"

#include <array>
#include <stdexcept>
#include <string>

namespace gsph::core {

namespace {

/// Per-function energy histograms, e.g. "fn.energy_j.Density".  Pointers are
/// cached per function: registry instruments are never destroyed (reset only
/// zeroes their values), so the cache stays valid across runs.
telemetry::Histogram& fn_energy_histogram(sph::SphFunction fn)
{
    static std::array<telemetry::Histogram*, sph::kSphFunctionCount> cache{};
    auto& slot = cache[static_cast<std::size_t>(fn)];
    if (slot == nullptr) {
        slot = &telemetry::MetricsRegistry::global().histogram(
            std::string("fn.energy_j.") + sph::to_string(fn));
    }
    return *slot;
}

} // namespace

EnergyProfiler::EnergyProfiler(int n_ranks)
    : n_ranks_(n_ranks),
      sensors_(static_cast<std::size_t>(n_ranks)),
      open_state_(static_cast<std::size_t>(n_ranks)),
      per_rank_(static_cast<std::size_t>(n_ranks))
{
    if (n_ranks <= 0) throw std::invalid_argument("EnergyProfiler: n_ranks <= 0");
}

void EnergyProfiler::ensure_sensor(int rank)
{
    auto& sensor = sensors_[static_cast<std::size_t>(rank)];
    if (!sensor) sensor = pmt::CreateNvml(static_cast<unsigned int>(rank));
}

void EnergyProfiler::attach(sim::RunHooks& hooks)
{
    hooks.append({
        .before_function = [this](int rank, gpusim::GpuDevice&, sph::SphFunction) {
            ensure_sensor(rank);
            open_state_[static_cast<std::size_t>(rank)] =
                sensors_[static_cast<std::size_t>(rank)]->Read();
        },
        .after_function = [this](int rank, gpusim::GpuDevice&, sph::SphFunction fn,
                                 const gpusim::KernelResult&) {
            const pmt::State end = sensors_[static_cast<std::size_t>(rank)]->Read();
            const pmt::State& start = open_state_[static_cast<std::size_t>(rank)];
            const std::size_t fi = static_cast<std::size_t>(fn);

            FunctionEnergy& rank_slot = per_rank_[static_cast<std::size_t>(rank)][fi];
            const double joules = pmt::Pmt::joules(start, end);
            const double seconds = pmt::Pmt::seconds(start, end);
            rank_slot.gpu_energy_j += joules;
            rank_slot.time_s += seconds;
            ++rank_slot.calls;

            totals_[fi].gpu_energy_j += joules;
            totals_[fi].time_s += seconds;
            ++totals_[fi].calls;
            fn_energy_histogram(fn).observe(joules);
        },
    });
}

double EnergyProfiler::total_gpu_energy_j() const
{
    double total = 0.0;
    for (const auto& f : totals_) total += f.gpu_energy_j;
    return total;
}

double EnergyProfiler::total_time_s() const
{
    double total = 0.0;
    for (const auto& f : totals_) total += f.time_s;
    return total / static_cast<double>(n_ranks_);
}

void EnergyProfiler::save_state(checkpoint::StateWriter& writer) const
{
    auto save_slot = [&](const std::string& prefix, const FunctionEnergy& e) {
        writer.put_f64(prefix + "time_s", e.time_s);
        writer.put_f64(prefix + "energy_j", e.gpu_energy_j);
        writer.put_i64(prefix + "calls", e.calls);
    };
    writer.put_i64("n_ranks", n_ranks_);
    for (int f = 0; f < sph::kSphFunctionCount; ++f) {
        save_slot("total." + std::to_string(f) + ".",
                  totals_[static_cast<std::size_t>(f)]);
    }
    for (int r = 0; r < n_ranks_; ++r) {
        for (int f = 0; f < sph::kSphFunctionCount; ++f) {
            save_slot("rank." + std::to_string(r) + "." + std::to_string(f) + ".",
                      per_rank_[static_cast<std::size_t>(r)][static_cast<std::size_t>(f)]);
        }
    }
}

void EnergyProfiler::restore_state(const checkpoint::StateReader& reader)
{
    if (reader.get_i64("n_ranks") != n_ranks_) {
        throw checkpoint::CheckpointError(
            "profiler: rank count mismatch (checkpoint " +
            std::to_string(reader.get_i64("n_ranks")) + ", run " +
            std::to_string(n_ranks_) + ")");
    }
    auto restore_slot = [&](const std::string& prefix, FunctionEnergy& e) {
        e.time_s = reader.get_f64(prefix + "time_s");
        e.gpu_energy_j = reader.get_f64(prefix + "energy_j");
        e.calls = static_cast<long>(reader.get_i64(prefix + "calls"));
    };
    for (int f = 0; f < sph::kSphFunctionCount; ++f) {
        restore_slot("total." + std::to_string(f) + ".",
                     totals_[static_cast<std::size_t>(f)]);
    }
    for (int r = 0; r < n_ranks_; ++r) {
        for (int f = 0; f < sph::kSphFunctionCount; ++f) {
            restore_slot("rank." + std::to_string(r) + "." + std::to_string(f) + ".",
                         per_rank_[static_cast<std::size_t>(r)][static_cast<std::size_t>(f)]);
        }
    }
}

util::CsvWriter EnergyProfiler::report_csv() const
{
    util::CsvWriter csv({"rank", "function", "calls", "time_s", "gpu_energy_j"});
    for (int r = 0; r < n_ranks_; ++r) {
        for (int f = 0; f < sph::kSphFunctionCount; ++f) {
            const FunctionEnergy& e =
                per_rank_[static_cast<std::size_t>(r)][static_cast<std::size_t>(f)];
            if (e.calls == 0) continue;
            csv.add_row({std::to_string(r),
                         sph::to_string(static_cast<sph::SphFunction>(f)),
                         std::to_string(e.calls), util::format_fixed(e.time_s, 6),
                         util::format_fixed(e.gpu_energy_j, 3)});
        }
    }
    return csv;
}

} // namespace gsph::core
