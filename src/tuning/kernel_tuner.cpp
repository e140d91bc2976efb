#include "tuning/kernel_tuner.hpp"

#include "telemetry/metrics.hpp"
#include "tuning/freq_model.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

namespace gsph::tuning {

namespace {

telemetry::Counter& sweep_counter(const char* name)
{
    return telemetry::MetricsRegistry::global().counter(name);
}

} // namespace

const char* to_string(SweepStrategy strategy)
{
    switch (strategy) {
        case SweepStrategy::kExhaustive: return "exhaustive";
        case SweepStrategy::kModel: return "model";
    }
    return "exhaustive";
}

SweepStrategy sweep_strategy_from_string(const std::string& name)
{
    if (name == "exhaustive") return SweepStrategy::kExhaustive;
    if (name == "model") return SweepStrategy::kModel;
    throw std::invalid_argument("unknown sweep strategy '" + name +
                                "' (expected exhaustive|model)");
}

const TuneConfig& TuneResult::best(Objective objective) const
{
    if (configs.empty()) throw std::logic_error("TuneResult::best: empty sweep");
    auto metric = [objective](const TuneConfig& c) {
        switch (objective) {
            case Objective::kTime: return c.time_s;
            case Objective::kEnergy: return c.energy_j;
            case Objective::kEdp: return c.edp;
            case Objective::kEd2p: return c.edp * c.time_s; // E * t^2
        }
        return c.edp;
    };
    const TuneConfig* best = &configs.front();
    for (const auto& c : configs) {
        if (metric(c) < metric(*best)) best = &c;
    }
    return *best;
}

const TuneConfig& TuneResult::chosen_or_best(Objective objective) const
{
    if (chosen_index >= 0 && static_cast<std::size_t>(chosen_index) < configs.size()) {
        return configs[static_cast<std::size_t>(chosen_index)];
    }
    return best(objective);
}

KernelTuner::KernelTuner(gpusim::GpuDeviceSpec spec, int iterations)
    : spec_(std::move(spec)), iterations_(iterations)
{
    spec_.validate();
    if (iterations_ < 1) throw std::invalid_argument("KernelTuner: iterations < 1");
}

TuneConfig KernelTuner::price_clock(const Launcher& launcher,
                                    std::optional<double> core_mhz,
                                    int iterations) const
{
    static telemetry::Counter& configs_priced = sweep_counter("tuner.sweep.configs");
    configs_priced.inc();
    gpusim::GpuDevice device(spec_);
    device.set_clock_policy(gpusim::ClockPolicy::kLockedAppClock);
    TuneConfig out;
    if (core_mhz) {
        device.set_application_clocks(spec_.memory_clock_mhz, *core_mhz);
        out.params["core_freq_mhz"] = *core_mhz;
    }

    // Warm-up launch (discarded), then measured iterations.
    launcher(device);
    const double t0 = device.now();
    const double e0 = device.energy_j();
    for (int i = 0; i < iterations; ++i) launcher(device);
    out.time_s = (device.now() - t0) / iterations;
    out.energy_j = (device.energy_j() - e0) / iterations;
    out.edp = out.time_s * out.energy_j;
    return out;
}

TuneResult KernelTuner::tune_kernel(const std::string& kernel_name,
                                    const Launcher& launcher, std::int64_t problem_size,
                                    const std::map<std::string, std::vector<double>>& params)
{
    if (!launcher) throw std::invalid_argument("KernelTuner: null launcher");
    (void)problem_size; // fixed per sweep (the paper fixes 450^3); kept for
                        // interface fidelity with KernelTuner

    // Only "core_freq_mhz" is actually applied to the device, so an
    // unrecognized key would silently multiply the search space with
    // identically-priced duplicates — reject it up front.  With one
    // recognized key the brute-force cartesian product (the KernelTuner
    // default strategy) is that key's value list.
    for (const auto& [key, values] : params) {
        if (key != "core_freq_mhz") {
            throw std::invalid_argument("KernelTuner: unknown tunable parameter '" +
                                        key + "' (only 'core_freq_mhz' is supported)");
        }
        if (values.empty()) {
            throw std::invalid_argument("KernelTuner: empty value list for " + key);
        }
    }

    // Each configuration runs on its own fresh device, in sweep order.
    TuneResult result;
    result.kernel_name = kernel_name;
    const auto clocks = params.find("core_freq_mhz");
    if (clocks == params.end()) {
        result.configs.push_back(price_clock(launcher, std::nullopt, iterations_));
    }
    else {
        for (double mhz : clocks->second) {
            result.configs.push_back(price_clock(launcher, mhz, iterations_));
        }
    }
    result.launches =
        static_cast<long>(result.configs.size()) * static_cast<long>(1 + iterations_);
    static telemetry::Counter& launches = sweep_counter("tuner.sweep.launches");
    launches.inc(static_cast<double>(result.launches));
    return result;
}

TuneResult KernelTuner::tune_kernel_model(const std::string& kernel_name,
                                          const Launcher& launcher,
                                          std::int64_t problem_size,
                                          const std::vector<double>& frequencies,
                                          const ModelSweepOptions& options)
{
    if (!launcher) throw std::invalid_argument("KernelTuner: null launcher");
    if (frequencies.empty()) {
        throw std::invalid_argument("KernelTuner: empty frequency band");
    }
    if (options.probe_iterations < 1) {
        throw std::invalid_argument("KernelTuner: probe_iterations < 1");
    }

    static telemetry::Counter& launches = sweep_counter("tuner.sweep.launches");
    static telemetry::Counter& confirmed = sweep_counter("tuner.sweep.model_confirmed");
    static telemetry::Counter& fallbacks = sweep_counter("tuner.sweep.model_fallbacks");

    auto exhaustive_fallback = [&](long spent) {
        TuneResult full = tune_kernel(kernel_name, launcher, problem_size,
                                      {{"core_freq_mhz", frequencies}});
        full.launches += spent; // probes already paid for are part of the cost
        full.model_fallback = true;
        fallbacks.inc();
        return full;
    };

    // Too few distinct clocks for three probes plus a meaningful interior:
    // the exhaustive sweep is at least as cheap, so just run it.
    if (frequencies.size() < 4) return exhaustive_fallback(0);

    TuneResult result;
    result.kernel_name = kernel_name;

    // Probe the band edges and midpoint (1 warmup + probe_iterations each),
    // fit time(f) and power(f), and snap the model's EDP optimum to the
    // candidate grid.
    const std::size_t probe_idx[3] = {0, frequencies.size() / 2,
                                      frequencies.size() - 1};
    std::vector<ProbePoint> probes;
    long spent = 0;
    for (std::size_t pi : probe_idx) {
        TuneConfig probe =
            price_clock(launcher, frequencies[pi], options.probe_iterations);
        spent += 1 + options.probe_iterations;
        ProbePoint point;
        point.mhz = frequencies[pi];
        point.time_s = probe.time_s;
        point.power_w = probe.time_s > 0.0 ? probe.energy_j / probe.time_s : 0.0;
        probes.push_back(point);
        result.configs.push_back(std::move(probe));
    }
    launches.inc(static_cast<double>(spent));

    const FreqModelFit fit = fit_freq_model(probes);
    if (!fit.valid) return exhaustive_fallback(spent);

    // Confirm the model's pick at the tuner's full iteration count.  The
    // measured point must land within tolerance of the prediction, or the
    // model clearly does not describe this kernel and we pay for the truth.
    const std::size_t pick = best_candidate_index(fit, frequencies);
    TuneConfig confirm = price_clock(launcher, frequencies[pick], iterations_);
    launches.inc(static_cast<double>(1 + iterations_));
    spent += 1 + iterations_;
    const double predicted_edp = fit.edp(frequencies[pick]);
    const double rel_err = predicted_edp > 0.0
        ? std::abs(confirm.edp - predicted_edp) / predicted_edp
        : 1.0;
    if (rel_err > options.confirm_tolerance) return exhaustive_fallback(spent);

    result.chosen_index = static_cast<int>(result.configs.size());
    result.configs.push_back(std::move(confirm));
    result.launches = spent;
    confirmed.inc();
    return result;
}

std::vector<double> paper_frequency_band(const gpusim::GpuDeviceSpec& spec)
{
    // 1005..1410 MHz on the A100; scale the same relative band (71%..100%
    // of max) for other devices, quantized to their clock grid.
    const double lo_frac = 1005.0 / 1410.0;
    std::vector<double> band;
    constexpr int kPoints = 7;
    for (int i = 0; i < kPoints; ++i) {
        const double frac =
            lo_frac + (1.0 - lo_frac) * static_cast<double>(i) / (kPoints - 1);
        band.push_back(spec.quantize_clock(frac * spec.max_compute_mhz));
    }
    band.erase(std::unique(band.begin(), band.end()), band.end());
    return band;
}

std::vector<SweepCandidate> sweep_candidates(const sim::WorkloadTrace& trace)
{
    if (trace.steps.empty()) throw std::invalid_argument("sweep: empty trace");

    // Representative per-step work for every function: average over the
    // trace's steps, scaled to the trace's target particles-per-GPU.
    std::array<gpusim::KernelWork, sph::kSphFunctionCount> work{};
    std::array<int, sph::kSphFunctionCount> occurrences{};
    for (const auto& step : trace.steps) {
        for (const auto& fr : step.functions) {
            const std::size_t fi = static_cast<std::size_t>(fr.fn);
            if (occurrences[fi] == 0) {
                work[fi] = fr.work;
            }
            else {
                work[fi].merge(fr.work);
            }
            ++occurrences[fi];
        }
    }

    std::vector<SweepCandidate> candidates;
    for (int f = 0; f < sph::kSphFunctionCount; ++f) {
        if (occurrences[static_cast<std::size_t>(f)] == 0) continue;
        // Average the extensive quantities over steps *before* scaling to
        // the target size: the thread count must reflect the full scaled
        // problem, not 1/n_steps of it (occupancy depends on it).
        gpusim::KernelWork avg = work[static_cast<std::size_t>(f)];
        const double denom = static_cast<double>(occurrences[static_cast<std::size_t>(f)]);
        avg.flops /= denom;
        avg.dram_bytes /= denom;
        avg.launches = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(static_cast<double>(avg.launches) / denom));
        const gpusim::KernelWork kernel = gpusim::scaled(avg, trace.work_scale());
        if (kernel.flops <= 0.0 && kernel.dram_bytes <= 0.0) continue;
        candidates.push_back(SweepCandidate{static_cast<sph::SphFunction>(f), kernel});
    }
    return candidates;
}

FunctionSweepEntry sweep_one_function(const SweepCandidate& candidate,
                                      const gpusim::GpuDeviceSpec& spec,
                                      const SweepOptions& options)
{
    static telemetry::Counter& kernels_swept = sweep_counter("tuner.sweep.kernels");
    kernels_swept.inc();

    const std::vector<double> frequencies =
        options.frequencies.empty() ? paper_frequency_band(spec) : options.frequencies;
    KernelTuner tuner(spec, options.iterations);
    const gpusim::KernelWork& kernel = candidate.kernel;
    const auto launcher = [&kernel](gpusim::GpuDevice& dev) { dev.execute(kernel); };

    FunctionSweepEntry entry;
    entry.fn = candidate.fn;
    if (options.strategy == SweepStrategy::kModel) {
        entry.result = tuner.tune_kernel_model(sph::to_string(entry.fn), launcher,
                                               kernel.threads, frequencies,
                                               options.model);
    }
    else {
        entry.result = tuner.tune_kernel(sph::to_string(entry.fn), launcher,
                                         kernel.threads,
                                         {{"core_freq_mhz", frequencies}});
    }
    entry.best_edp_mhz =
        entry.result.chosen_or_best(Objective::kEdp).params.at("core_freq_mhz");
    entry.best_energy_mhz =
        entry.result.best(Objective::kEnergy).params.at("core_freq_mhz");
    return entry;
}

std::vector<FunctionSweepEntry> sweep_sph_functions(const sim::WorkloadTrace& trace,
                                                    const gpusim::GpuDeviceSpec& spec,
                                                    const SweepOptions& options)
{
    std::vector<FunctionSweepEntry> sweep;
    for (const SweepCandidate& candidate : sweep_candidates(trace)) {
        sweep.push_back(sweep_one_function(candidate, spec, options));
    }
    return sweep;
}

core::FrequencyTable table_from_sweep(const std::vector<FunctionSweepEntry>& sweep,
                                      double default_mhz)
{
    core::FrequencyTable table(default_mhz);
    for (const auto& entry : sweep) {
        table.set(entry.fn, entry.best_edp_mhz);
    }
    return table;
}

core::ControllerAuditInfo
audit_info_from_sweep(const std::vector<FunctionSweepEntry>& sweep)
{
    core::ControllerAuditInfo info;
    info.policy = "ManDyn";
    std::vector<double> candidates;
    for (const auto& entry : sweep) {
        for (const auto& config : entry.result.configs) {
            const auto it = config.params.find("core_freq_mhz");
            if (it != config.params.end()) candidates.push_back(it->second);
        }
        if (!entry.result.configs.empty()) {
            info.predicted_edp[static_cast<std::size_t>(entry.fn)] =
                entry.result.chosen_or_best(Objective::kEdp).edp;
        }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    info.candidate_mhz = std::move(candidates);
    return info;
}

} // namespace gsph::tuning
