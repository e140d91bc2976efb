#include "core/online_tuner.hpp"

#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace gsph::core {

namespace {

telemetry::Counter& tuner_counter(const char* name)
{
    return telemetry::MetricsRegistry::global().counter(name);
}

} // namespace

bool FunctionLearner::exploration_done(int samples_per_clock) const
{
    if (clocks.empty()) return false;
    for (std::size_t i = 0; i < clocks.size(); ++i) {
        if (samples[i] < samples_per_clock) return false;
    }
    return true;
}

int FunctionLearner::next_candidate(int samples_per_clock) const
{
    // Round-robin across under-sampled candidates, lowest sample count
    // first (keeps exploration balanced if a run is cut short).
    int best = -1;
    int best_samples = std::numeric_limits<int>::max();
    for (std::size_t i = 0; i < clocks.size(); ++i) {
        if (samples[i] < samples_per_clock && samples[i] < best_samples) {
            best = static_cast<int>(i);
            best_samples = samples[i];
        }
    }
    return best;
}

int FunctionLearner::next_probe(int samples_per_clock) const
{
    for (const int idx : probe_set) {
        if (samples[static_cast<std::size_t>(idx)] < samples_per_clock) return idx;
    }
    return -1;
}

bool FunctionLearner::any_samples() const
{
    for (const int n : samples) {
        if (n > 0) return true;
    }
    return false;
}

double FunctionLearner::best_edp_clock() const
{
    // With no samples at all there is no estimate yet; run at the top clock
    // (the race-to-idle default every other path uses), NOT the bottom one.
    double best_clock = clocks.empty() ? 0.0 : clocks.back();
    double best_edp = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < clocks.size(); ++i) {
        if (samples[i] == 0) continue;
        const double n = static_cast<double>(samples[i]);
        const double edp = (energy_j[i] / n) * (time_s[i] / n);
        if (edp < best_edp) {
            best_edp = edp;
            best_clock = clocks[i];
        }
    }
    return best_clock;
}

OnlineManDynPolicy::OnlineManDynPolicy(OnlineTunerConfig config, gpusim::Vendor vendor)
    : config_(std::move(config)), vendor_(vendor)
{
    if (config_.candidate_clocks.empty()) {
        throw std::invalid_argument("OnlineManDyn: no candidate clocks");
    }
    if (config_.samples_per_clock < 1) {
        throw std::invalid_argument("OnlineManDyn: samples_per_clock < 1");
    }
    if (!(config_.confirm_tolerance > 0.0)) {
        throw std::invalid_argument("OnlineManDyn: confirm_tolerance <= 0");
    }
    std::sort(config_.candidate_clocks.begin(), config_.candidate_clocks.end());
    for (auto& learner : learners_) {
        learner.clocks = config_.candidate_clocks;
        learner.energy_j.assign(learner.clocks.size(), 0.0);
        learner.time_s.assign(learner.clocks.size(), 0.0);
        learner.samples.assign(learner.clocks.size(), 0);
        learner.follower_mhz = learner.clocks.back();
    }
}

void OnlineManDynPolicy::configure(sim::RunConfig& run_config) const
{
    run_config.clock_policy = gpusim::ClockPolicy::kLockedAppClock;
    run_config.app_clock_mhz = config_.candidate_clocks.back(); // start at top
}

void OnlineManDynPolicy::attach(sim::RunHooks& hooks, int n_ranks)
{
    backend_ = make_clock_backend(vendor_, n_ranks);
    rank_current_mhz_.assign(static_cast<std::size_t>(n_ranks), -1.0);
    probe_.reset();

    hooks.prepend({
        .before_function = [this](int rank, gpusim::GpuDevice& dev,
                                  sph::SphFunction fn) { before(rank, dev, fn); },
        .after_function = [this](int rank, gpusim::GpuDevice& dev, sph::SphFunction fn,
                                 const gpusim::KernelResult& res) {
            after(rank, dev, fn, res);
        },
    });
}

void OnlineManDynPolicy::assign_model_stage(FunctionLearner& learner,
                                            sph::SphFunction fn)
{
    // Cross-kernel seeding: the lowest-indexed function with a similar
    // compute intensity anchors the neighborhood; everyone else waits for
    // its fit and rescales it through a single probe.  By the first
    // post-warmup call every function that appeared in step 0 has recorded
    // its intensity, so this assignment is identical on every rank count.
    const int self = static_cast<int>(fn);
    int anchor = self;
    if (learner.intensity >= 0.0) {
        for (int g = 0; g < self; ++g) {
            const auto& other = learners_[static_cast<std::size_t>(g)];
            if (other.intensity < 0.0) continue;
            if (std::fabs(other.intensity - learner.intensity) <=
                config_.seed_intensity_window) {
                anchor = g;
                break;
            }
        }
    }
    if (anchor == self) {
        start_own_probes(learner);
    }
    else {
        learner.stage = FunctionLearner::Stage::kAwaitSeed;
        learner.seed_anchor = anchor;
        learner.await_since = learner.calls_seen;
    }
}

void OnlineManDynPolicy::start_own_probes(FunctionLearner& learner)
{
    learner.seeded = false;
    learner.probe_set.clear();
    const int n = static_cast<int>(learner.clocks.size());
    learner.probe_set.push_back(0);
    if (n > 2) learner.probe_set.push_back(n / 2);
    if (n > 1) learner.probe_set.push_back(n - 1);
    learner.stage = FunctionLearner::Stage::kProbe;
}

void OnlineManDynPolicy::poll_seed_anchor(FunctionLearner& learner)
{
    const auto& anchor = learners_[static_cast<std::size_t>(learner.seed_anchor)];
    if (anchor.fit.valid) {
        // Adopt the anchor's coefficients now; finish_probe_fit rescales
        // them through the single mid-band probe measured next.
        learner.fit = anchor.fit;
        learner.seeded = true;
        learner.probe_set = {static_cast<int>(learner.clocks.size()) / 2};
        learner.stage = FunctionLearner::Stage::kProbe;
        static telemetry::Counter& seeded = tuner_counter("tuner.online.model_seeded");
        seeded.inc();
        return;
    }
    const bool anchor_gave_up =
        anchor.stage == FunctionLearner::Stage::kSweep ||
        (anchor.converged && !anchor.fit.valid);
    if (anchor_gave_up ||
        learner.calls_seen - learner.await_since >= config_.max_seed_wait_calls) {
        start_own_probes(learner);
    }
}

void OnlineManDynPolicy::finish_probe_fit(FunctionLearner& learner)
{
    std::vector<tuning::ProbePoint> points;
    points.reserve(learner.probe_set.size());
    for (const int idx : learner.probe_set) {
        const auto i = static_cast<std::size_t>(idx);
        const double n = static_cast<double>(learner.samples[i]);
        tuning::ProbePoint p;
        p.mhz = learner.clocks[i];
        p.time_s = learner.time_s[i] / n;
        p.power_w = p.time_s > 0.0 ? (learner.energy_j[i] / n) / p.time_s : 0.0;
        points.push_back(p);
    }
    const tuning::FreqModelFit fit =
        learner.seeded && points.size() == 1
            ? tuning::rescale_freq_model(learner.fit, points.front())
            : tuning::fit_freq_model(points);
    if (!fit.valid) {
        learner.fit = tuning::FreqModelFit{};
        learner.stage = FunctionLearner::Stage::kSweep;
        static telemetry::Counter& fallbacks =
            tuner_counter("tuner.online.model_fallbacks");
        fallbacks.inc();
        return;
    }
    learner.fit = fit;
    learner.predicted_idx =
        static_cast<int>(tuning::best_candidate_index(fit, learner.clocks));
    learner.predicted_opt_mhz =
        tuning::solve_edp_minimum(fit, learner.clocks.front(), learner.clocks.back());
    learner.predicted_edp =
        fit.edp(learner.clocks[static_cast<std::size_t>(learner.predicted_idx)]);
    learner.stage = FunctionLearner::Stage::kConfirm;
}

double OnlineManDynPolicy::model_target(FunctionLearner& learner, sph::SphFunction fn)
{
    using Stage = FunctionLearner::Stage;
    if (learner.stage == Stage::kIdle) assign_model_stage(learner, fn);
    if (learner.stage == Stage::kAwaitSeed) poll_seed_anchor(learner);
    // Probes take ONE sample each regardless of samples_per_clock — the
    // whole point of the model is sampling economy, and the confirmation
    // sample catches a fit built on a noisy probe.
    if (learner.stage == Stage::kProbe && learner.next_probe(1) < 0) {
        finish_probe_fit(learner);
    }
    switch (learner.stage) {
    case Stage::kProbe: {
        const int idx = learner.next_probe(1);
        learner.active_candidate = idx;
        return idx >= 0 ? learner.clocks[static_cast<std::size_t>(idx)]
                        : learner.clocks.back();
    }
    case Stage::kConfirm:
        learner.active_candidate = learner.predicted_idx;
        return learner.clocks[static_cast<std::size_t>(learner.predicted_idx)];
    case Stage::kSweep: {
        const int candidate = learner.next_candidate(config_.samples_per_clock);
        learner.active_candidate = candidate;
        return candidate >= 0 ? learner.clocks[static_cast<std::size_t>(candidate)]
                              : learner.clocks.back();
    }
    case Stage::kAwaitSeed:
    case Stage::kIdle:
    default:
        // Waiting on a neighbor's fit costs no samples: run at the top
        // clock like warmup does.
        learner.active_candidate = -1;
        return learner.clocks.back();
    }
}

double OnlineManDynPolicy::rank0_target(FunctionLearner& learner, sph::SphFunction fn)
{
    if (learner.calls_seen < config_.warmup_calls) {
        learner.active_candidate = -1;
        return learner.clocks.back();
    }
    if (config_.strategy == TuneStrategy::kModel) return model_target(learner, fn);
    const int candidate = learner.next_candidate(config_.samples_per_clock);
    learner.active_candidate = candidate;
    return candidate >= 0 ? learner.clocks[static_cast<std::size_t>(candidate)]
                          : learner.clocks.back();
}

void OnlineManDynPolicy::before(int rank, gpusim::GpuDevice& dev, sph::SphFunction fn)
{
    FunctionLearner& learner = learners_[static_cast<std::size_t>(fn)];

    if (rank == 0) {
        // Latch the follower target once per call.  The driver runs every
        // before-hook of a call, rank 0's first, ahead of every after-hook,
        // so all followers apply the estimate rank 0 saw; latching it here
        // saves each follower a best_edp_clock() scan.
        learner.follower_mhz = learner.converged       ? learner.chosen_mhz
                               : learner.any_samples() ? learner.best_edp_clock()
                                                       : learner.clocks.back();
    }

    double target;
    if (rank == 0) {
        target = learner.converged ? learner.chosen_mhz : rank0_target(learner, fn);
    }
    else {
        // Non-measurement ranks follow the latched best estimate to bound
        // the exploration cost of large jobs.  During warmup no candidate
        // has samples yet and the latch holds the top clock — not the
        // bottom of the band.
        target = learner.follower_mhz;
    }

    const auto r = static_cast<std::size_t>(rank);
    if (rank_current_mhz_[r] != target) {
        if (backend_->set_cap_mhz(rank, target) == ClockStatus::kOk) {
            const double previous = rank_current_mhz_[r];
            rank_current_mhz_[r] = target;
            if (telemetry::decision_audited()) {
                telemetry::DecisionRecord rec;
                rec.policy = "OnlineManDyn";
                rec.rank = rank;
                rec.function = static_cast<int>(fn);
                rec.candidate_mhz = learner.clocks;
                rec.chosen_mhz = target;
                if (config_.strategy == TuneStrategy::kModel && learner.fit.valid &&
                    learner.predicted_idx >= 0 &&
                    learner.clocks[static_cast<std::size_t>(learner.predicted_idx)] ==
                        target) {
                    // Model-steered decision: the prediction is the fitted
                    // EDP surface at the snapped candidate, not a sample
                    // mean.
                    rec.predicted_edp = learner.predicted_edp;
                    rec.inputs.emplace_back("model", 1.0);
                    rec.inputs.emplace_back("model_opt_mhz",
                                            learner.predicted_opt_mhz);
                }
                else {
                    // The learner's current estimate for the chosen clock:
                    // mean per-call energy times mean per-call duration.
                    for (std::size_t i = 0; i < learner.clocks.size(); ++i) {
                        if (learner.clocks[i] == target && learner.samples[i] > 0) {
                            const double n = static_cast<double>(learner.samples[i]);
                            rec.predicted_edp =
                                (learner.energy_j[i] / n) * (learner.time_s[i] / n);
                            rec.inputs.emplace_back("samples", n);
                        }
                    }
                }
                if (!(rec.predicted_edp > 0.0)) {
                    // Warmup and first-visit decisions have nothing to
                    // predict with; mark that explicitly so audit consumers
                    // never score the field's default as a misprediction.
                    rec.predicted_edp = 0.0;
                    rec.inputs.emplace_back("no_prediction", 1.0);
                }
                rec.inputs.emplace_back("previous_mhz", previous);
                rec.inputs.emplace_back(
                    "calls_seen", static_cast<double>(learner.calls_seen));
                rec.inputs.emplace_back("converged",
                                        learner.converged ? 1.0 : 0.0);
                telemetry::audit_decision(std::move(rec));
            }
        }
        else {
            // Device clock state unknown (the set may have partially taken
            // or been dropped) — force a fresh set attempt on the next call
            // instead of trusting the cache.
            rank_current_mhz_[r] = -1.0;
        }
    }

    // Measurement integrity: if the candidate clock is not actually applied
    // on the measurement rank, the upcoming sample would be attributed to a
    // clock the device is not running at.  Drop the candidate for this call;
    // next_candidate()/next_probe() re-queues it since its sample count was
    // not bumped, and a pending confirmation simply retries next call.
    if (rank == 0 && learner.active_candidate >= 0 && rank_current_mhz_[r] != target) {
        learner.active_candidate = -1;
        static telemetry::Counter& discarded =
            tuner_counter("tuner.online.samples_discarded");
        discarded.inc();
    }

    if (rank == 0) {
        if (!probe_) {
            probe_ = vendor_ == gpusim::Vendor::kAmd ? pmt::CreateRocm(0)
                                                     : pmt::CreateNvml(0);
        }
        (void)dev;
        open_state_ = probe_->Read();
    }
}

void OnlineManDynPolicy::after(int rank, gpusim::GpuDevice& /*dev*/,
                               sph::SphFunction fn, const gpusim::KernelResult& res)
{
    if (rank != 0) return;
    FunctionLearner& learner = learners_[static_cast<std::size_t>(fn)];
    ++learner.calls_seen;
    if (learner.intensity < 0.0) {
        // Compute intensity from the first measured call: the seeding
        // neighborhood key.  Stable across calls up to jitter, so one
        // sample suffices.
        const double compute = res.timing.compute_s;
        const double memory = res.timing.memory_s;
        learner.intensity =
            compute + memory > 0.0 ? compute / (compute + memory) : 0.5;
    }
    if (learner.converged) return;

    if (learner.active_candidate >= 0 && probe_) {
        const pmt::State end = probe_->Read();
        const double e = pmt::Pmt::joules(open_state_, end);
        const double t = pmt::Pmt::seconds(open_state_, end);
        if (e > 0.0 && t > 0.0) {
            const auto idx = static_cast<std::size_t>(learner.active_candidate);
            learner.energy_j[idx] += e;
            learner.time_s[idx] += t;
            ++learner.samples[idx];
            static telemetry::Counter& samples = tuner_counter("tuner.online.samples");
            samples.inc();
            if (config_.strategy == TuneStrategy::kModel &&
                learner.stage == FunctionLearner::Stage::kConfirm &&
                learner.active_candidate == learner.predicted_idx) {
                // The confirmation sample: accept the model only if this
                // one realized EDP lands within tolerance of the surface's
                // prediction; otherwise fall back to the sweep (which
                // reuses every probe and confirmation sample already
                // banked in the accumulators).
                const double realized = e * t;
                const double rel = std::fabs(realized - learner.predicted_edp) /
                                   learner.predicted_edp;
                if (rel <= config_.confirm_tolerance) {
                    learner.converged = true;
                    learner.chosen_mhz =
                        learner.clocks[static_cast<std::size_t>(learner.predicted_idx)];
                    static telemetry::Counter& converged =
                        tuner_counter("tuner.online.converged");
                    converged.inc();
                    static telemetry::Counter& confirmed =
                        tuner_counter("tuner.online.model_confirmed");
                    confirmed.inc();
                    return;
                }
                learner.stage = FunctionLearner::Stage::kSweep;
                static telemetry::Counter& fallbacks =
                    tuner_counter("tuner.online.model_fallbacks");
                fallbacks.inc();
            }
        }
        else {
            // Counter wrap/reset mid-sample (delta clamped to zero by the
            // probe) — a zero-energy sample would poison the EDP average.
            static telemetry::Counter& discarded =
                tuner_counter("tuner.online.samples_discarded");
            discarded.inc();
        }
    }
    if (learner.exploration_done(config_.samples_per_clock)) {
        learner.converged = true;
        learner.chosen_mhz = learner.best_edp_clock();
        static telemetry::Counter& converged = tuner_counter("tuner.online.converged");
        converged.inc();
    }
}

void OnlineManDynPolicy::save_state(checkpoint::StateWriter& writer) const
{
    for (int f = 0; f < sph::kSphFunctionCount; ++f) {
        const auto& learner = learners_[static_cast<std::size_t>(f)];
        const std::string prefix = "fn." + std::to_string(f) + ".";
        writer.put_f64_vec(prefix + "energy_j", learner.energy_j);
        writer.put_f64_vec(prefix + "time_s", learner.time_s);
        std::vector<std::uint64_t> samples(learner.samples.size());
        for (std::size_t i = 0; i < samples.size(); ++i) {
            samples[i] = static_cast<std::uint64_t>(learner.samples[i]);
        }
        writer.put_u64_vec(prefix + "samples", samples);
        writer.put_i64(prefix + "calls_seen", learner.calls_seen);
        writer.put_i64(prefix + "active_candidate", learner.active_candidate);
        writer.put_bool(prefix + "converged", learner.converged);
        writer.put_f64(prefix + "chosen_mhz", learner.chosen_mhz);
        writer.put_f64(prefix + "follower_mhz", learner.follower_mhz);
        writer.put_i64(prefix + "stage", static_cast<int>(learner.stage));
        std::vector<std::uint64_t> probes(learner.probe_set.size());
        for (std::size_t i = 0; i < probes.size(); ++i) {
            probes[i] = static_cast<std::uint64_t>(learner.probe_set[i]);
        }
        writer.put_u64_vec(prefix + "probe_set", probes);
        writer.put_bool(prefix + "seeded", learner.seeded);
        writer.put_i64(prefix + "seed_anchor", learner.seed_anchor);
        writer.put_i64(prefix + "await_since", learner.await_since);
        writer.put_f64(prefix + "intensity", learner.intensity);
        writer.put_bool(prefix + "fit_valid", learner.fit.valid);
        writer.put_f64(prefix + "fit.t_inv", learner.fit.t_inv);
        writer.put_f64(prefix + "fit.t_const", learner.fit.t_const);
        writer.put_f64(prefix + "fit.p_const", learner.fit.p_const);
        writer.put_f64(prefix + "fit.p_cubic", learner.fit.p_cubic);
        writer.put_i64(prefix + "predicted_idx", learner.predicted_idx);
        writer.put_f64(prefix + "predicted_opt_mhz", learner.predicted_opt_mhz);
        writer.put_f64(prefix + "predicted_edp", learner.predicted_edp);
    }
    writer.put_f64_vec("rank_current_mhz", rank_current_mhz_);
    writer.put_f64("open.timestamp_s", open_state_.timestamp_s);
    writer.put_f64("open.joules", open_state_.joules);
    if (backend_) backend_->save_state(writer);
}

void OnlineManDynPolicy::restore_state(const checkpoint::StateReader& reader)
{
    if (!backend_) {
        throw checkpoint::CheckpointError(
            "OnlineManDyn: restore_state before attach()");
    }
    constexpr std::uint64_t kIntMax =
        static_cast<std::uint64_t>(std::numeric_limits<int>::max());
    for (int f = 0; f < sph::kSphFunctionCount; ++f) {
        auto& learner = learners_[static_cast<std::size_t>(f)];
        const std::string prefix = "fn." + std::to_string(f) + ".";
        const auto energy = reader.get_f64_vec(prefix + "energy_j");
        const auto time = reader.get_f64_vec(prefix + "time_s");
        const auto samples = reader.get_u64_vec(prefix + "samples");
        if (energy.size() != learner.clocks.size() ||
            time.size() != learner.clocks.size() ||
            samples.size() != learner.clocks.size()) {
            throw checkpoint::CheckpointError(
                "OnlineManDyn: candidate count mismatch for function " +
                std::to_string(f) + " (checkpoint has a different "
                "--tune-clocks set than this run)");
        }
        learner.energy_j = energy;
        learner.time_s = time;
        for (std::size_t i = 0; i < samples.size(); ++i) {
            // int narrows the stored u64; an oversized count would wrap
            // negative and poison exploration_done() forever, so reject it
            // as the corruption it is instead of resuming on garbage.
            if (samples[i] > kIntMax) {
                throw checkpoint::CheckpointError(
                    "OnlineManDyn: sample count " + std::to_string(samples[i]) +
                    " for function " + std::to_string(f) + " candidate " +
                    std::to_string(i) + " exceeds INT_MAX (corrupt checkpoint)");
            }
            learner.samples[i] = static_cast<int>(samples[i]);
        }
        const std::int64_t calls = reader.get_i64(prefix + "calls_seen");
        if (calls < 0 || calls > static_cast<std::int64_t>(kIntMax)) {
            throw checkpoint::CheckpointError(
                "OnlineManDyn: calls_seen " + std::to_string(calls) +
                " for function " + std::to_string(f) +
                " outside [0, INT_MAX] (corrupt checkpoint)");
        }
        learner.calls_seen = static_cast<int>(calls);
        learner.active_candidate =
            static_cast<int>(reader.get_i64(prefix + "active_candidate"));
        learner.converged = reader.get_bool(prefix + "converged");
        learner.chosen_mhz = reader.get_f64(prefix + "chosen_mhz");
        learner.follower_mhz = reader.get_f64(prefix + "follower_mhz");
        const std::int64_t stage = reader.get_i64(prefix + "stage");
        if (stage < 0 || stage > static_cast<int>(FunctionLearner::Stage::kSweep)) {
            throw checkpoint::CheckpointError("OnlineManDyn: stage " +
                                              std::to_string(stage) + " for function " +
                                              std::to_string(f) + " out of range");
        }
        learner.stage = static_cast<FunctionLearner::Stage>(stage);
        learner.probe_set.clear();
        for (const std::uint64_t idx : reader.get_u64_vec(prefix + "probe_set")) {
            if (idx >= learner.clocks.size()) {
                throw checkpoint::CheckpointError(
                    "OnlineManDyn: probe index " + std::to_string(idx) +
                    " for function " + std::to_string(f) + " out of range");
            }
            learner.probe_set.push_back(static_cast<int>(idx));
        }
        learner.seeded = reader.get_bool(prefix + "seeded");
        learner.seed_anchor = static_cast<int>(reader.get_i64(prefix + "seed_anchor"));
        if (learner.seed_anchor >= sph::kSphFunctionCount) {
            throw checkpoint::CheckpointError(
                "OnlineManDyn: seed anchor " +
                std::to_string(learner.seed_anchor) + " for function " +
                std::to_string(f) + " out of range");
        }
        learner.await_since = static_cast<int>(reader.get_i64(prefix + "await_since"));
        learner.intensity = reader.get_f64(prefix + "intensity");
        learner.fit.valid = reader.get_bool(prefix + "fit_valid");
        learner.fit.t_inv = reader.get_f64(prefix + "fit.t_inv");
        learner.fit.t_const = reader.get_f64(prefix + "fit.t_const");
        learner.fit.p_const = reader.get_f64(prefix + "fit.p_const");
        learner.fit.p_cubic = reader.get_f64(prefix + "fit.p_cubic");
        learner.predicted_idx =
            static_cast<int>(reader.get_i64(prefix + "predicted_idx"));
        if (learner.predicted_idx >= static_cast<int>(learner.clocks.size())) {
            throw checkpoint::CheckpointError(
                "OnlineManDyn: predicted candidate " +
                std::to_string(learner.predicted_idx) + " for function " +
                std::to_string(f) + " out of range");
        }
        learner.predicted_opt_mhz = reader.get_f64(prefix + "predicted_opt_mhz");
        learner.predicted_edp = reader.get_f64(prefix + "predicted_edp");
    }
    const auto mhz = reader.get_f64_vec("rank_current_mhz");
    if (mhz.size() != rank_current_mhz_.size()) {
        throw checkpoint::CheckpointError(
            "OnlineManDyn: rank count mismatch (checkpoint " +
            std::to_string(mhz.size()) + ", run " +
            std::to_string(rank_current_mhz_.size()) + ")");
    }
    rank_current_mhz_ = mhz;
    open_state_.timestamp_s = reader.get_f64("open.timestamp_s");
    open_state_.joules = reader.get_f64("open.joules");
    backend_->restore_state(reader);
}

FrequencyTable OnlineManDynPolicy::learned_table(double default_mhz) const
{
    FrequencyTable table(default_mhz);
    for (int f = 0; f < sph::kSphFunctionCount; ++f) {
        const auto& learner = learners_[static_cast<std::size_t>(f)];
        if (learner.converged) {
            table.set(static_cast<sph::SphFunction>(f), learner.chosen_mhz);
        }
    }
    return table;
}

bool OnlineManDynPolicy::all_converged() const
{
    for (const auto& learner : learners_) {
        if (learner.calls_seen > 0 && !learner.converged) return false;
    }
    return true;
}

std::unique_ptr<OnlineManDynPolicy> make_online_mandyn_policy(OnlineTunerConfig config,
                                                              gpusim::Vendor vendor)
{
    return std::make_unique<OnlineManDynPolicy>(std::move(config), vendor);
}

} // namespace gsph::core
