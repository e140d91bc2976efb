#pragma once
/// \file online_tuner.hpp
/// \brief Online ManDyn: learn the per-function clock table during the run.
///
/// The paper's ManDyn needs an offline KernelTuner sweep before production
/// runs.  This extension removes that step: during the first steps of the
/// run each function *explores* the candidate clocks (one clock per call,
/// measured through the same PMT/NVML probes the paper instruments), and
/// once enough measurements exist the function *exploits* the best-EDP
/// clock for the rest of the run.
///
/// Two exploration strategies:
///
///  - kExhaustive: every candidate clock gets `samples_per_clock`
///    measurements (the original behavior).  5 candidates x 2 samples is a
///    10-step exploration window per function.
///  - kModel: probe 3 clocks (low/mid/high of the band, one sample each),
///    least-squares fit
///    the device's analytic shape (tuning/freq_model.hpp), solve the EDP
///    surface for the predicted sweet-spot, verify with one confirmation
///    sample, and fall back to the exhaustive sweep only when the realized
///    EDP misses the prediction by more than `confirm_tolerance`.
///    Functions whose compute/memory intensity matches an already-fitted
///    function skip two of the probes: they wait for the neighbor's fit and
///    rescale it through a single mid-band probe (cross-kernel seeding).
///
/// Samples are only attributed to a candidate when the clock write actually
/// took effect on the measurement rank; failed or unverified sets discard
/// the sample (counted in tuner.online.samples_discarded) and the candidate
/// is re-queued, so clock-control faults delay convergence instead of
/// corrupting the learned table — or, in model mode, the fit.

#include "core/clock_backend.hpp"
#include "core/frequency_table.hpp"
#include "core/policy.hpp"
#include "pmt/pmt.hpp"
#include "sim/driver.hpp"
#include "sph/functions.hpp"
#include "tuning/freq_model.hpp"

#include <array>
#include <memory>
#include <vector>

namespace gsph::core {

enum class TuneStrategy : int {
    kExhaustive = 0, ///< sample every candidate samples_per_clock times
    kModel = 1,      ///< 3-probe fit + analytic EDP optimum + 1 confirmation
};

struct OnlineTunerConfig {
    /// Candidate clocks (MHz); empty = the paper's 1005-1410 band scaled to
    /// the device is supplied by the caller.
    std::vector<double> candidate_clocks;
    int samples_per_clock = 2;
    /// Skip this many initial calls per function (cold-start transients:
    /// first-touch allocations, tree depth settling).
    int warmup_calls = 1;
    TuneStrategy strategy = TuneStrategy::kExhaustive;
    /// Model mode: relative error between the confirmation sample's EDP and
    /// the model's prediction that still counts as confirmed.
    double confirm_tolerance = 0.10;
    /// Model mode: a function whose compute intensity lies within this
    /// window of an already-probing function seeds from that function's fit
    /// (1 probe instead of 3).
    double seed_intensity_window = 0.12;
    /// Model mode: calls a function waits for its seed anchor's fit before
    /// giving up and running its own 3-probe fit.
    int max_seed_wait_calls = 16;
};

/// Per-function learning state (exposed for inspection/tests).
struct FunctionLearner {
    std::vector<double> clocks;          ///< candidates
    std::vector<double> energy_j;        ///< accumulated per candidate
    std::vector<double> time_s;          ///< accumulated per candidate
    std::vector<int> samples;            ///< samples per candidate
    int calls_seen = 0;
    int active_candidate = -1; ///< candidate being measured (-1: none)
    bool converged = false;
    double chosen_mhz = 0.0;

    /// Clock ranks > 0 apply this call, latched by rank 0 at the top of its
    /// before-hook (which runs ahead of every follower's).  Checkpointed.
    double follower_mhz = 0.0;

    /// Model-strategy stage machine (kIdle throughout for kExhaustive).
    enum class Stage : int {
        kIdle = 0,      ///< pre-warmup, or exhaustive strategy
        kAwaitSeed = 1, ///< waiting for the intensity anchor's fit
        kProbe = 2,     ///< sampling the probe clocks
        kConfirm = 3,   ///< one sample at the predicted sweet-spot
        kSweep = 4,     ///< model rejected -> exhaustive fallback
    };
    Stage stage = Stage::kIdle;
    std::vector<int> probe_set;     ///< candidate indices used as probes
    tuning::FreqModelFit fit;       ///< fitted (or seed-adopted) coefficients
    bool seeded = false;            ///< fit adopted from a neighbor
    int seed_anchor = -1;           ///< function index waited on
    int await_since = -1;           ///< calls_seen when the wait started
    double intensity = -1.0;        ///< compute/(compute+memory), first call
    int predicted_idx = -1;         ///< candidate snapped from the model
    double predicted_opt_mhz = 0.0; ///< continuous analytic EDP minimum
    double predicted_edp = 0.0;     ///< model EDP at the snapped candidate

    bool exploration_done(int samples_per_clock) const;
    int next_candidate(int samples_per_clock) const; ///< -1 when done
    int next_probe(int samples_per_clock) const;     ///< -1 when done
    bool any_samples() const;
    double best_edp_clock() const;
};

/// A FrequencyPolicy that starts with no table and converges to one.
class OnlineManDynPolicy final : public FrequencyPolicy {
public:
    OnlineManDynPolicy(OnlineTunerConfig config,
                       gpusim::Vendor vendor = gpusim::Vendor::kNvidia);

    std::string name() const override { return "OnlineManDyn"; }
    void configure(sim::RunConfig& run_config) const override;
    void attach(sim::RunHooks& hooks, int n_ranks) override;

    /// Checkpoint the learning progress: per-function sample accumulators,
    /// model-fit stage machines and coefficients, convergence flags and
    /// chosen clocks, per-rank clock cache, the open PMT probe reading and
    /// the backend's degradation state.  A resumed run continues exploring
    /// exactly where the interrupted run stopped.
    void save_state(checkpoint::StateWriter& writer) const override;
    void restore_state(const checkpoint::StateReader& reader) override;

    /// The table learned so far (converged functions at their choice,
    /// others at the device default).
    FrequencyTable learned_table(double default_mhz) const;
    bool all_converged() const;
    const FunctionLearner& learner(sph::SphFunction fn) const
    {
        return learners_[static_cast<std::size_t>(fn)];
    }

private:
    void before(int rank, gpusim::GpuDevice& dev, sph::SphFunction fn);
    void after(int rank, gpusim::GpuDevice& dev, sph::SphFunction fn,
               const gpusim::KernelResult& res);
    double rank0_target(FunctionLearner& learner, sph::SphFunction fn);
    double model_target(FunctionLearner& learner, sph::SphFunction fn);
    void assign_model_stage(FunctionLearner& learner, sph::SphFunction fn);
    void start_own_probes(FunctionLearner& learner);
    void poll_seed_anchor(FunctionLearner& learner);
    void finish_probe_fit(FunctionLearner& learner);

    OnlineTunerConfig config_;
    gpusim::Vendor vendor_;
    std::unique_ptr<ClockBackend> backend_;
    std::array<FunctionLearner, sph::kSphFunctionCount> learners_{};
    // Rank-0 is the measurement rank (homogeneous weak scaling, as in the
    // paper's per-rank measurements); learned clocks apply to every rank.
    std::unique_ptr<pmt::Pmt> probe_;
    pmt::State open_state_{};
    std::vector<double> rank_current_mhz_;
};

std::unique_ptr<OnlineManDynPolicy> make_online_mandyn_policy(
    OnlineTunerConfig config = {}, gpusim::Vendor vendor = gpusim::Vendor::kNvidia);

} // namespace gsph::core
