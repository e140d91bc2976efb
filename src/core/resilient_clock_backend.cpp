/// \file resilient_clock_backend.cpp
/// \brief Retry / verify / degrade wrapper around a vendor ClockBackend.
///
/// The paper's user-level clock control runs on production machines where
/// nvmlDeviceSetApplicationsClocks fails for real: transient
/// NVML_ERROR_UNKNOWN blips, permission revoked mid-run, and "accepted"
/// calls that never reach the PLL (stuck clocks).  A policy that treats
/// set-calls as fire-and-forget then silently runs — and *measures* — at
/// the wrong frequency.  This wrapper gives every policy the same
/// production posture:
///
///   - bounded retry with exponential backoff for transient failures,
///   - read-back verification (get_cap_mhz after set) so a stuck clock
///     surfaces as ClockStatus::kVerifyFailed instead of silent corruption,
///   - per-rank degraded-mode latching after repeated permission failures,
///     so a rank that lost clock control stops hammering the library and
///     the run completes at whatever clock the device holds,
///   - telemetry (clock.set_retries, clock.set_failures,
///     clock.verify_mismatches, clock.degraded_ranks) so degradation is
///     observable in --metrics-json rather than inferred from energy plots.
///
/// Per-rank state is unsynchronized by design: the driver fires every
/// before/after hook on its own thread, in rank order, at any thread count
/// (see RunConfig::n_threads), the same contract FrequencyController relies
/// on.

#include "core/clock_backend.hpp"

#include "telemetry/live.hpp"
#include "telemetry/metrics.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace gsph::core {

namespace {

telemetry::Counter& clock_counter(const char* name)
{
    return telemetry::MetricsRegistry::global().counter(name);
}

/// Time one management call for the live observability plane.  When no
/// observer is installed (every run without --metrics-port/--sample-every)
/// this is a plain call — not even the steady_clock reads happen, so the
/// pre-observability instruction stream is preserved exactly.  Backoff
/// sleeps are deliberately *outside* these timings: a stall alert must mean
/// the vendor library stalled, not that our own retry policy slept.
template <typename F>
ClockStatus timed_mgmt_call(const char* op, F&& call)
{
    if (!telemetry::call_latency_observed()) return call();
    const auto t0 = std::chrono::steady_clock::now();
    const ClockStatus status = call();
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    telemetry::observe_call_latency(op, dt.count());
    return status;
}

class ResilientClockBackend final : public ClockBackend {
public:
    ResilientClockBackend(std::unique_ptr<ClockBackend> inner, ResilienceConfig config)
        : inner_(std::move(inner)), config_(config)
    {
        if (!inner_) {
            throw std::invalid_argument("ResilientClockBackend: null inner backend");
        }
        if (config_.max_attempts < 1) {
            throw std::invalid_argument("ResilientClockBackend: max_attempts < 1");
        }
        if (config_.degrade_after < 1) {
            throw std::invalid_argument("ResilientClockBackend: degrade_after < 1");
        }
    }

    ClockStatus set_cap_mhz(int rank, double mhz) override
    {
        static telemetry::Counter& retries = clock_counter("clock.set_retries");
        static telemetry::Counter& failures = clock_counter("clock.set_failures");
        static telemetry::Counter& mismatches = clock_counter("clock.verify_mismatches");

        if (rank < 0) return ClockStatus::kInvalidArgument;
        ensure_rank(rank);
        auto& state = ranks_[static_cast<std::size_t>(rank)];
        if (state.degraded) {
            // Latched: the library kept answering "no permission"; stop
            // hammering it and let the run proceed at the device's clock.
            failures.inc();
            return ClockStatus::kPermissionDenied;
        }

        ClockStatus status = ClockStatus::kUnavailable;
        for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
            if (attempt > 0) {
                retries.inc();
                backoff(attempt);
            }
            status = timed_mgmt_call(
                "clock.set", [&] { return inner_->set_cap_mhz(rank, mhz); });
            if (status == ClockStatus::kOk && config_.verify_readback) {
                double applied = 0.0;
                // kUnavailable from get_cap_mhz means the vendor surface has
                // no cap query (rocm_smi) — verification is skipped, not
                // failed.
                if (timed_mgmt_call("clock.get",
                                    [&] { return inner_->get_cap_mhz(rank, &applied); }) ==
                        ClockStatus::kOk &&
                    std::abs(applied - mhz) > config_.verify_tolerance_mhz) {
                    mismatches.inc();
                    status = ClockStatus::kVerifyFailed;
                }
            }
            if (status == ClockStatus::kOk) {
                state.consecutive_permission_failures = 0;
                return status;
            }
            // Retry only failure classes a retry can fix.
            if (status == ClockStatus::kPermissionDenied) break;
            if (status == ClockStatus::kInvalidArgument) return status;
        }

        failures.inc();
        if (status == ClockStatus::kPermissionDenied &&
            ++state.consecutive_permission_failures >= config_.degrade_after) {
            state.degraded = true;
            clock_counter("clock.degraded_ranks").inc();
        }
        return status;
    }

    ClockStatus reset(int rank) override
    {
        if (rank < 0) return ClockStatus::kInvalidArgument;
        ensure_rank(rank);
        const ClockStatus status =
            timed_mgmt_call("clock.reset", [&] { return inner_->reset(rank); });
        if (status == ClockStatus::kOk) {
            // An explicit restore that works clears the degraded latch: the
            // operator may have re-granted permission between runs.
            auto& state = ranks_[static_cast<std::size_t>(rank)];
            state.degraded = false;
            state.consecutive_permission_failures = 0;
        }
        return status;
    }

    ClockStatus get_cap_mhz(int rank, double* mhz) override
    {
        return inner_->get_cap_mhz(rank, mhz);
    }

    std::string name() const override { return "resilient(" + inner_->name() + ")"; }

    void save_state(checkpoint::StateWriter& writer) const override
    {
        writer.put_u64("resilient.ranks", ranks_.size());
        for (std::size_t r = 0; r < ranks_.size(); ++r) {
            const std::string prefix = "resilient." + std::to_string(r) + ".";
            writer.put_i64(prefix + "perm_failures",
                           ranks_[r].consecutive_permission_failures);
            writer.put_bool(prefix + "degraded", ranks_[r].degraded);
        }
        inner_->save_state(writer);
    }

    void restore_state(const checkpoint::StateReader& reader) override
    {
        ranks_.assign(reader.get_u64("resilient.ranks"), RankState{});
        for (std::size_t r = 0; r < ranks_.size(); ++r) {
            const std::string prefix = "resilient." + std::to_string(r) + ".";
            ranks_[r].consecutive_permission_failures =
                static_cast<int>(reader.get_i64(prefix + "perm_failures"));
            ranks_[r].degraded = reader.get_bool(prefix + "degraded");
        }
        inner_->restore_state(reader);
    }

private:
    struct RankState {
        int consecutive_permission_failures = 0;
        bool degraded = false;
    };

    void ensure_rank(int rank)
    {
        if (static_cast<std::size_t>(rank) >= ranks_.size()) {
            ranks_.resize(static_cast<std::size_t>(rank) + 1);
        }
    }

    void backoff(int attempt) const
    {
        if (config_.backoff_base_ms <= 0.0) return;
        const double ms = config_.backoff_base_ms *
                          std::pow(config_.backoff_factor, attempt - 1);
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<long long>(ms * 1000.0)));
    }

    std::unique_ptr<ClockBackend> inner_;
    ResilienceConfig config_;
    std::vector<RankState> ranks_;
};

} // namespace

std::unique_ptr<ClockBackend> make_resilient_clock_backend(
    std::unique_ptr<ClockBackend> inner, ResilienceConfig config)
{
    return std::make_unique<ResilientClockBackend>(std::move(inner), config);
}

} // namespace gsph::core
