#include "core/controller.hpp"

#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"

#include <stdexcept>
#include <utility>

namespace gsph::core {

namespace {

telemetry::Counter& controller_counter(const char* name)
{
    return telemetry::MetricsRegistry::global().counter(name);
}

} // namespace

FrequencyController::FrequencyController(FrequencyTable table, int n_ranks,
                                         std::unique_ptr<ClockBackend> backend)
    : table_(table),
      backend_(backend ? std::move(backend) : make_nvml_clock_backend(n_ranks)),
      current_mhz_(static_cast<std::size_t>(n_ranks), -1.0)
{
    if (n_ranks <= 0) throw std::invalid_argument("FrequencyController: n_ranks <= 0");
}

ClockStatus FrequencyController::apply(int rank, sph::SphFunction fn)
{
    static telemetry::Counter& applies = controller_counter("controller.apply.calls");
    static telemetry::Counter& skips = controller_counter("controller.skipped.calls");
    applies.inc();
    if (rank < 0 || rank >= static_cast<int>(current_mhz_.size())) {
        return ClockStatus::kInvalidArgument;
    }
    const double target = table_.get(fn);
    if (current_mhz_[static_cast<std::size_t>(rank)] == target) {
        skips.inc();
        return ClockStatus::kOk;
    }
    const ClockStatus status = backend_->set_cap_mhz(rank, target);
    ++backend_calls_;
    if (status == ClockStatus::kOk) {
        const double previous = current_mhz_[static_cast<std::size_t>(rank)];
        current_mhz_[static_cast<std::size_t>(rank)] = target;
        if (telemetry::decision_audited()) {
            telemetry::DecisionRecord rec;
            rec.policy = audit_.policy;
            rec.rank = rank;
            rec.function = static_cast<int>(fn);
            rec.candidate_mhz = audit_.candidate_mhz;
            rec.chosen_mhz = target;
            rec.predicted_edp =
                audit_.predicted_edp[static_cast<std::size_t>(fn)];
            rec.inputs.emplace_back("previous_mhz", previous);
            rec.inputs.emplace_back("backend_calls",
                                    static_cast<double>(backend_calls_));
            rec.trace_id = audit_.trace_id;
            telemetry::audit_decision(std::move(rec));
        }
    }
    return status;
}

void FrequencyController::save_state(checkpoint::StateWriter& writer) const
{
    writer.put_f64_vec("controller.current_mhz", current_mhz_);
    writer.put_i64("controller.backend_calls", backend_calls_);
    backend_->save_state(writer);
}

void FrequencyController::restore_state(const checkpoint::StateReader& reader)
{
    const auto mhz = reader.get_f64_vec("controller.current_mhz");
    if (mhz.size() != current_mhz_.size()) {
        throw checkpoint::CheckpointError(
            "controller: current_mhz rank count mismatch (checkpoint " +
            std::to_string(mhz.size()) + ", run " +
            std::to_string(current_mhz_.size()) + ")");
    }
    current_mhz_ = mhz;
    backend_calls_ = static_cast<long>(reader.get_i64("controller.backend_calls"));
    backend_->restore_state(reader);
}

void FrequencyController::restore_all()
{
    static telemetry::Counter& restores = controller_counter("controller.restore.calls");
    restores.inc();
    for (std::size_t r = 0; r < current_mhz_.size(); ++r) {
        if (current_mhz_[r] < 0.0) continue; // never touched
        backend_->reset(static_cast<int>(r));
        ++backend_calls_;
        current_mhz_[r] = -1.0;
    }
}

} // namespace gsph::core
