#pragma once
/// \file controller.hpp
/// \brief The ManDyn frequency controller (the paper's §III-D).
///
/// Before each SPH function the instrumentation sets the function's
/// sweet-spot clock from the FrequencyTable on the GPU driven by this rank
/// (one rank = one GPU), keeping the memory clock as-is.  Clock control
/// goes through a vendor ClockBackend: NVML on NVIDIA (the paper's path),
/// rocm_smi frequency-level bitmasks on AMD (the paper's future work).
/// Redundant calls for consecutive functions sharing a clock are skipped:
/// every applications-clock change costs a PLL relock.

#include "core/clock_backend.hpp"
#include "core/frequency_table.hpp"
#include "sph/functions.hpp"

#include <array>
#include <memory>
#include <string>
#include <vector>

namespace gsph::core {

/// Decision provenance attached by whoever built the controller's table.
/// Deliberately separate from FrequencyTable (whose value semantics —
/// operator==, CSV round-trip, checkpoints — must not change): this is
/// audit metadata, not control state.  When a telemetry decision sink is
/// installed, every *actual* clock change emits one DecisionRecord carrying
/// these fields plus the concrete rank/function/clock.
struct ControllerAuditInfo {
    std::string policy = "ManDyn";     ///< deciding policy label
    std::vector<double> candidate_mhz; ///< sweep candidates the table chose from
    /// Predicted per-call EDP at the table's clock, per SPH function
    /// (<= 0: the table came without sweep predictions).
    std::array<double, sph::kSphFunctionCount> predicted_edp{};
    /// Distributed trace id of the tune request / run that produced the
    /// table (32 hex chars; empty: untraced).  Copied into every audited
    /// DecisionRecord so the audit trail joins the distributed trace.
    std::string trace_id;
};

class FrequencyController {
public:
    /// `n_ranks` GPU-driving ranks.  `backend` defaults to NVML (the
    /// paper's instrumentation); pass make_rocm_clock_backend or
    /// make_clock_backend(vendor, ...) for other devices.
    FrequencyController(FrequencyTable table, int n_ranks,
                        std::unique_ptr<ClockBackend> backend = nullptr);

    FrequencyController(const FrequencyController&) = delete;
    FrequencyController& operator=(const FrequencyController&) = delete;

    /// Set the clock for `fn` on the GPU of `rank`; no-op when the clock
    /// already matches.
    ClockStatus apply(int rank, sph::SphFunction fn);

    /// Restore every touched device to its default clocks.
    void restore_all();

    /// Attach decision provenance (policy label, candidate set, predicted
    /// EDPs) to every audited clock change this controller makes.
    void set_audit_info(ControllerAuditInfo info) { audit_ = std::move(info); }
    const ControllerAuditInfo& audit_info() const { return audit_; }

    const FrequencyTable& table() const { return table_; }
    const ClockBackend& backend() const { return *backend_; }
    long backend_calls() const { return backend_calls_; }

    /// Checkpoint the per-rank last-set clocks, call counters and the
    /// backend's own state (degradation latches).  The restored controller
    /// keeps skipping redundant sets exactly where the interrupted run did.
    void save_state(checkpoint::StateWriter& writer) const;
    void restore_state(const checkpoint::StateReader& reader);

private:
    FrequencyTable table_;
    ControllerAuditInfo audit_;
    std::unique_ptr<ClockBackend> backend_;
    std::vector<double> current_mhz_; ///< last clock set per rank (<0: unknown)
    long backend_calls_ = 0;
};

} // namespace gsph::core
