#pragma once
/// \file ledger.hpp
/// \brief Energy-attribution ledger + policy decision audit trail.
///
/// The run summary says how much energy a run consumed; the ledger says
/// *which joule belongs to whom* and *why the policy made each frequency
/// decision*.  Two record kinds, both pure functions of the simulated run:
///
///  - **Attribution buckets** keyed by (rank/device × function × phase ×
///    applied-frequency).  Every joule and every simulated second of the
///    loop window lands in exactly one bucket, integrated telescopically
///    from device energy/time deltas inside the driver's RunHooks:
///      * phase "kernel": the function's kernel execution window
///        (before_function -> after_function on that rank);
///      * phase "sync": everything between that function's after hook and
///        the next before hook — attributed halo exchange, collective
///        padding and end-of-step catch-up, mirroring the driver's own
///        convention of charging communication to the function that caused
///        it.
///    Because the deltas telescope, the bucket sum equals the loop-window
///    GPU energy to accumulation rounding (the <= 1e-9 relative acceptance
///    bound), for any --threads.
///
///  - **Decision records** received through the telemetry::audit sink from
///    every frequency policy: policy name, step, rank, function, candidate
///    set, named inputs, chosen clock and predicted EDP.  The ledger then
///    measures the *realized* EDP of the next execution of that
///    (rank, function) and joins it to the record, so prediction error is
///    first-class data instead of a notebook exercise.
///
/// Hooks fire on the driving thread in rank order (the driver's contract)
/// and all per-bucket accumulation is rank-local, so the ledger is
/// bit-identical across thread counts; its full state checkpoints and
/// restores, so resumed runs emit byte-identical JSONL ledgers.  The mutex
/// only guards against the exporter's publisher thread snapshotting
/// (/attribution.json, top-N /metrics gauges) mid-update.

#include "checkpoint/state.hpp"
#include "sim/driver.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/json.hpp"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gsph::telemetry {

class Counter;

inline constexpr const char* kLedgerSchema = "greensph.ledger/v1";

/// Attribution phases (serialized by name).
enum class LedgerPhase { kKernel = 0, kSync = 1 };
const char* to_string(LedgerPhase phase);

/// One (rank × function × phase × applied-frequency) accumulation cell.
struct AttributionBucket {
    int rank = 0;
    int function = -1; ///< sph::SphFunction index; -1 before the first call
    LedgerPhase phase = LedgerPhase::kKernel;
    double freq_mhz = 0.0; ///< applied (policy-set) clock for the window
    double energy_j = 0.0;
    double time_s = 0.0;
    long calls = 0; ///< kernel executions (0 for pure sync buckets)
};

/// One audited frequency decision, joined with its realized outcome.
struct AuditedDecision {
    std::int64_t id = 0; ///< monotone sequence, order of decision time
    int step = 0;        ///< simulated step the decision was made in
    DecisionRecord record;
    bool resolved = false;    ///< realized window measured yet?
    double realized_edp = 0.0; ///< energy_j * time_s of the decided window
};

class AttributionLedger {
public:
    explicit AttributionLedger(int n_ranks);
    ~AttributionLedger(); ///< removes the decision sink if installed
    AttributionLedger(const AttributionLedger&) = delete;
    AttributionLedger& operator=(const AttributionLedger&) = delete;

    /// Append the attribution hooks and install the process-wide decision
    /// sink.  The ledger reads the clock the policy just applied; the order
    /// rule of sim::RunHooks runs policies first however the two attach.
    void attach(sim::RunHooks& hooks);

    int n_ranks() const { return n_ranks_; }

    // --- queries (driving thread, or any thread — mutex-guarded) ----------
    /// Buckets in deterministic (rank, function, phase, freq) order.
    std::vector<AttributionBucket> buckets() const;
    /// Sum of bucket energies == loop-window GPU energy attributed so far.
    double attributed_energy_j() const;
    double attributed_time_s() const; ///< summed over ranks
    std::vector<AuditedDecision> decisions() const;
    std::size_t decision_count() const;
    int steps_completed() const;

    /// Live attribution snapshot (served as /attribution.json): header,
    /// bucket table, and the trailing `max_decisions` decision records.
    Json attribution_json(std::size_t max_decisions = 64) const;

    /// Prometheus exposition lines for the top-N energy buckets plus
    /// attribution totals, appended to /metrics by the exporter.  Passes
    /// telemetry::check_exposition.
    std::string top_exposition(std::size_t top_n = 16) const;

    /// Write the full ledger as JSONL: one header object (the caller's
    /// `header` plus the schema), then one line per bucket, then one line
    /// per decision, in deterministic order.  Atomic temp+rename; false on
    /// I/O failure.
    bool write_jsonl(const std::string& path, const Json& header = {}) const;

    /// Checkpoint the complete ledger state; a resumed run's JSONL is
    /// byte-identical to an uninterrupted one's.
    void save_state(checkpoint::StateWriter& writer) const;
    void restore_state(const checkpoint::StateReader& reader);

private:
    /// Bucket key with strict ordering for deterministic iteration.
    struct Key {
        int rank;
        int function;
        int phase;
        std::int64_t freq_centi_mhz; ///< freq * 100, rounded (exact key)
        bool operator<(const Key& other) const
        {
            if (rank != other.rank) return rank < other.rank;
            if (function != other.function) return function < other.function;
            if (phase != other.phase) return phase < other.phase;
            return freq_centi_mhz < other.freq_centi_mhz;
        }
    };
    struct Cell {
        double freq_mhz = 0.0;
        double energy_j = 0.0;
        double time_s = 0.0;
        long calls = 0;
    };
    struct RankState {
        const gpusim::GpuDevice* dev = nullptr; ///< seen via hooks; not owned
        bool primed = false;
        double last_energy_j = 0.0; ///< device energy accounted so far
        double last_time_s = 0.0;   ///< device time accounted so far
        int prev_function = -1;     ///< attribution target for sync windows
        double applied_mhz = 0.0;   ///< policy-applied clock in effect
    };

    void on_before(int rank, gpusim::GpuDevice& dev, sph::SphFunction fn);
    void on_after(int rank, gpusim::GpuDevice& dev, sph::SphFunction fn);
    void on_step_end(int step);
    void on_decision(DecisionRecord&& record);
    /// Charge (energy, time) advanced since the rank's last event.
    void sweep_locked(RankState& rs, int rank, int function, LedgerPhase phase,
                      bool count_call);
    Cell& cell_locked(int rank, int function, LedgerPhase phase, double freq_mhz);
    /// The checkpoint lines of decisions_[d].
    void put_decision_locked(checkpoint::StateWriter& writer, std::size_t d) const;

    int n_ranks_;
    mutable std::mutex mutex_;
    std::vector<RankState> ranks_;
    std::map<Key, Cell> buckets_;
    std::vector<AuditedDecision> decisions_;
    /// (rank * kSphFunctionCount + function) -> index into decisions_ of the
    /// decision awaiting its realized window (-1: none).
    std::vector<std::int64_t> pending_;
    std::int64_t next_decision_id_ = 0;
    /// Checkpoint lines of the settled decisions (save_state).
    mutable checkpoint::EncodeCache saved_decisions_;
    int steps_completed_ = 0;
    bool sink_installed_ = false;
    // The registry counters the constructor creates; the registry never
    // frees an instrument, so the hooks skip the lookup by name.
    Counter* decisions_counter_ = nullptr;
    Counter* resolved_counter_ = nullptr;
};

} // namespace gsph::telemetry
