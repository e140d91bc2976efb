#pragma once
/// \file fault_injector.hpp
/// \brief Configurable, deterministic fault injection for the management
/// libraries.
///
/// The paper's premise is *user-level* clock control on production machines
/// where nvmlDeviceSetApplicationsClocks can and does fail: transient
/// NVML_ERROR_UNKNOWN, permission revoked mid-run, calls that report success
/// while the PLL never relocks (stuck clocks), energy counters that wrap or
/// reset, and management calls that stall for milliseconds.  This module
/// reproduces those failure modes inside the simulated vendor facades
/// (nvmlsim, rocmsmi) so resilience code paths can be exercised
/// deterministically.
///
/// A FaultInjector is seeded and draws from the library PRNG (util::Rng),
/// so a given (spec, seed) pair injects the identical fault sequence on
/// every run — fault scenarios are as reproducible as the physics.
///
/// Fault-spec grammar (the CLI's --fault-spec):
///
///   spec   := clause (';' clause)*
///   clause := class [':' key '=' value (',' key '=' value)*]
///
///   transient-set:p=P       each clock set/reset call fails with
///                           probability P (NVML_ERROR_UNKNOWN class;
///                           a retry may succeed)
///   perm-loss:after=N       from the N-th clock write onward every
///                           set/reset returns the permission error
///                           (the admin re-ran `nvidia-smi -acp RESTRICTED`)
///   stuck:at=N,count=M      clock writes N..N+M-1 report success but the
///                           device stays at the old frequency
///   energy-wrap:p=P         each energy-counter read resets the counter
///                           with probability P (wrap/reset: subsequent
///                           cumulative readings restart near zero)
///   slow:p=P,ms=T           each management call stalls T wall-clock
///                           milliseconds with probability P
///   kill-at-step:step=N     SIGKILL the process at the end of simulated
///                           step N (0-based), after that step's checkpoint
///                           was committed — the node-failure fault the
///                           checkpoint/restart subsystem recovers from
///
/// Example: "transient-set:p=0.1;stuck:at=30,count=8;energy-wrap:p=0.01"
///
/// Injection counts are published as telemetry counters
/// (faults.injected.transient, .perm_denied, .stuck, .energy_reset,
/// .slow_calls) so a run's fault load is visible in --metrics-json.

#include "checkpoint/state.hpp"
#include "util/rng.hpp"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace gsph::faults {

/// Management-call sites a fault decision targets (clock writes share one
/// call counter: perm-loss and stuck windows are scheduled in write order).
enum class Op {
    kClockSet,
    kClockReset,
};

/// Per-call verdict the facade maps onto its own error codes.
enum class Outcome {
    kNone,             ///< proceed normally
    kTransientError,   ///< fail this call; a retry may succeed
    kPermissionDenied, ///< permanent permission loss
    kStuck,            ///< report success but do NOT apply the change
};

/// Energy-counter domains keep per-facade reset offsets separate (both
/// facades can be bound to the same devices during a run).
enum class EnergyDomain { kNvml, kRocm };

struct FaultSpec {
    double transient_set_p = 0.0;   ///< transient-set:p
    long long perm_lose_after = -1; ///< perm-loss:after (-1: never)
    long long stuck_at = -1;        ///< stuck:at (-1: never)
    long long stuck_count = 1;      ///< stuck:count
    double energy_reset_p = 0.0;    ///< energy-wrap:p
    double slow_p = 0.0;            ///< slow:p
    double slow_ms = 0.0;           ///< slow:ms
    long long kill_at_step = -1;    ///< kill-at-step:step (-1: never)

    bool any() const;

    /// The spec with the one-shot kill-at-step clause disarmed.  This is
    /// what survives into config echoes, config hashes and checkpoints: a
    /// resumed run must replay the *recoverable* fault stream (the kill
    /// already happened, and it draws no RNG, so dropping it is exact), and
    /// the uninterrupted reference run must hash to the same config.
    FaultSpec durable() const
    {
        FaultSpec copy = *this;
        copy.kill_at_step = -1;
        return copy;
    }

    /// Parse the grammar above; throws std::invalid_argument naming the
    /// offending clause/key/value.  Empty text parses to an all-off spec.
    static FaultSpec parse(const std::string& text);

    /// Canonical one-line rendering of the active clauses ("(none)" when
    /// everything is off) for logs and bench headers.
    std::string describe() const;
};

/// Thread-safe: the facades call decide()/transform_energy() under the
/// injector's mutex.  Hook-driven management calls all come from the
/// driver's thread, in one rank order at every thread count, so fault
/// sequences are deterministic for a fixed (spec, seed) regardless of
/// --threads.
class FaultInjector {
public:
    explicit FaultInjector(FaultSpec spec, std::uint64_t seed = 42);

    /// Decide the fate of one clock write.  May stall (slow fault).
    Outcome decide(Op op);

    /// Pass a cumulative energy reading through the wrap/reset fault: with
    /// probability energy_reset_p the counter restarts at the current value
    /// (readings continue from ~0), mimicking a firmware counter reset.
    /// May stall (slow fault).  `raw` is in the caller's native unit.
    std::uint64_t transform_energy(EnergyDomain domain, unsigned int device_index,
                                   std::uint64_t raw);

    /// End-of-step notification from the driver.  Raises SIGKILL when the
    /// spec's kill-at-step matches `step` — a real, uncatchable process
    /// death, exactly what the kill-resume harness exercises.
    void on_step_end(int step);

    long long clock_writes_seen() const;
    const FaultSpec& spec() const { return spec_; }

    /// Checkpoint the fault stream position: RNG words, clock-write counter
    /// and per-domain energy-reset offsets.  Restoring replays the exact
    /// fault sequence the interrupted run would have seen.
    void save_state(checkpoint::StateWriter& writer) const;
    void restore_state(const checkpoint::StateReader& reader);

private:
    void maybe_stall_locked();

    FaultSpec spec_;
    mutable std::mutex mutex_;
    util::Rng rng_;
    long long clock_writes_ = 0;
    std::map<std::uint64_t, std::uint64_t> energy_offsets_;
};

/// Install `injector` as the process-wide injector the vendor facades
/// consult (nullptr: disable injection).  The caller keeps ownership.
void install(FaultInjector* injector);
/// The installed injector, or nullptr when fault injection is off.
FaultInjector* active();

/// Driver call-out at the end of each simulated step; no-op without an
/// installed injector.
void notify_step_end(int step);

/// RAII install/uninstall for the CLI, benches and tests.
class ScopedFaultInjection {
public:
    ScopedFaultInjection(FaultSpec spec, std::uint64_t seed = 42);
    ~ScopedFaultInjection();
    ScopedFaultInjection(const ScopedFaultInjection&) = delete;
    ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

    FaultInjector& injector() { return injector_; }

private:
    FaultInjector injector_;
};

} // namespace gsph::faults
