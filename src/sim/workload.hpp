#pragma once
/// \file workload.hpp
/// \brief Workload traces: real physics recorded once, replayed cheaply.
///
/// The paper's runs are weak-scaled (identical particles/GPU on every
/// rank), so the per-rank kernel work is statistically identical across
/// ranks.  We therefore run the *real* SPH simulation once per workload at a
/// laptop-scale resolution, record the per-function KernelWork of every
/// step, and replay that trace on every simulated rank with the operation
/// counts scaled to the paper's particles-per-GPU (see DESIGN.md,
/// "Operation-count coupling" and the scale substitution row).

#include "gpusim/kernel_work.hpp"
#include "sph/functions.hpp"
#include "sph/ic.hpp"

#include <string>
#include <vector>

namespace gsph::sim {

enum class WorkloadKind { kSubsonicTurbulence, kEvrardCollapse, kSedovBlast };

const char* to_string(WorkloadKind kind);

struct WorkloadSpec {
    WorkloadKind kind = WorkloadKind::kSubsonicTurbulence;
    /// Paper-scale particles per GPU (Table I: 150e6 turbulence, 80e6
    /// Evrard; the miniHPC experiments use 450^3 = 91.125e6 down to 200^3).
    double particles_per_gpu = 150e6;
    int n_steps = 100; ///< Table I: -s 100
    /// Resolution of the real physics run a trace is recorded from
    /// (particles = real_nside^3 for turbulence, ~real_nside^3 for Evrard).
    int real_nside = 12;
    std::uint64_t seed = 42;
};

struct FunctionRecord {
    sph::SphFunction fn;
    gpusim::KernelWork work;
};

struct StepRecord {
    std::vector<FunctionRecord> functions;
};

struct WorkloadTrace {
    std::string workload_name;
    WorkloadKind kind = WorkloadKind::kSubsonicTurbulence;
    double n_particles_real = 0.0;
    double particles_per_gpu = 0.0; ///< target scale the trace will represent
    /// Measured SFC-surface prefactor c (halo particles ~= c * N^(2/3)),
    /// from sph::analyze_sfc_decomposition of the recorded run; 0 when not
    /// measured (the comm model falls back to its analytic constant).
    double halo_surface_prefactor = 0.0;
    std::vector<StepRecord> steps;

    /// Multiplier applied to per-step work at replay time.
    double work_scale() const
    {
        return n_particles_real > 0.0 ? particles_per_gpu / n_particles_real : 1.0;
    }
    int n_steps() const { return static_cast<int>(steps.size()); }

    /// Sum of (unscaled) flops over all steps and functions.
    double total_flops() const;

    /// Serialize to a text artifact (CSV with a metadata header) so traces
    /// can be recorded once and reused across sessions/tools; parse throws
    /// std::invalid_argument, naming the line, on malformed input.  parse
    /// reads numbers with std::from_chars: every double serialize() writes
    /// (subnormals, signed zeros, infinities) reads back bit for bit, and a
    /// number with a leading '+', whitespace or a hex form is rejected.
    std::string serialize() const;
    static WorkloadTrace parse(const std::string& text);
};

/// Run the real physics once and record the trace.  Also returns final
/// conservation diagnostics through `final_diag` when non-null.
WorkloadTrace record_trace(const WorkloadSpec& spec,
                           sph::StepDiagnostics* final_diag = nullptr);

/// Build the SphSimulation a trace would be recorded from (exposed for
/// tests and examples that want to drive the physics directly).
sph::SphSimulation make_simulation(const WorkloadSpec& spec);

} // namespace gsph::sim
