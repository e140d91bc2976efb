#include "sph/functions.hpp"

#include "sph/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace gsph::sph {

namespace {

/// GPU cost coefficients per function: FP64 operations and DRAM bytes a
/// CUDA/HIP implementation executes per neighbour pair and per particle.
/// Derived from instruction audits of SPH-EXA's kernels (pair loops with
/// tabulated kernels, IAD tensor algebra, AV) with DRAM bytes reflecting
/// neighbour-gather traffic after L2 caching; `gather` is the scattered
/// fraction of that traffic and `flop_eff` the achievable fraction of peak
/// FP64 for the instruction mix.  These constants set the *absolute* scale
/// of the device model; the relative weights across a run come from the
/// measured pair/particle counts.
struct CostSpec {
    double flops_per_pair = 0.0;
    double bytes_per_pair = 0.0;
    double flops_per_particle = 0.0;
    double bytes_per_particle = 0.0;
    double gather = 0.0;
    double flop_eff = 0.5;
    std::int64_t launches = 1;
};

constexpr CostSpec kFindNeighborsCost{50.0, 48.0, 40.0, 96.0, 0.40, 0.20, 4};
constexpr CostSpec kXMassCost{22.0, 50.0, 10.0, 24.0, 0.30, 0.45, 1};
constexpr CostSpec kGradhCost{26.0, 50.0, 14.0, 32.0, 0.30, 0.45, 1};
constexpr CostSpec kEosCost{0.0, 0.0, 20.0, 56.0, 0.0, 0.15, 1};
constexpr CostSpec kIadCost{75.0, 14.8, 90.0, 112.0, 0.45, 0.55, 2};
constexpr CostSpec kAvSwitchCost{0.0, 0.0, 34.0, 72.0, 0.0, 0.20, 1};
// MomentumEnergy gathers the most per-neighbour state (v, p, rho, c, alpha,
// gradh of j), hence the highest scattered-traffic fraction.
constexpr CostSpec kMomentumEnergyCost{230.0, 33.0, 30.0, 120.0, 0.85, 0.60, 1};
constexpr CostSpec kGravityCost{38.0, 22.0, 60.0, 80.0, 0.60, 0.50, 2};
constexpr CostSpec kEnergyConsCost{0.0, 0.0, 12.0, 48.0, 0.0, 0.12, 3};
constexpr CostSpec kTimestepCost{0.0, 0.0, 14.0, 24.0, 0.0, 0.12, 2};
constexpr CostSpec kUpdateQuantCost{0.0, 0.0, 36.0, 144.0, 0.0, 0.20, 1};
constexpr CostSpec kUpdateHCost{0.0, 0.0, 12.0, 24.0, 0.0, 0.15, 1};
// DomainDecompAndSync: key computation + 8-pass radix sort + tree build.
// Dominated by many lightweight launches -> low utilization (paper Fig. 9).
constexpr CostSpec kDomainCost{0.0, 0.0, 46.0, 420.0, 0.30, 0.12, 1};

gpusim::KernelWork make_work(const CostSpec& cost, double pairs, double particles,
                             std::int64_t launches)
{
    gpusim::KernelWork w;
    w.flops = cost.flops_per_pair * pairs + cost.flops_per_particle * particles;
    w.dram_bytes = cost.bytes_per_pair * pairs + cost.bytes_per_particle * particles;
    w.gather_fraction = cost.gather;
    w.flop_efficiency = cost.flop_eff;
    w.launches = launches;
    w.threads = static_cast<std::int64_t>(particles);
    return w;
}

} // namespace

const char* to_string(SphFunction fn)
{
    switch (fn) {
        case SphFunction::kDomainDecompAndSync: return "DomainDecompAndSync";
        case SphFunction::kFindNeighbors: return "FindNeighbors";
        case SphFunction::kXMass: return "XMass";
        case SphFunction::kNormalizationGradh: return "NormalizationGradh";
        case SphFunction::kEquationOfState: return "EquationOfState";
        case SphFunction::kIadVelocityDivCurl: return "IADVelocityDivCurl";
        case SphFunction::kAVswitches: return "AVswitches";
        case SphFunction::kMomentumEnergy: return "MomentumEnergy";
        case SphFunction::kGravity: return "Gravity";
        case SphFunction::kEnergyConservation: return "EnergyConservation";
        case SphFunction::kTimestep: return "Timestep";
        case SphFunction::kUpdateQuantities: return "UpdateQuantities";
        case SphFunction::kUpdateSmoothingLength: return "UpdateSmoothingLength";
    }
    return "Unknown";
}

std::vector<SphFunction> function_order(bool include_gravity)
{
    std::vector<SphFunction> order = {
        SphFunction::kDomainDecompAndSync, SphFunction::kFindNeighbors,
        SphFunction::kXMass,               SphFunction::kNormalizationGradh,
        SphFunction::kEquationOfState,     SphFunction::kIadVelocityDivCurl,
        SphFunction::kAVswitches,          SphFunction::kMomentumEnergy,
    };
    if (include_gravity) order.push_back(SphFunction::kGravity);
    order.push_back(SphFunction::kEnergyConservation);
    order.push_back(SphFunction::kTimestep);
    order.push_back(SphFunction::kUpdateQuantities);
    order.push_back(SphFunction::kUpdateSmoothingLength);
    return order;
}

bool is_collective(SphFunction fn)
{
    return fn == SphFunction::kEnergyConservation || fn == SphFunction::kTimestep;
}

SphSimulation::SphSimulation(ParticleSet particles, Box box, SphConfig config)
    : particles_(std::move(particles)), box_(box), config_(config),
      kernel_(config.kernel_type)
{
    if (particles_.size() == 0) {
        throw std::invalid_argument("SphSimulation: empty particle set");
    }
    neighbors_.ngmax = config_.ngmax;
    for (std::size_t i = 0; i < particles_.size(); ++i) {
        if (particles_.h[i] <= 0.0) {
            throw std::invalid_argument("SphSimulation: non-positive smoothing length");
        }
        if (particles_.m[i] <= 0.0) {
            throw std::invalid_argument("SphSimulation: non-positive mass");
        }
        particles_.alpha[i] = config_.av_alpha_min;
    }
}

gpusim::KernelWork SphSimulation::domain_decomp_and_sync()
{
    const std::size_t n = particles_.size();

    // Wrap periodic positions and compute SFC keys.
    for (std::size_t i = 0; i < n; ++i) {
        const Vec3 wrapped = box_.wrap(particles_.pos(i));
        particles_.x[i] = wrapped.x;
        particles_.y[i] = wrapped.y;
        particles_.z[i] = wrapped.z;
        particles_.key[i] = morton_key(wrapped, box_);
    }

    // Sort particles along the SFC.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
        return particles_.key[a] < particles_.key[b];
    });
    particles_.reorder(order);

    // Build the cornerstone octree over the sorted keys.
    octree_.build(particles_, box_, 16);
    neighbors_valid_ = false;

    const auto launches = static_cast<std::int64_t>(tree_build_launch_count(octree_));
    return make_work(kDomainCost, 0.0, static_cast<double>(n), launches);
}

gpusim::KernelWork SphSimulation::find_neighbors()
{
    const std::size_t pre_cap_pairs = find_all_neighbors(particles_, box_, neighbors_);
    neighbors_valid_ = true;
    return make_work(kFindNeighborsCost, static_cast<double>(pre_cap_pairs),
                     static_cast<double>(particles_.size()), kFindNeighborsCost.launches);
}

gpusim::KernelWork SphSimulation::xmass()
{
    if (!neighbors_valid_) {
        throw std::logic_error("xmass: neighbours not built (call find_neighbors)");
    }
    const KernelTable& kern = kernel_;
    const std::size_t n = particles_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const double hi = particles_.h[i];
        double xm = particles_.m[i] * kern.w(0.0, hi); // self contribution
        const Vec3 xi = particles_.pos(i);
        for (std::size_t p = neighbors_.offsets[i]; p < neighbors_.offsets[i + 1]; ++p) {
            const std::uint32_t j = neighbors_.list[p];
            const double r = neighbors_.displacement(p, xi, particles_.pos(j)).norm();
            xm += particles_.m[j] * kern.w(r, hi);
        }
        particles_.xmass[i] = xm;
        // Density from the volume-element sum (equal-mass scheme).
        particles_.rho[i] = xm;
    }
    return make_work(kXMassCost, static_cast<double>(neighbors_.total_pairs()),
                     static_cast<double>(n), kXMassCost.launches);
}

gpusim::KernelWork SphSimulation::normalization_gradh()
{
    const KernelTable& kern = kernel_;
    const std::size_t n = particles_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const double hi = particles_.h[i];
        double dsum = particles_.m[i] * kern.dw_dh(0.0, hi);
        const Vec3 xi = particles_.pos(i);
        for (std::size_t p = neighbors_.offsets[i]; p < neighbors_.offsets[i + 1]; ++p) {
            const std::uint32_t j = neighbors_.list[p];
            const double r = neighbors_.displacement(p, xi, particles_.pos(j)).norm();
            dsum += particles_.m[j] * kern.dw_dh(r, hi);
        }
        // Omega_i = 1 + (h / 3 rho) * sum_j m_j dW/dh
        const double rho = std::max(particles_.rho[i], 1e-30);
        const double omega = 1.0 + hi / (3.0 * rho) * dsum;
        particles_.gradh[i] = std::clamp(omega, 0.2, 3.0);
    }
    return make_work(kGradhCost, static_cast<double>(neighbors_.total_pairs()),
                     static_cast<double>(n), kGradhCost.launches);
}

gpusim::KernelWork SphSimulation::equation_of_state()
{
    const std::size_t n = particles_.size();
    const double gm1 = config_.gamma - 1.0;
    for (std::size_t i = 0; i < n; ++i) {
        particles_.u[i] = std::max(particles_.u[i], config_.u_floor);
        const double rho = std::max(particles_.rho[i], 1e-30);
        particles_.p[i] = gm1 * rho * particles_.u[i];
        particles_.c[i] = std::sqrt(config_.gamma * particles_.p[i] / rho);
        if (particles_.vsig[i] <= 0.0) particles_.vsig[i] = particles_.c[i];
    }
    return make_work(kEosCost, 0.0, static_cast<double>(n), kEosCost.launches);
}

gpusim::KernelWork SphSimulation::iad_velocity_div_curl()
{
    const KernelTable& kern = kernel_;
    const std::size_t n = particles_.size();
    std::vector<double> volume(n); // m_j / rho_j
    for (std::size_t j = 0; j < n; ++j) {
        volume[j] = particles_.m[j] / std::max(particles_.rho[j], 1e-30);
    }
    // x_j - x_i and W(|x_j - x_i|, h_i) of each neighbour, from the first
    // loop for the second (grown to the longest list, at most ngmax).
    std::vector<Vec3> disp;
    std::vector<double> wgt;
    for (std::size_t i = 0; i < n; ++i) {
        const double hi = particles_.h[i];
        const Vec3 xi = particles_.pos(i);
        const Vec3 vi = particles_.vel(i);
        const std::size_t first = neighbors_.offsets[i];
        const std::size_t count = neighbors_.count(i);
        if (disp.size() < count) {
            disp.resize(count);
            wgt.resize(count);
        }

        Sym3 tau;
        for (std::size_t k = 0; k < count; ++k) {
            const std::uint32_t j = neighbors_.list[first + k];
            const Vec3 d = neighbors_.reverse_displacement(first + k, xi, particles_.pos(j));
            const double w = kern.w(d.norm(), hi);
            disp[k] = d;
            wgt[k] = w;
            const double vj = volume[j];
            tau.xx += vj * d.x * d.x * w;
            tau.xy += vj * d.x * d.y * w;
            tau.xz += vj * d.x * d.z * w;
            tau.yy += vj * d.y * d.y * w;
            tau.yz += vj * d.y * d.z * w;
            tau.zz += vj * d.z * d.z * w;
        }
        const Sym3 cinv = tau.inverse();
        particles_.iad[i] = cinv;

        // IAD first-order velocity gradient estimate.
        double gxx = 0, gxy = 0, gxz = 0, gyx = 0, gyy = 0, gyz = 0, gzx = 0, gzy = 0,
               gzz = 0;
        for (std::size_t k = 0; k < count; ++k) {
            const std::uint32_t j = neighbors_.list[first + k];
            const Vec3 d = disp[k];
            const double w = wgt[k];
            const double vj = volume[j];
            const Vec3 grad = cinv.mul(d) * w; // IAD gradient direction
            const Vec3 dv = particles_.vel(j) - vi;
            gxx += vj * dv.x * grad.x;
            gxy += vj * dv.x * grad.y;
            gxz += vj * dv.x * grad.z;
            gyx += vj * dv.y * grad.x;
            gyy += vj * dv.y * grad.y;
            gyz += vj * dv.y * grad.z;
            gzx += vj * dv.z * grad.x;
            gzy += vj * dv.z * grad.y;
            gzz += vj * dv.z * grad.z;
        }
        particles_.div_v[i] = gxx + gyy + gzz;
        const Vec3 curl{gzy - gyz, gxz - gzx, gyx - gxy};
        particles_.curl_v[i] = curl.norm();
    }
    return make_work(kIadCost, 2.0 * static_cast<double>(neighbors_.total_pairs()),
                     static_cast<double>(n), kIadCost.launches);
}

gpusim::KernelWork SphSimulation::av_switches()
{
    const std::size_t n = particles_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const double divv = particles_.div_v[i];
        const double curlv = particles_.curl_v[i];
        const double c_over_h = particles_.c[i] / particles_.h[i];
        double target = config_.av_alpha_min;
        if (divv < 0.0) {
            // Balsara-weighted compression trigger.
            const double balsara =
                std::fabs(divv) / (std::fabs(divv) + curlv + 1e-4 * c_over_h + 1e-30);
            target = config_.av_alpha_min +
                     (config_.av_alpha_max - config_.av_alpha_min) * balsara;
        }
        double& alpha = particles_.alpha[i];
        if (target > alpha) {
            alpha = target; // fast rise on compression
        }
        else {
            // exponential decay on a few sound-crossing times
            const double decay = config_.av_decay * c_over_h * dt_;
            alpha += (config_.av_alpha_min - alpha) * std::min(1.0, decay);
        }
    }
    return make_work(kAvSwitchCost, 0.0, static_cast<double>(n), kAvSwitchCost.launches);
}

gpusim::KernelWork SphSimulation::momentum_energy()
{
    const KernelTable& kern = kernel_;
    const std::size_t n = particles_.size();
    std::vector<double> p_term(n); // p / (Omega rho^2)
    for (std::size_t j = 0; j < n; ++j) {
        const double rho_j = std::max(particles_.rho[j], 1e-30);
        p_term[j] = particles_.p[j] / (particles_.gradh[j] * rho_j * rho_j);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double hi = particles_.h[i];
        const Vec3 xi = particles_.pos(i);
        const Vec3 vi = particles_.vel(i);
        const double rho_i = std::max(particles_.rho[i], 1e-30);
        const double pi_term = p_term[i];

        Vec3 acc{0.0, 0.0, 0.0};
        double du_press = 0.0;
        double du_av = 0.0;
        double vsig_max = particles_.c[i];

        for (std::size_t p = neighbors_.offsets[i]; p < neighbors_.offsets[i + 1]; ++p) {
            const std::uint32_t j = neighbors_.list[p];
            const Vec3 d = neighbors_.displacement(p, xi, particles_.pos(j)); // x_i - x_j
            const double r = d.norm();
            if (r <= 0.0) continue;
            const double hj = particles_.h[j];
            const double rho_j = std::max(particles_.rho[j], 1e-30);
            const double pj_term = p_term[j];

            // Symmetrized kernel gradient keeps momentum exchange
            // antisymmetric (pairwise conservation).
            const double dw = 0.5 * (kern.dw_dr(r, hi) + kern.dw_dr(r, hj));
            const Vec3 grad = d * (dw / r);

            const Vec3 vij = vi - particles_.vel(j);
            const double vr = vij.dot(d);

            // Monaghan artificial viscosity with per-particle switches.
            double visc = 0.0;
            if (vr < 0.0) {
                const double h_mean = 0.5 * (hi + hj);
                const double mu = h_mean * vr / (r * r + 0.01 * h_mean * h_mean);
                const double c_mean = 0.5 * (particles_.c[i] + particles_.c[j]);
                const double rho_mean = 0.5 * (rho_i + rho_j);
                const double alpha = 0.5 * (particles_.alpha[i] + particles_.alpha[j]);
                const double beta = config_.av_beta_factor * alpha;
                visc = (-alpha * c_mean * mu + beta * mu * mu) / rho_mean;
                vsig_max = std::max(vsig_max, c_mean - 2.0 * mu);
            }

            const double mj = particles_.m[j];
            acc -= mj * (pi_term + pj_term + visc) * grad;
            du_press += mj * vij.dot(grad);
            du_av += mj * visc * vij.dot(grad);
        }

        particles_.ax[i] = acc.x;
        particles_.ay[i] = acc.y;
        particles_.az[i] = acc.z;
        particles_.du[i] = pi_term * du_press + 0.5 * du_av;
        particles_.vsig[i] = vsig_max;
    }
    return make_work(kMomentumEnergyCost,
                     static_cast<double>(neighbors_.total_pairs()), static_cast<double>(n),
                     kMomentumEnergyCost.launches);
}

gpusim::KernelWork SphSimulation::gravity()
{
    if (!config_.gravity) {
        gpusim::KernelWork w;
        w.launches = 0;
        return w;
    }
    gravity_stats_ = compute_gravity(particles_, octree_, config_.grav);
    const double interactions =
        static_cast<double>(gravity_stats_.particle_node_interactions +
                            gravity_stats_.particle_particle_interactions);
    return make_work(kGravityCost, interactions, static_cast<double>(particles_.size()),
                     kGravityCost.launches);
}

gpusim::KernelWork SphSimulation::energy_conservation()
{
    const std::size_t n = particles_.size();
    StepDiagnostics d;
    for (std::size_t i = 0; i < n; ++i) {
        const Vec3 v = particles_.vel(i);
        d.e_kinetic += 0.5 * particles_.m[i] * v.norm2();
        d.e_internal += particles_.m[i] * particles_.u[i];
        d.momentum += particles_.m[i] * v;
        d.mass += particles_.m[i];
        d.rho_max = std::max(d.rho_max, particles_.rho[i]);
        d.rho_mean += particles_.rho[i];
    }
    d.rho_mean /= static_cast<double>(n);
    d.e_gravitational = config_.gravity ? gravity_stats_.potential : 0.0;
    d.e_total = d.e_kinetic + d.e_internal + d.e_gravitational;
    diagnostics_ = d;
    return make_work(kEnergyConsCost, 0.0, static_cast<double>(n),
                     kEnergyConsCost.launches);
}

gpusim::KernelWork SphSimulation::timestep()
{
    const std::size_t n = particles_.size();
    double dt_min = config_.max_dt;
    for (std::size_t i = 0; i < n; ++i) {
        const double vsig = std::max(particles_.vsig[i], 1e-30);
        dt_min = std::min(dt_min, config_.cfl * particles_.h[i] / vsig);
        const double a = particles_.acc(i).norm();
        if (a > 1e-30) {
            dt_min = std::min(dt_min, 0.25 * std::sqrt(particles_.h[i] / a));
        }
    }
    // Limit growth between steps (SPH-EXA uses a similar clamp).
    dt_ = std::min(dt_min, dt_ * 1.2);
    return make_work(kTimestepCost, 0.0, static_cast<double>(n), kTimestepCost.launches);
}

gpusim::KernelWork SphSimulation::update_quantities()
{
    const std::size_t n = particles_.size();
    for (std::size_t i = 0; i < n; ++i) {
        // Symplectic (semi-implicit) Euler: kick then drift.
        particles_.vx[i] += particles_.ax[i] * dt_;
        particles_.vy[i] += particles_.ay[i] * dt_;
        particles_.vz[i] += particles_.az[i] * dt_;
        particles_.x[i] += particles_.vx[i] * dt_;
        particles_.y[i] += particles_.vy[i] * dt_;
        particles_.z[i] += particles_.vz[i] * dt_;
        particles_.u[i] =
            std::max(particles_.u[i] + particles_.du[i] * dt_, config_.u_floor);
        const Vec3 wrapped = box_.wrap(particles_.pos(i));
        particles_.x[i] = wrapped.x;
        particles_.y[i] = wrapped.y;
        particles_.z[i] = wrapped.z;
    }
    time_ += dt_;
    ++step_index_;
    return make_work(kUpdateQuantCost, 0.0, static_cast<double>(n),
                     kUpdateQuantCost.launches);
}

gpusim::KernelWork SphSimulation::update_smoothing_length()
{
    const std::size_t n = particles_.size();
    const double target = static_cast<double>(config_.ng_target);
    for (std::size_t i = 0; i < n; ++i) {
        const double nc = static_cast<double>(std::max(particles_.nc[i], 1));
        double factor = 0.5 * (1.0 + std::cbrt(target / nc));
        factor = std::clamp(factor, config_.min_h_factor, config_.max_h_factor);
        particles_.h[i] *= factor;
    }
    return make_work(kUpdateHCost, 0.0, static_cast<double>(n), kUpdateHCost.launches);
}

gpusim::KernelWork SphSimulation::run_function(SphFunction fn)
{
    switch (fn) {
        case SphFunction::kDomainDecompAndSync: return domain_decomp_and_sync();
        case SphFunction::kFindNeighbors: return find_neighbors();
        case SphFunction::kXMass: return xmass();
        case SphFunction::kNormalizationGradh: return normalization_gradh();
        case SphFunction::kEquationOfState: return equation_of_state();
        case SphFunction::kIadVelocityDivCurl: return iad_velocity_div_curl();
        case SphFunction::kAVswitches: return av_switches();
        case SphFunction::kMomentumEnergy: return momentum_energy();
        case SphFunction::kGravity: return gravity();
        case SphFunction::kEnergyConservation: return energy_conservation();
        case SphFunction::kTimestep: return timestep();
        case SphFunction::kUpdateQuantities: return update_quantities();
        case SphFunction::kUpdateSmoothingLength: return update_smoothing_length();
    }
    throw std::invalid_argument("run_function: unknown function");
}

void SphSimulation::step(const Observer& observer)
{
    for (SphFunction fn : function_order(config_.gravity)) {
        const gpusim::KernelWork work = run_function(fn);
        if (observer) observer(fn, work);
    }
}

double SphSimulation::mean_neighbor_count() const
{
    if (particles_.size() == 0) return 0.0;
    double sum = 0.0;
    for (int c : particles_.nc) sum += c;
    return sum / static_cast<double>(particles_.size());
}

} // namespace gsph::sph
