#include "sph/functions.hpp"
#include "sph/ic.hpp"
#include "sph_scalar_kernel.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

namespace gsph::sph {
namespace {

SphSimulation small_turbulence(int nside = 8)
{
    TurbulenceParams p;
    p.nside = nside;
    p.ng_target = 60;
    p.seed = 7;
    return make_subsonic_turbulence(p);
}

TEST(Functions, NamesMatchPaperFigures)
{
    EXPECT_STREQ(to_string(SphFunction::kMomentumEnergy), "MomentumEnergy");
    EXPECT_STREQ(to_string(SphFunction::kIadVelocityDivCurl), "IADVelocityDivCurl");
    EXPECT_STREQ(to_string(SphFunction::kXMass), "XMass");
    EXPECT_STREQ(to_string(SphFunction::kNormalizationGradh), "NormalizationGradh");
    EXPECT_STREQ(to_string(SphFunction::kDomainDecompAndSync), "DomainDecompAndSync");
}

TEST(Functions, OrderIncludesGravityOnlyWhenRequested)
{
    const auto with = function_order(true);
    const auto without = function_order(false);
    EXPECT_EQ(with.size(), without.size() + 1);
    EXPECT_TRUE(std::find(with.begin(), with.end(), SphFunction::kGravity) != with.end());
    EXPECT_TRUE(std::find(without.begin(), without.end(), SphFunction::kGravity) ==
                without.end());
    // DomainDecomp first, UpdateSmoothingLength last (SPH-EXA order).
    EXPECT_EQ(with.front(), SphFunction::kDomainDecompAndSync);
    EXPECT_EQ(with.back(), SphFunction::kUpdateSmoothingLength);
}

TEST(Functions, CollectivesIdentified)
{
    EXPECT_TRUE(is_collective(SphFunction::kTimestep));
    EXPECT_TRUE(is_collective(SphFunction::kEnergyConservation));
    EXPECT_FALSE(is_collective(SphFunction::kMomentumEnergy));
}

TEST(Functions, DensityOfUniformLatticeNearRho0)
{
    auto sim = small_turbulence(10);
    sim.domain_decomp_and_sync();
    sim.find_neighbors();
    sim.xmass();
    const auto& ps = sim.particles();
    double mean = 0.0;
    for (double r : ps.rho) mean += r;
    mean /= static_cast<double>(ps.size());
    EXPECT_NEAR(mean, 1.0, 0.05); // rho0 = 1
    for (double r : ps.rho) {
        EXPECT_GT(r, 0.7);
        EXPECT_LT(r, 1.3);
    }
}

TEST(Functions, NeighborCountNearTarget)
{
    auto sim = small_turbulence(10);
    sim.domain_decomp_and_sync();
    sim.find_neighbors();
    EXPECT_NEAR(sim.mean_neighbor_count(), 60.0, 20.0);
}

TEST(Functions, XMassBeforeNeighborsThrows)
{
    auto sim = small_turbulence(6);
    sim.domain_decomp_and_sync();
    EXPECT_THROW(sim.xmass(), std::logic_error);
}

TEST(Functions, GradhNearUnityForUniformField)
{
    auto sim = small_turbulence(10);
    sim.domain_decomp_and_sync();
    sim.find_neighbors();
    sim.xmass();
    sim.normalization_gradh();
    for (double omega : sim.particles().gradh) {
        EXPECT_GT(omega, 0.5);
        EXPECT_LT(omega, 1.5);
    }
}

TEST(Functions, EosIdealGas)
{
    auto sim = small_turbulence(8);
    sim.domain_decomp_and_sync();
    sim.find_neighbors();
    sim.xmass();
    sim.equation_of_state();
    const auto& ps = sim.particles();
    const double gamma = sim.config().gamma;
    for (std::size_t i = 0; i < ps.size(); ++i) {
        EXPECT_NEAR(ps.p[i], (gamma - 1.0) * ps.rho[i] * ps.u[i], 1e-12);
        EXPECT_NEAR(ps.c[i], std::sqrt(gamma * ps.p[i] / ps.rho[i]), 1e-12);
        EXPECT_GT(ps.c[i], 0.0);
    }
}

TEST(Functions, MomentumConservedByPairForces)
{
    auto sim = small_turbulence(10);
    sim.domain_decomp_and_sync();
    sim.find_neighbors();
    sim.xmass();
    sim.normalization_gradh();
    sim.equation_of_state();
    sim.iad_velocity_div_curl();
    sim.av_switches();
    sim.momentum_energy();
    const auto& ps = sim.particles();
    Vec3 net{0.0, 0.0, 0.0};
    double mag = 0.0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
        net += ps.m[i] * ps.acc(i);
        mag += ps.m[i] * ps.acc(i).norm();
    }
    // Symmetrized gradients conserve momentum up to ngmax truncation and
    // h-asymmetry effects.
    EXPECT_LT(net.norm() / (mag + 1e-30), 0.05);
}

TEST(Functions, AvSwitchRisesUnderCompression)
{
    auto sim = small_turbulence(8);
    sim.domain_decomp_and_sync();
    sim.find_neighbors();
    sim.xmass();
    sim.equation_of_state();
    // Impose uniform compression: v = -x (divergence -3).
    auto& ps = sim.particles();
    for (std::size_t i = 0; i < ps.size(); ++i) {
        ps.vx[i] = -(ps.x[i] - 0.5);
        ps.vy[i] = -(ps.y[i] - 0.5);
        ps.vz[i] = -(ps.z[i] - 0.5);
    }
    sim.iad_velocity_div_curl();
    // The field v = -(x - c) is discontinuous across the periodic wrap, so
    // only the bulk away from the boundary sees clean compression.
    double central_div = 0.0;
    int central = 0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
        const Vec3 d = ps.pos(i) - Vec3{0.5, 0.5, 0.5};
        if (d.norm() < 0.2) {
            central_div += ps.div_v[i];
            ++central;
        }
    }
    ASSERT_GT(central, 0);
    EXPECT_LT(central_div / central, -1.0); // strong compression detected

    sim.av_switches();
    double max_alpha = 0.0;
    for (double a : ps.alpha) max_alpha = std::max(max_alpha, a);
    EXPECT_GT(max_alpha, 0.3); // switches opened where compression is seen
}

TEST(Functions, IadDivergenceAccurateForLinearField)
{
    auto sim = small_turbulence(10);
    sim.domain_decomp_and_sync();
    sim.find_neighbors();
    sim.xmass();
    // v = (x, 2y, 3z) -> div v = 6, curl v = 0 (interior estimate; periodic
    // wrap makes the field discontinuous at the boundary, so test the bulk
    // statistics, not each particle).
    auto& ps = sim.particles();
    for (std::size_t i = 0; i < ps.size(); ++i) {
        ps.vx[i] = ps.x[i];
        ps.vy[i] = 2.0 * ps.y[i];
        ps.vz[i] = 3.0 * ps.z[i];
    }
    sim.iad_velocity_div_curl();
    std::vector<double> divs(ps.div_v.begin(), ps.div_v.end());
    std::nth_element(divs.begin(), divs.begin() + divs.size() / 2, divs.end());
    EXPECT_NEAR(divs[divs.size() / 2], 6.0, 0.9);
}

TEST(Functions, TimestepPositiveAndCflBounded)
{
    auto sim = small_turbulence(8);
    sim.domain_decomp_and_sync();
    sim.find_neighbors();
    sim.xmass();
    sim.normalization_gradh();
    sim.equation_of_state();
    sim.iad_velocity_div_curl();
    sim.av_switches();
    sim.momentum_energy();
    sim.timestep();
    EXPECT_GT(sim.dt(), 0.0);
    const auto& ps = sim.particles();
    for (std::size_t i = 0; i < ps.size(); ++i) {
        EXPECT_LE(sim.dt(), sim.config().cfl * ps.h[i] / ps.c[i] * 1.5);
    }
}

TEST(Functions, UpdateQuantitiesAdvancesTimeAndPositions)
{
    auto sim = small_turbulence(8);
    sim.domain_decomp_and_sync();
    sim.find_neighbors();
    sim.xmass();
    sim.normalization_gradh();
    sim.equation_of_state();
    sim.iad_velocity_div_curl();
    sim.av_switches();
    sim.momentum_energy();
    sim.timestep();
    const double x0 = sim.particles().x[0];
    const double vx0 = sim.particles().vx[0];
    (void)vx0;
    sim.update_quantities();
    EXPECT_GT(sim.time(), 0.0);
    EXPECT_EQ(sim.step_index(), 1);
    EXPECT_TRUE(sim.box().contains(sim.particles().pos(0)));
    (void)x0;
}

TEST(Functions, InternalEnergyFloorEnforced)
{
    auto sim = small_turbulence(6);
    auto& ps = sim.particles();
    for (std::size_t i = 0; i < ps.size(); ++i) ps.u[i] = -5.0; // corrupt
    sim.domain_decomp_and_sync();
    sim.find_neighbors();
    sim.xmass();
    sim.equation_of_state();
    for (double u : sim.particles().u) EXPECT_GE(u, sim.config().u_floor);
}

TEST(Functions, UpdateSmoothingLengthMovesTowardTarget)
{
    auto sim = small_turbulence(10);
    sim.domain_decomp_and_sync();
    sim.find_neighbors();
    auto& ps = sim.particles();
    // Force too many neighbours -> h must shrink.
    const double h_before = ps.h[0];
    for (std::size_t i = 0; i < ps.size(); ++i) ps.nc[i] = 500;
    sim.update_smoothing_length();
    EXPECT_LT(ps.h[0], h_before);
    // Too few -> grow.
    const double h_mid = ps.h[0];
    for (std::size_t i = 0; i < ps.size(); ++i) ps.nc[i] = 2;
    sim.update_smoothing_length();
    EXPECT_GT(ps.h[0], h_mid);
}

TEST(Functions, WorkCountsScaleWithProblemSize)
{
    auto run_me_flops = [](int nside) {
        auto sim = small_turbulence(nside);
        sim.domain_decomp_and_sync();
        sim.find_neighbors();
        sim.xmass();
        sim.normalization_gradh();
        sim.equation_of_state();
        sim.iad_velocity_div_curl();
        sim.av_switches();
        return sim.momentum_energy().flops;
    };
    const double small = run_me_flops(8);
    const double large = run_me_flops(12);
    // 12^3 / 8^3 = 3.375x particles with the same target neighbour count.
    EXPECT_NEAR(large / small, 3.375, 0.8);
}

TEST(Functions, StepRunsAllFunctionsInOrder)
{
    auto sim = small_turbulence(8);
    std::vector<SphFunction> seen;
    sim.step([&seen](SphFunction fn, const gpusim::KernelWork&) { seen.push_back(fn); });
    EXPECT_EQ(seen, function_order(false));
    EXPECT_EQ(sim.step_index(), 1);
}

TEST(Functions, WorkReportsPositiveCosts)
{
    auto sim = small_turbulence(8);
    sim.step([](SphFunction fn, const gpusim::KernelWork& w) {
        if (fn == SphFunction::kGravity) return; // disabled for turbulence
        EXPECT_GT(w.dram_bytes + w.flops, 0.0) << to_string(fn);
        EXPECT_GE(w.launches, 1) << to_string(fn);
        EXPECT_GT(w.threads, 0) << to_string(fn);
        EXPECT_GE(w.gather_fraction, 0.0);
        EXPECT_LE(w.gather_fraction, 1.0);
    });
}

TEST(Functions, HeavyKernelsCostMostFlops)
{
    auto sim = small_turbulence(10);
    std::array<double, kSphFunctionCount> flops{};
    sim.step([&flops](SphFunction fn, const gpusim::KernelWork& w) {
        flops[static_cast<std::size_t>(fn)] = w.flops;
    });
    const double me = flops[static_cast<std::size_t>(SphFunction::kMomentumEnergy)];
    for (int f = 0; f < kSphFunctionCount; ++f) {
        if (f == static_cast<int>(SphFunction::kMomentumEnergy)) continue;
        EXPECT_GE(me, flops[static_cast<std::size_t>(f)])
            << to_string(static_cast<SphFunction>(f));
    }
}

TEST(Functions, MultipleStepsRemainStable)
{
    auto sim = small_turbulence(8);
    for (int s = 0; s < 5; ++s) sim.step();
    const auto& ps = sim.particles();
    for (std::size_t i = 0; i < ps.size(); ++i) {
        EXPECT_TRUE(std::isfinite(ps.rho[i]));
        EXPECT_TRUE(std::isfinite(ps.u[i]));
        EXPECT_TRUE(std::isfinite(ps.vx[i]));
        EXPECT_GT(ps.rho[i], 0.0);
        EXPECT_GT(ps.h[i], 0.0);
    }
    EXPECT_GT(sim.diagnostics().e_total, 0.0);
}

TEST(Functions, TurbulenceEnergyApproximatelyConserved)
{
    auto sim = small_turbulence(10);
    sim.step();
    const double e0 = sim.diagnostics().e_total;
    for (int s = 0; s < 8; ++s) sim.step();
    const double e1 = sim.diagnostics().e_total;
    // Inviscid-but-AV SPH with symplectic Euler: expect small drift only.
    EXPECT_NEAR(e1 / e0, 1.0, 0.02);
}

TEST(Functions, DiagnosticsMassMatchesSetup)
{
    auto sim = small_turbulence(8);
    sim.step();
    // rho0 * V = 1 * 1
    EXPECT_NEAR(sim.diagnostics().mass, 1.0, 1e-9);
}

TEST(Functions, EmptyParticleSetThrows)
{
    ParticleSet ps;
    EXPECT_THROW(SphSimulation(ps, Box::cube(0.0, 1.0, true), SphConfig{}),
                 std::invalid_argument);
}

TEST(Functions, InvalidSmoothingLengthThrows)
{
    ParticleSet ps;
    ps.resize(2);
    ps.m = {1.0, 1.0};
    ps.h = {0.1, 0.0};
    EXPECT_THROW(SphSimulation(ps, Box::cube(0.0, 1.0, true), SphConfig{}),
                 std::invalid_argument);
}

// --- Pair loops against their one-pair-at-a-time references --------------

// The four pair loops as they were written one pair at a time, each pass
// over a neighbour list computing its own kernel terms.

void reference_xmass(ParticleSet& ps, const NeighborList& nl,
                     const test::ScalarKernel& kern)
{
    for (std::size_t i = 0; i < ps.size(); ++i) {
        const double hi = ps.h[i];
        double xm = ps.m[i] * kern.w(0.0, hi);
        const Vec3 xi = ps.pos(i);
        for (std::size_t p = nl.offsets[i]; p < nl.offsets[i + 1]; ++p) {
            const std::uint32_t j = nl.list[p];
            const double r = nl.displacement(p, xi, ps.pos(j)).norm();
            xm += ps.m[j] * kern.w(r, hi);
        }
        ps.xmass[i] = xm;
        ps.rho[i] = xm;
    }
}

void reference_gradh(ParticleSet& ps, const NeighborList& nl,
                     const test::ScalarKernel& kern)
{
    for (std::size_t i = 0; i < ps.size(); ++i) {
        const double hi = ps.h[i];
        double dsum = ps.m[i] * kern.dw_dh(0.0, hi);
        const Vec3 xi = ps.pos(i);
        for (std::size_t p = nl.offsets[i]; p < nl.offsets[i + 1]; ++p) {
            const std::uint32_t j = nl.list[p];
            const double r = nl.displacement(p, xi, ps.pos(j)).norm();
            dsum += ps.m[j] * kern.dw_dh(r, hi);
        }
        const double rho = std::max(ps.rho[i], 1e-30);
        const double omega = 1.0 + hi / (3.0 * rho) * dsum;
        ps.gradh[i] = std::clamp(omega, 0.2, 3.0);
    }
}

void reference_iad(ParticleSet& ps, const NeighborList& nl, const test::ScalarKernel& kern)
{
    const std::size_t n = ps.size();
    std::vector<double> volume(n);
    for (std::size_t j = 0; j < n; ++j) volume[j] = ps.m[j] / std::max(ps.rho[j], 1e-30);
    for (std::size_t i = 0; i < n; ++i) {
        const double hi = ps.h[i];
        const Vec3 xi = ps.pos(i);
        const Vec3 vi = ps.vel(i);
        Sym3 tau;
        for (std::size_t p = nl.offsets[i]; p < nl.offsets[i + 1]; ++p) {
            const std::uint32_t j = nl.list[p];
            const Vec3 d = nl.reverse_displacement(p, xi, ps.pos(j));
            const double w = kern.w(d.norm(), hi);
            const double vj = volume[j];
            tau.xx += vj * d.x * d.x * w;
            tau.xy += vj * d.x * d.y * w;
            tau.xz += vj * d.x * d.z * w;
            tau.yy += vj * d.y * d.y * w;
            tau.yz += vj * d.y * d.z * w;
            tau.zz += vj * d.z * d.z * w;
        }
        const Sym3 cinv = tau.inverse();
        ps.iad[i] = cinv;
        double gxx = 0, gxy = 0, gxz = 0, gyx = 0, gyy = 0, gyz = 0, gzx = 0, gzy = 0,
               gzz = 0;
        for (std::size_t p = nl.offsets[i]; p < nl.offsets[i + 1]; ++p) {
            const std::uint32_t j = nl.list[p];
            const Vec3 d = nl.reverse_displacement(p, xi, ps.pos(j));
            const double w = kern.w(d.norm(), hi);
            const double vj = volume[j];
            const Vec3 grad = cinv.mul(d) * w;
            const Vec3 dv = ps.vel(j) - vi;
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
        ps.div_v[i] = gxx + gyy + gzz;
        const Vec3 curl{gzy - gyz, gxz - gzx, gyx - gxy};
        ps.curl_v[i] = curl.norm();
    }
}

void reference_momentum_energy(ParticleSet& ps, const NeighborList& nl,
                               const test::ScalarKernel& kern, double av_beta_factor)
{
    const std::size_t n = ps.size();
    std::vector<double> p_term(n);
    for (std::size_t j = 0; j < n; ++j) {
        const double rho_j = std::max(ps.rho[j], 1e-30);
        p_term[j] = ps.p[j] / (ps.gradh[j] * rho_j * rho_j);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double hi = ps.h[i];
        const Vec3 xi = ps.pos(i);
        const Vec3 vi = ps.vel(i);
        const double rho_i = std::max(ps.rho[i], 1e-30);
        const double pi_term = p_term[i];
        Vec3 acc{0.0, 0.0, 0.0};
        double du_press = 0.0;
        double du_av = 0.0;
        double vsig_max = ps.c[i];
        for (std::size_t p = nl.offsets[i]; p < nl.offsets[i + 1]; ++p) {
            const std::uint32_t j = nl.list[p];
            const Vec3 d = nl.displacement(p, xi, ps.pos(j));
            const double r = d.norm();
            if (r <= 0.0) continue;
            const double hj = ps.h[j];
            const double rho_j = std::max(ps.rho[j], 1e-30);
            const double pj_term = p_term[j];
            const double dw = 0.5 * (kern.dw_dr(r, hi) + kern.dw_dr(r, hj));
            const Vec3 grad = d * (dw / r);
            const Vec3 vij = vi - ps.vel(j);
            const double vr = vij.dot(d);
            double visc = 0.0;
            if (vr < 0.0) {
                const double h_mean = 0.5 * (hi + hj);
                const double mu = h_mean * vr / (r * r + 0.01 * h_mean * h_mean);
                const double c_mean = 0.5 * (ps.c[i] + ps.c[j]);
                const double rho_mean = 0.5 * (rho_i + rho_j);
                const double alpha = 0.5 * (ps.alpha[i] + ps.alpha[j]);
                const double beta = av_beta_factor * alpha;
                visc = (-alpha * c_mean * mu + beta * mu * mu) / rho_mean;
                vsig_max = std::max(vsig_max, c_mean - 2.0 * mu);
            }
            const double mj = ps.m[j];
            acc -= mj * (pi_term + pj_term + visc) * grad;
            du_press += mj * vij.dot(grad);
            du_av += mj * visc * vij.dot(grad);
        }
        ps.ax[i] = acc.x;
        ps.ay[i] = acc.y;
        ps.az[i] = acc.z;
        ps.du[i] = pi_term * du_press + 0.5 * du_av;
        ps.vsig[i] = vsig_max;
    }
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b)
{
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Every particle field of `got` has the bits of `want`.
void expect_same_fields(const ParticleSet& got, const ParticleSet& want,
                        const std::string& where)
{
    const std::pair<const char*, std::vector<double> ParticleSet::*> fields[] = {
        {"x", &ParticleSet::x},         {"y", &ParticleSet::y},
        {"z", &ParticleSet::z},         {"vx", &ParticleSet::vx},
        {"vy", &ParticleSet::vy},       {"vz", &ParticleSet::vz},
        {"ax", &ParticleSet::ax},       {"ay", &ParticleSet::ay},
        {"az", &ParticleSet::az},       {"h", &ParticleSet::h},
        {"m", &ParticleSet::m},         {"rho", &ParticleSet::rho},
        {"u", &ParticleSet::u},         {"du", &ParticleSet::du},
        {"p", &ParticleSet::p},         {"c", &ParticleSet::c},
        {"xmass", &ParticleSet::xmass}, {"gradh", &ParticleSet::gradh},
        {"div_v", &ParticleSet::div_v}, {"curl_v", &ParticleSet::curl_v},
        {"alpha", &ParticleSet::alpha}, {"vsig", &ParticleSet::vsig},
    };
    for (const auto& [name, field] : fields) {
        EXPECT_TRUE(same_bits(got.*field, want.*field)) << where << ": " << name;
    }
    EXPECT_TRUE(same_bits(got.iad, want.iad)) << where << ": iad";
    EXPECT_TRUE(same_bits(got.key, want.key)) << where << ": key";
    EXPECT_TRUE(same_bits(got.nc, want.nc)) << where << ": nc";
}

/// Runs `steps` steps of `sim` and checks each pair loop against its
/// reference, run on a copy of the particles taken just before it.  xmass()
/// also forms NormalizationGradh's Omega, so its reference is both loops.
void expect_pair_loops_match_references(SphSimulation& sim, int steps)
{
    const test::ScalarKernel kern(sim.config().kernel_type);
    int checked = 0;
    for (int s = 0; s < steps; ++s) {
        for (const SphFunction fn : function_order(sim.config().gravity)) {
            ParticleSet want = sim.particles();
            const NeighborList& nl = sim.neighbors();
            switch (fn) {
                case SphFunction::kXMass:
                    reference_xmass(want, nl, kern);
                    reference_gradh(want, nl, kern);
                    break;
                case SphFunction::kNormalizationGradh: reference_gradh(want, nl, kern); break;
                case SphFunction::kIadVelocityDivCurl: reference_iad(want, nl, kern); break;
                case SphFunction::kMomentumEnergy:
                    reference_momentum_energy(want, nl, kern, sim.config().av_beta_factor);
                    break;
                default: sim.run_function(fn); continue;
            }
            sim.run_function(fn);
            expect_same_fields(sim.particles(), want,
                               std::string(to_string(fn)) + " step " + std::to_string(s));
            ++checked;
        }
    }
    EXPECT_EQ(checked, 4 * steps);
}

SphSimulation recorder_turbulence(int nside, SphConfig config = {})
{
    TurbulenceParams p;
    p.nside = nside; // the recorder's default neighbour target, 100
    return make_subsonic_turbulence(p, config);
}

/// Cells per axis of the grid find_all_neighbors builds for `sim` now.
int cells_per_axis(const SphSimulation& sim)
{
    const ParticleSet& ps = sim.particles();
    const double hmax = *std::max_element(ps.h.begin(), ps.h.end());
    return CellGrid(sim.box(), 2.0 * hmax, ps.size()).nx();
}

TEST(PairLoops, MatchReferencesOnTurbulence8PerPairImages)
{
    // 2 cells per axis: every stored pair's image is found per pair.
    auto sim = recorder_turbulence(8);
    ASSERT_EQ(cells_per_axis(sim), 2);
    expect_pair_loops_match_references(sim, 3);
}

TEST(PairLoops, MatchReferencesOnTurbulence12StencilShift)
{
    // 4 cells per axis: images come from the stencil cell's shift.
    auto sim = recorder_turbulence(12);
    ASSERT_EQ(cells_per_axis(sim), 4);
    expect_pair_loops_match_references(sim, 2);
}

TEST(PairLoops, MatchReferencesOnEvrard10OpenBox)
{
    EvrardParams p;
    p.n_particles = 1000;
    auto sim = make_evrard_collapse(p);
    expect_pair_loops_match_references(sim, 2);
}

TEST(PairLoops, MatchReferencesOnListsTruncatedAtNgmax)
{
    SphConfig config;
    config.ngmax = 40; // well under the ~100 neighbours each particle has
    auto sim = recorder_turbulence(10, config);
    sim.domain_decomp_and_sync();
    sim.find_neighbors();
    ASSERT_EQ(sim.neighbors().truncated.size(), sim.particles().size());
    expect_pair_loops_match_references(sim, 2);
}

/// An open box with a cluster of particles of varied h, two of them at the
/// same position, and one particle out of everyone's reach.
SphSimulation edge_case_simulation()
{
    constexpr std::size_t kCluster = 300;
    util::Rng rng(0x5eed);
    ParticleSet ps;
    ps.resize(kCluster + 1);
    for (std::size_t i = 0; i < kCluster; ++i) {
        ps.x[i] = rng.uniform(0.0, 0.5);
        ps.y[i] = rng.uniform(0.0, 0.5);
        ps.z[i] = rng.uniform(0.0, 0.5);
        ps.vx[i] = rng.uniform(-0.1, 0.1);
        ps.vy[i] = rng.uniform(-0.1, 0.1);
        ps.vz[i] = rng.uniform(-0.1, 0.1);
        ps.h[i] = rng.uniform(0.03, 0.12);
    }
    ps.x[1] = ps.x[0];
    ps.y[1] = ps.y[0];
    ps.z[1] = ps.z[0];
    ps.x[kCluster] = ps.y[kCluster] = ps.z[kCluster] = 0.95;
    ps.h[kCluster] = 0.02;
    for (std::size_t i = 0; i <= kCluster; ++i) {
        ps.m[i] = 1.0 / static_cast<double>(kCluster + 1);
        ps.u[i] = 1.0;
    }
    return SphSimulation(ps, Box::cube(0.0, 1.0, false), SphConfig{});
}

TEST(PairLoops, MatchReferencesOnCoincidentFarAndIsolatedParticles)
{
    auto sim = edge_case_simulation();
    {
        // The neighbour list holds each edge case.
        auto probe = edge_case_simulation();
        probe.domain_decomp_and_sync();
        probe.find_neighbors();
        const ParticleSet& ps = probe.particles();
        const NeighborList& nl = probe.neighbors();
        bool coincident = false;
        bool outside_hj = false;
        bool lonely = false;
        for (std::size_t i = 0; i < ps.size(); ++i) {
            lonely = lonely || nl.count(i) == 0;
            for (std::size_t p = nl.offsets[i]; p < nl.offsets[i + 1]; ++p) {
                const std::uint32_t j = nl.list[p];
                const double r = nl.displacement(p, ps.pos(i), ps.pos(j)).norm();
                coincident = coincident || r == 0.0;
                outside_hj = outside_hj || r >= 2.0 * ps.h[j];
            }
        }
        EXPECT_TRUE(coincident);
        EXPECT_TRUE(outside_hj);
        EXPECT_TRUE(lonely);
    }
    expect_pair_loops_match_references(sim, 2);
}

} // namespace
} // namespace gsph::sph
