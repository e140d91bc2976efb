#include "sph/neighbors.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>
#include <set>
#include <string>

namespace gsph::sph {
namespace {

ParticleSet random_particles(std::size_t n, const Box& box, double h, std::uint64_t seed)
{
    ParticleSet ps;
    ps.resize(n);
    util::Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        ps.x[i] = rng.uniform(box.lo.x, box.hi.x);
        ps.y[i] = rng.uniform(box.lo.y, box.hi.y);
        ps.z[i] = rng.uniform(box.lo.z, box.hi.z);
        ps.h[i] = h;
        ps.m[i] = 1.0;
    }
    return ps;
}

/// O(N^2) reference search.
std::set<std::pair<std::uint32_t, std::uint32_t>> brute_force(const ParticleSet& ps,
                                                              const Box& box)
{
    std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::size_t i = 0; i < ps.size(); ++i) {
        for (std::size_t j = 0; j < ps.size(); ++j) {
            if (i == j) continue;
            const Vec3 d = box.min_image(ps.pos(i), ps.pos(j));
            if (d.norm2() < 4.0 * ps.h[i] * ps.h[i]) {
                pairs.insert({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
            }
        }
    }
    return pairs;
}

std::set<std::pair<std::uint32_t, std::uint32_t>> to_pairs(const NeighborList& nl,
                                                           std::size_t n)
{
    std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::size_t i = 0; i < n; ++i) {
        for (const auto* j = nl.begin(i); j != nl.end(i); ++j) {
            pairs.insert({static_cast<std::uint32_t>(i), *j});
        }
    }
    return pairs;
}

class NeighborPeriodicityTest : public ::testing::TestWithParam<bool> {};

TEST_P(NeighborPeriodicityTest, MatchesBruteForce)
{
    const Box box = Box::cube(0.0, 1.0, GetParam());
    ParticleSet ps = random_particles(300, box, 0.09, 77);
    NeighborList nl;
    find_all_neighbors(ps, box, nl);
    EXPECT_EQ(to_pairs(nl, ps.size()), brute_force(ps, box));
}

TEST_P(NeighborPeriodicityTest, CountsMatchOffsets)
{
    const Box box = Box::cube(0.0, 1.0, GetParam());
    ParticleSet ps = random_particles(200, box, 0.1, 78);
    NeighborList nl;
    find_all_neighbors(ps, box, nl);
    for (std::size_t i = 0; i < ps.size(); ++i) {
        EXPECT_EQ(static_cast<std::size_t>(ps.nc[i]), nl.count(i));
    }
    EXPECT_EQ(nl.offsets.back(), nl.list.size());
}

INSTANTIATE_TEST_SUITE_P(OpenAndPeriodic, NeighborPeriodicityTest, ::testing::Bool());

TEST(Neighbors, PeriodicWrapFindsAcrossBoundary)
{
    const Box box = Box::cube(0.0, 1.0, true);
    ParticleSet ps;
    ps.resize(2);
    ps.x = {0.01, 0.99};
    ps.y = {0.5, 0.5};
    ps.z = {0.5, 0.5};
    ps.h = {0.05, 0.05};
    ps.m = {1.0, 1.0};
    NeighborList nl;
    find_all_neighbors(ps, box, nl);
    EXPECT_EQ(nl.count(0), 1u);
    EXPECT_EQ(nl.count(1), 1u);
}

TEST(Neighbors, OpenBoxDoesNotWrap)
{
    const Box box = Box::cube(0.0, 1.0, false);
    ParticleSet ps;
    ps.resize(2);
    ps.x = {0.01, 0.99};
    ps.y = {0.5, 0.5};
    ps.z = {0.5, 0.5};
    ps.h = {0.05, 0.05};
    ps.m = {1.0, 1.0};
    NeighborList nl;
    find_all_neighbors(ps, box, nl);
    EXPECT_EQ(nl.count(0), 0u);
    EXPECT_EQ(nl.count(1), 0u);
}

TEST(Neighbors, NoSelfNeighbor)
{
    const Box box = Box::cube(0.0, 1.0, true);
    ParticleSet ps = random_particles(100, box, 0.2, 79);
    NeighborList nl;
    find_all_neighbors(ps, box, nl);
    for (std::size_t i = 0; i < ps.size(); ++i) {
        for (const auto* j = nl.begin(i); j != nl.end(i); ++j) {
            EXPECT_NE(static_cast<std::size_t>(*j), i);
        }
    }
}

TEST(Neighbors, NgmaxCapTruncatesAndRecords)
{
    const Box box = Box::cube(0.0, 1.0, true);
    ParticleSet ps = random_particles(500, box, 0.45, 80); // everyone sees everyone
    NeighborList nl;
    nl.ngmax = 20;
    find_all_neighbors(ps, box, nl);
    EXPECT_FALSE(nl.truncated.empty());
    for (std::size_t i = 0; i < ps.size(); ++i) {
        EXPECT_LE(nl.count(i), 20u);
    }
}

TEST(Neighbors, PreCapPairCountAtLeastStored)
{
    const Box box = Box::cube(0.0, 1.0, true);
    ParticleSet ps = random_particles(300, box, 0.3, 81);
    NeighborList nl;
    nl.ngmax = 30;
    const std::size_t pre_cap = find_all_neighbors(ps, box, nl);
    EXPECT_GE(pre_cap, nl.total_pairs());
}

TEST(Neighbors, NonPositiveHThrows)
{
    const Box box = Box::cube(0.0, 1.0, true);
    ParticleSet ps;
    ps.resize(1);
    ps.h[0] = 0.0;
    NeighborList nl;
    EXPECT_THROW(find_all_neighbors(ps, box, nl), std::invalid_argument);
}

TEST(Neighbors, VariableSmoothingLengthsAsymmetric)
{
    // Search radius is 2*h_i (gather formulation): a big-h particle can see
    // a small-h particle that does not see it back.
    const Box box = Box::cube(0.0, 1.0, false);
    ParticleSet ps;
    ps.resize(2);
    ps.x = {0.30, 0.50};
    ps.y = {0.5, 0.5};
    ps.z = {0.5, 0.5};
    ps.h = {0.15, 0.05}; // radii 0.3 and 0.1, separation 0.2
    ps.m = {1.0, 1.0};
    NeighborList nl;
    find_all_neighbors(ps, box, nl);
    EXPECT_EQ(nl.count(0), 1u);
    EXPECT_EQ(nl.count(1), 0u);
}

TEST(CellGrid, HandlesTinyPeriodicBoxWithoutDuplicates)
{
    // Grid degenerates to very few cells: the wrap-aware stencil must not
    // double count.
    const Box box = Box::cube(0.0, 1.0, true);
    ParticleSet ps = random_particles(20, box, 0.5, 82);
    NeighborList nl;
    find_all_neighbors(ps, box, nl);
    for (std::size_t i = 0; i < ps.size(); ++i) {
        std::set<std::uint32_t> unique(nl.begin(i), nl.end(i));
        EXPECT_EQ(unique.size(), nl.count(i)) << "duplicates for particle " << i;
    }
    EXPECT_EQ(to_pairs(nl, ps.size()), brute_force(ps, box));
}

/// Particle 0 sees the five others at distance 0.05; their radii reach nobody.
ParticleSet star_of_five()
{
    ParticleSet ps;
    ps.resize(6);
    ps.x = {0.50, 0.55, 0.45, 0.50, 0.50, 0.50};
    ps.y = {0.50, 0.50, 0.50, 0.55, 0.45, 0.50};
    ps.z = {0.50, 0.50, 0.50, 0.50, 0.50, 0.55};
    ps.h = {0.1, 0.01, 0.01, 0.01, 0.01, 0.01};
    ps.m.assign(6, 1.0);
    return ps;
}

TEST(Neighbors, TruncatedOmitsParticleWithExactlyNgmax)
{
    ParticleSet ps = star_of_five();
    NeighborList nl;
    nl.ngmax = 5;
    EXPECT_EQ(find_all_neighbors(ps, Box::cube(0.0, 1.0, false), nl), 5u);
    EXPECT_EQ(nl.count(0), 5u);
    EXPECT_TRUE(nl.truncated.empty());
}

TEST(Neighbors, TruncatedListsParticleWithNgmaxPlusOne)
{
    ParticleSet ps = star_of_five();
    NeighborList nl;
    nl.ngmax = 4;
    EXPECT_EQ(find_all_neighbors(ps, Box::cube(0.0, 1.0, false), nl), 5u);
    EXPECT_EQ(nl.count(0), 4u);
    EXPECT_EQ(nl.truncated, std::vector<int>{0});
}

TEST(CellGrid, RejectsPositionOutsidePeriodicAxis)
{
    Box box = Box::cube(0.0, 1.0, false);
    box.periodic_y = true;
    ParticleSet ps = random_particles(10, box, 0.1, 83);
    ps.x[3] = 1.5; // open axis: allowed
    NeighborList nl;
    EXPECT_NO_THROW(find_all_neighbors(ps, box, nl));
    ps.y[3] = 1.0 + 1e-9;
    EXPECT_THROW(find_all_neighbors(ps, box, nl), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The sorted cell list against the search it replaced.

/// The linked-cell search before the sorted cell list: one vector per cell
/// and Box::min_image on every candidate.  Same grid sizing, stencil bounds
/// and traversal order as CellGrid.
struct ReferenceSearch {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> list;
    std::vector<int> nc;
    std::size_t pre_cap_pairs = 0;
};

ReferenceSearch reference_search(const ParticleSet& ps, const Box& box, int ngmax)
{
    double hmax = 0.0;
    for (double hi : ps.h) hmax = std::max(hmax, hi);
    const double cutoff = 2.0 * hmax;
    auto dim = [&](double len) {
        int n = std::max(static_cast<int>(std::floor(len / cutoff)), 1);
        const int target = std::max(1, static_cast<int>(std::cbrt(static_cast<double>(
                                           std::max<std::size_t>(ps.size(), 1)))));
        return std::min(n, 4 * target);
    };
    const int nx = dim(box.lx()), ny = dim(box.ly()), nz = dim(box.lz());
    const double inv_wx = nx / box.lx(), inv_wy = ny / box.ly(), inv_wz = nz / box.lz();
    auto to_cell = [](double v, double lo, double inv_w, int n) {
        return std::clamp(static_cast<int>(std::floor((v - lo) * inv_w)), 0, n - 1);
    };
    auto cell_index = [&](int cx, int cy, int cz) {
        return static_cast<std::size_t>((cz * ny + cy) * nx + cx);
    };
    std::vector<std::vector<std::uint32_t>> cells(static_cast<std::size_t>(nx) * ny * nz);
    for (std::size_t i = 0; i < ps.size(); ++i) {
        cells[cell_index(to_cell(ps.x[i], box.lo.x, inv_wx, nx),
                         to_cell(ps.y[i], box.lo.y, inv_wy, ny),
                         to_cell(ps.z[i], box.lo.z, inv_wz, nz))]
            .push_back(static_cast<std::uint32_t>(i));
    }

    const int rx = std::max(1, static_cast<int>(std::ceil(cutoff * inv_wx)));
    const int ry = std::max(1, static_cast<int>(std::ceil(cutoff * inv_wy)));
    const int rz = std::max(1, static_cast<int>(std::ceil(cutoff * inv_wz)));
    const int rx_lo = box.periodic_x ? -std::min(rx, (nx - 1) / 2) : -rx;
    const int rx_hi = box.periodic_x ? std::min(rx, nx / 2) : rx;
    const int ry_lo = box.periodic_y ? -std::min(ry, (ny - 1) / 2) : -ry;
    const int ry_hi = box.periodic_y ? std::min(ry, ny / 2) : ry;
    const int rz_lo = box.periodic_z ? -std::min(rz, (nz - 1) / 2) : -rz;
    const int rz_hi = box.periodic_z ? std::min(rz, nz / 2) : rz;

    ReferenceSearch out;
    out.offsets.assign(ps.size() + 1, 0);
    out.nc.assign(ps.size(), 0);
    std::vector<std::uint32_t> kept;
    for (std::size_t i = 0; i < ps.size(); ++i) {
        kept.clear();
        const Vec3 xi = ps.pos(i);
        const double r2max = (2.0 * ps.h[i]) * (2.0 * ps.h[i]);
        const int cx = to_cell(xi.x, box.lo.x, inv_wx, nx);
        const int cy = to_cell(xi.y, box.lo.y, inv_wy, ny);
        const int cz = to_cell(xi.z, box.lo.z, inv_wz, nz);
        for (int dz = rz_lo; dz <= rz_hi; ++dz) {
            int zc = cz + dz;
            if (box.periodic_z) {
                zc = (zc % nz + nz) % nz;
            }
            else if (zc < 0 || zc >= nz) {
                continue;
            }
            for (int dy = ry_lo; dy <= ry_hi; ++dy) {
                int yc = cy + dy;
                if (box.periodic_y) {
                    yc = (yc % ny + ny) % ny;
                }
                else if (yc < 0 || yc >= ny) {
                    continue;
                }
                for (int dx = rx_lo; dx <= rx_hi; ++dx) {
                    int xc = cx + dx;
                    if (box.periodic_x) {
                        xc = (xc % nx + nx) % nx;
                    }
                    else if (xc < 0 || xc >= nx) {
                        continue;
                    }
                    for (std::uint32_t j : cells[cell_index(xc, yc, zc)]) {
                        if (static_cast<std::size_t>(j) == i) continue;
                        if (box.min_image(xi, ps.pos(j)).norm2() < r2max) {
                            ++out.pre_cap_pairs;
                            if (kept.size() < static_cast<std::size_t>(ngmax)) {
                                kept.push_back(j);
                            }
                        }
                    }
                }
            }
        }
        out.nc[i] = static_cast<int>(kept.size());
        out.offsets[i + 1] = out.offsets[i] + static_cast<std::uint32_t>(kept.size());
        out.list.insert(out.list.end(), kept.begin(), kept.end());
    }
    return out;
}

struct SearchCase {
    std::string name;
    Box box;
    std::size_t n;
    double hmax;
    bool variable_h;
    int ngmax;
    int cells_per_axis; ///< expected grid size of a cube; 0 = not a cube
};

void PrintTo(const SearchCase& c, std::ostream* os) { *os << c.name; }

Box mixed_box()
{
    Box b;
    b.lo = {0.0, -1.0, 2.0};
    b.hi = {1.5, 0.2, 2.9};
    b.periodic_x = true;
    b.periodic_z = true;
    return b;
}

std::vector<SearchCase> search_cases()
{
    std::vector<SearchCase> cases;
    const std::pair<int, double> grids[] = {{1, 0.3}, {2, 0.2}, {3, 0.15},
                                            {4, 0.12}, {6, 0.08}, {8, 0.06}};
    for (bool periodic : {false, true}) {
        for (const auto& [cells, hmax] : grids) {
            for (bool variable_h : {false, true}) {
                cases.push_back({std::string(periodic ? "periodic" : "open") + "_" +
                                     std::to_string(cells) + "cells" +
                                     (variable_h ? "_varh" : ""),
                                 Box::cube(0.0, 1.0, periodic), 400, hmax, variable_h,
                                 150, cells});
            }
        }
        cases.push_back({std::string(periodic ? "periodic" : "open") + "_capped",
                         Box::cube(0.0, 1.0, periodic), 400, 0.12, true, 12, 4});
    }
    cases.push_back({"mixed_periodicity", mixed_box(), 300, 0.2, true, 150, 0});
    cases.push_back({"mixed_periodicity_capped", mixed_box(), 300, 0.2, true, 20, 0});
    return cases;
}

/// Random particles with max h exactly `hmax`, and a few on the box faces
/// and corners, where the cell clamp and the periodic wrap meet.
ParticleSet case_particles(const SearchCase& c, std::uint64_t seed)
{
    ParticleSet ps = random_particles(c.n, c.box, c.hmax, seed);
    util::Rng rng(seed + 1);
    if (c.variable_h) {
        for (std::size_t i = 1; i < ps.size(); ++i) ps.h[i] = c.hmax * rng.uniform(0.4, 1.0);
    }
    ps.x[1] = c.box.lo.x;
    ps.x[2] = c.box.hi.x;
    ps.y[3] = c.box.lo.y;
    ps.y[4] = c.box.hi.y;
    ps.z[5] = c.box.hi.z;
    ps.x[6] = c.box.lo.x;
    ps.y[6] = c.box.lo.y;
    ps.z[6] = c.box.lo.z;
    ps.x[7] = c.box.hi.x;
    ps.y[7] = c.box.hi.y;
    ps.z[7] = c.box.hi.z;
    return ps;
}

class CellListDifferential : public ::testing::TestWithParam<SearchCase> {};

TEST_P(CellListDifferential, MatchesReferenceSearch)
{
    const SearchCase& c = GetParam();
    for (std::uint64_t seed : {11u, 12u, 13u}) {
        ParticleSet ps = case_particles(c, seed);
        if (c.cells_per_axis > 0) {
            const CellGrid grid(c.box, 2.0 * c.hmax, ps.size());
            ASSERT_EQ(grid.nx(), c.cells_per_axis);
            ASSERT_EQ(grid.ny(), c.cells_per_axis);
            ASSERT_EQ(grid.nz(), c.cells_per_axis);
        }
        const ReferenceSearch ref = reference_search(ps, c.box, c.ngmax);
        NeighborList nl;
        nl.ngmax = c.ngmax;
        const std::size_t pre_cap = find_all_neighbors(ps, c.box, nl);
        EXPECT_EQ(nl.offsets, ref.offsets) << "seed " << seed;
        EXPECT_EQ(nl.list, ref.list) << "seed " << seed;
        EXPECT_EQ(ps.nc, ref.nc) << "seed " << seed;
        EXPECT_EQ(pre_cap, ref.pre_cap_pairs) << "seed " << seed;
        if (c.ngmax < 150) {
            EXPECT_GT(pre_cap, nl.total_pairs()) << "cap not hit";
        }
    }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

::testing::AssertionResult bit_equal(const Vec3& a, const Vec3& b)
{
    if (bits(a.x) == bits(b.x) && bits(a.y) == bits(b.y) && bits(a.z) == bits(b.z)) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "(" << a.x << ", " << a.y << ", " << a.z
                                         << ") vs (" << b.x << ", " << b.y << ", " << b.z
                                         << ")";
}

TEST_P(CellListDifferential, StoredImageGivesMinImageBits)
{
    const SearchCase& c = GetParam();
    const bool periodic = c.box.periodic_x || c.box.periodic_y || c.box.periodic_z;
    for (std::uint64_t seed : {11u, 12u, 13u}) {
        ParticleSet ps = case_particles(c, seed);
        NeighborList nl;
        nl.ngmax = c.ngmax;
        find_all_neighbors(ps, c.box, nl);
        EXPECT_EQ(nl.image.size(), periodic ? nl.list.size() : 0u);
        for (std::size_t i = 0; i < ps.size(); ++i) {
            for (std::size_t p = nl.offsets[i]; p < nl.offsets[i + 1]; ++p) {
                const Vec3 xi = ps.pos(i);
                const Vec3 xj = ps.pos(nl.list[p]);
                ASSERT_TRUE(bit_equal(nl.displacement(p, xi, xj), c.box.min_image(xi, xj)))
                    << "pair " << i << "-" << nl.list[p] << " seed " << seed;
                ASSERT_TRUE(
                    bit_equal(nl.reverse_displacement(p, xi, xj), c.box.min_image(xj, xi)))
                    << "pair " << i << "-" << nl.list[p] << " seed " << seed;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Boxes, CellListDifferential, ::testing::ValuesIn(search_cases()),
                         [](const ::testing::TestParamInfo<SearchCase>& search) {
                             return search.param.name;
                         });

TEST(NeighborList, DisplacementKeepsMinImageSignedZeros)
{
    // On a periodic axis Box::min_image turns every zero difference into
    // +0.0, -0.0 - +0.0 included, where a plain a - b would give -0.0.
    const Box box = Box::cube(0.0, 1.0, true);
    for (double h : {0.1, 0.2}) { // 5 cells per axis, and 2 (image per pair)
        ParticleSet ps = random_particles(30, box, h, 84);
        ps.x[0] = ps.y[0] = ps.z[0] = -0.0;
        ps.x[1] = ps.y[1] = ps.z[1] = 0.0;
        ps.x[2] = ps.x[3]; // coincident
        ps.y[2] = ps.y[3];
        ps.z[2] = ps.z[3];
        NeighborList nl;
        find_all_neighbors(ps, box, nl);
        int checked = 0;
        for (std::size_t i = 0; i < 4; ++i) {
            const std::uint32_t partner = static_cast<std::uint32_t>(i ^ 1u);
            for (std::size_t p = nl.offsets[i]; p < nl.offsets[i + 1]; ++p) {
                if (nl.list[p] != partner) continue;
                ++checked;
                const Vec3 xi = ps.pos(i);
                const Vec3 xj = ps.pos(partner);
                EXPECT_TRUE(bit_equal(nl.displacement(p, xi, xj), Vec3{}));
                EXPECT_TRUE(bit_equal(nl.reverse_displacement(p, xi, xj), Vec3{}));
                EXPECT_TRUE(bit_equal(nl.displacement(p, xi, xj), box.min_image(xi, xj)));
            }
        }
        EXPECT_EQ(checked, 4) << "h " << h;
    }
}

} // namespace
} // namespace gsph::sph
