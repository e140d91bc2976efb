#include "sph/neighbors.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gsph::sph {

namespace {

int image_code(int kx, int ky, int kz)
{
    return (kx + 1) + 3 * (ky + 1) + 9 * (kz + 1);
}

/// The amount subtracted from a coordinate difference for image k on one
/// axis.  Box::min_image subtracts L * round(d / L); for k = 0 that is a
/// zero whose sign follows d, and subtracting -0.0 gives the same result
/// for every d, including d = -0.0.
double image_shift(bool periodic, double len, int k)
{
    if (!periodic) return 0.0;
    return k == 0 ? -0.0 : len * k;
}

} // namespace

CellGrid::CellGrid(const Box& box, double cutoff, std::size_t n_particles)
    : box_(box), cutoff_(cutoff)
{
    if (cutoff <= 0.0) throw std::invalid_argument("CellGrid: non-positive cutoff");
    // Aim for O(1) particles per cell but never let cells be smaller than
    // the cutoff (27-stencil correctness).
    auto dim = [&](double len) {
        int n = static_cast<int>(std::floor(len / cutoff));
        n = std::max(n, 1);
        // Avoid pathological cell counts for tiny particle sets.
        const int target = std::max(1, static_cast<int>(std::cbrt(static_cast<double>(
                                           std::max<std::size_t>(n_particles, 1)))));
        return std::min(n, 4 * target);
    };
    nx_ = dim(box_.lx());
    ny_ = dim(box_.ly());
    nz_ = dim(box_.lz());
    inv_wx_ = static_cast<double>(nx_) / box_.lx();
    inv_wy_ = static_cast<double>(ny_) / box_.ly();
    inv_wz_ = static_cast<double>(nz_) / box_.lz();
    cell_start_.assign(static_cast<std::size_t>(nx_) * ny_ * nz_ + 1, 0);
}

int CellGrid::cell_index_1d(int cx, int cy, int cz) const
{
    return (cz * ny_ + cy) * nx_ + cx;
}

int CellGrid::coord_to_cell(double v, double lo, double inv_w, int n) const
{
    int c = static_cast<int>(std::floor((v - lo) * inv_w));
    return std::clamp(c, 0, n - 1);
}

void CellGrid::assign(const ParticleSet& particles)
{
    const std::size_t n = particles.size();
    // The cell of a particle on a periodic axis fixes the image it is found
    // through, which is the minimum image only for coordinates in the box.
    auto outside = [](bool periodic, double v, double lo, double hi) {
        return periodic && !(v >= lo && v <= hi);
    };
    std::fill(cell_start_.begin(), cell_start_.end(), 0u);
    cell_of_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (outside(box_.periodic_x, particles.x[i], box_.lo.x, box_.hi.x) ||
            outside(box_.periodic_y, particles.y[i], box_.lo.y, box_.hi.y) ||
            outside(box_.periodic_z, particles.z[i], box_.lo.z, box_.hi.z)) {
            throw std::invalid_argument(
                "CellGrid: particle outside the box on a periodic axis");
        }
        const int cx = coord_to_cell(particles.x[i], box_.lo.x, inv_wx_, nx_);
        const int cy = coord_to_cell(particles.y[i], box_.lo.y, inv_wy_, ny_);
        const int cz = coord_to_cell(particles.z[i], box_.lo.z, inv_wz_, nz_);
        const auto c = static_cast<std::uint32_t>(cell_index_1d(cx, cy, cz));
        cell_of_[i] = c;
        ++cell_start_[c + 1];
    }
    for (std::size_t c = 0; c + 1 < cell_start_.size(); ++c) {
        cell_start_[c + 1] += cell_start_[c];
    }

    // Stable counting sort: particles keep ascending index order in a cell.
    std::vector<std::uint32_t> next(cell_start_.begin(), cell_start_.end() - 1);
    index_.resize(n);
    sx_.resize(n);
    sy_.resize(n);
    sz_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t q = next[cell_of_[i]]++;
        index_[q] = static_cast<std::uint32_t>(i);
        sx_[q] = particles.x[i];
        sy_[q] = particles.y[i];
        sz_[q] = particles.z[i];
    }
}

std::size_t CellGrid::find_neighbors(ParticleSet& particles, NeighborList& out) const
{
    const std::size_t n = particles.size();
    if (n != cell_of_.size()) {
        throw std::logic_error("CellGrid::find_neighbors: particle set was not assigned");
    }
    out.offsets.assign(n + 1, 0);
    out.list.clear();
    out.image.clear();
    out.truncated.clear();

    // How many cells the cutoff spans (>=1); cells are >= cutoff wide except
    // when the clamp in the constructor kicked in for dense grids.
    const int rx = std::max(1, static_cast<int>(std::ceil(cutoff_ * inv_wx_)));
    const int ry = std::max(1, static_cast<int>(std::ceil(cutoff_ * inv_wy_)));
    const int rz = std::max(1, static_cast<int>(std::ceil(cutoff_ * inv_wz_)));

    // On periodic axes with few cells a naive [-r, r] stencil would visit
    // the same wrapped cell twice; restrict the range so every cell is
    // visited exactly once.
    const int rx_lo = box_.periodic_x ? -std::min(rx, (nx_ - 1) / 2) : -rx;
    const int rx_hi = box_.periodic_x ? std::min(rx, nx_ / 2) : rx;
    const int ry_lo = box_.periodic_y ? -std::min(ry, (ny_ - 1) / 2) : -ry;
    const int ry_hi = box_.periodic_y ? std::min(ry, ny_ / 2) : ry;
    const int rz_lo = box_.periodic_z ? -std::min(rz, (nz_ - 1) / 2) : -rz;
    const int rz_hi = box_.periodic_z ? std::min(rz, nz_ / 2) : rz;

    // A stencil cell reached through the wrap holds j's image one box length
    // away.  With 3 or more cells on an axis the cutoff is at most a third of
    // the box, so that is the minimum image of every pair within range.
    // With fewer, one cell can hold both images of j, so the image is found
    // per pair with Box::min_image's rounding.
    const double lx = box_.lx();
    const double ly = box_.ly();
    const double lz = box_.lz();
    const bool pair_x = box_.periodic_x && nx_ < 3;
    const bool pair_y = box_.periodic_y && ny_ < 3;
    const bool pair_z = box_.periodic_z && nz_ < 3;
    const bool per_pair = pair_x || pair_y || pair_z;
    const bool periodic = box_.periodic_x || box_.periodic_y || box_.periodic_z;
    for (int code = 0; code < NeighborList::kImageCodes; ++code) {
        out.shift[static_cast<std::size_t>(code)] =
            Vec3{image_shift(box_.periodic_x, lx, code % 3 - 1),
                 image_shift(box_.periodic_y, ly, code / 3 % 3 - 1),
                 image_shift(box_.periodic_z, lz, code / 9 - 1)};
    }

    // One coordinate of a candidate's displacement: the stencil cell's shift,
    // or, on a per-pair axis, Box::min_image's rounding, recording the image.
    auto fold = [](bool pair, double& v, double len, double cell_shift, int& k) {
        if (!pair) {
            v -= cell_shift;
            return;
        }
        const double m = std::round(v / len);
        v -= len * m;
        k = static_cast<int>(m);
    };

    const auto ngmax = static_cast<std::size_t>(out.ngmax);
    // Reserve the fixed budget up front, as SPH-EXA allocates n * ngmax, so
    // the arrays never grow by copying.  Pages no stored pair reaches are
    // never touched, so resident memory follows the pairs actually stored.
    const std::size_t budget = n == 0 ? 0 : n * std::min(ngmax, n - 1);
    out.list.reserve(budget);
    if (periodic) out.image.reserve(budget);
    std::size_t total_pairs = 0;

    for (std::size_t i = 0; i < n; ++i) {
        const Vec3 xi = particles.pos(i);
        const double radius = 2.0 * particles.h[i];
        const double r2max = radius * radius;
        const auto ci = static_cast<int>(cell_of_[i]);
        const int cx = ci % nx_;
        const int cy = ci / nx_ % ny_;
        const int cz = ci / nx_ / ny_;

        std::size_t found = 0;
        auto keep = [&](std::uint32_t j, int code) {
            if (++found > ngmax) return;
            out.list.push_back(j);
            if (periodic) out.image.push_back(static_cast<std::uint8_t>(code));
        };

        for (int dz = rz_lo; dz <= rz_hi; ++dz) {
            int zc = cz + dz;
            int kz = 0;
            if (zc < 0 || zc >= nz_) {
                if (!box_.periodic_z) continue;
                kz = zc < 0 ? -1 : 1;
                zc -= kz * nz_;
            }
            for (int dy = ry_lo; dy <= ry_hi; ++dy) {
                int yc = cy + dy;
                int ky = 0;
                if (yc < 0 || yc >= ny_) {
                    if (!box_.periodic_y) continue;
                    ky = yc < 0 ? -1 : 1;
                    yc -= ky * ny_;
                }
                for (int dx = rx_lo; dx <= rx_hi; ++dx) {
                    int xc = cx + dx;
                    int kx = 0;
                    if (xc < 0 || xc >= nx_) {
                        if (!box_.periodic_x) continue;
                        kx = xc < 0 ? -1 : 1;
                        xc -= kx * nx_;
                    }
                    const int code = image_code(kx, ky, kz);
                    const Vec3 s = out.shift[static_cast<std::size_t>(code)];
                    const auto c = static_cast<std::size_t>(cell_index_1d(xc, yc, zc));
                    const std::uint32_t q_end = cell_start_[c + 1];

                    if (!per_pair) {
                        for (std::uint32_t q = cell_start_[c]; q < q_end; ++q) {
                            const Vec3 d = Vec3{xi.x - sx_[q], xi.y - sy_[q], xi.z - sz_[q]} - s;
                            if (!(d.norm2() < r2max)) continue;
                            const std::uint32_t j = index_[q];
                            if (j != i) keep(j, code);
                        }
                        continue;
                    }
                    for (std::uint32_t q = cell_start_[c]; q < q_end; ++q) {
                        Vec3 d{xi.x - sx_[q], xi.y - sy_[q], xi.z - sz_[q]};
                        int k[3] = {kx, ky, kz};
                        fold(pair_x, d.x, lx, s.x, k[0]);
                        fold(pair_y, d.y, ly, s.y, k[1]);
                        fold(pair_z, d.z, lz, s.z, k[2]);
                        if (!(d.norm2() < r2max)) continue;
                        const std::uint32_t j = index_[q];
                        if (j != i) keep(j, image_code(k[0], k[1], k[2]));
                    }
                }
            }
        }

        if (found > ngmax) out.truncated.push_back(static_cast<int>(i));
        particles.nc[i] = static_cast<int>(std::min(found, ngmax));
        out.offsets[i + 1] = static_cast<std::uint32_t>(out.list.size());
        total_pairs += found;
    }
    return total_pairs;
}

std::size_t find_all_neighbors(ParticleSet& particles, const Box& box, NeighborList& out)
{
    double hmax = 0.0;
    for (double hi : particles.h) hmax = std::max(hmax, hi);
    if (hmax <= 0.0) throw std::invalid_argument("find_all_neighbors: non-positive h");
    CellGrid grid(box, 2.0 * hmax, particles.size());
    grid.assign(particles);
    return grid.find_neighbors(particles, out);
}

} // namespace gsph::sph
