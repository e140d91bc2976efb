#pragma once
/// \file neighbors.hpp
/// \brief Sorted cell-list neighbour search with periodic boundary support.
///
/// Finds, for every particle i, all j != i with |x_i - x_j| < 2 * h_i
/// (kernel support radius).  Results are stored CSR-style with a per-
/// particle cap `ngmax`, matching SPH-EXA's fixed neighbour budget, and
/// with the periodic image each stored pair was found through, so pair
/// loops get the minimum-image displacement without re-deriving it.

#include "sph/particles.hpp"
#include "sph/types.hpp"

#include <array>
#include <cstdint>
#include <vector>

namespace gsph::sph {

struct NeighborList {
    /// Number of periodic image codes: (kx+1) + 3 (ky+1) + 9 (kz+1) for
    /// k in {-1, 0, 1} per axis.  Code 26 - c is the image of the reversed pair.
    static constexpr int kImageCodes = 27;

    int ngmax = 150;                    ///< per-particle neighbour cap
    std::vector<std::uint32_t> offsets; ///< size N+1
    std::vector<std::uint32_t> list;    ///< concatenated neighbour indices
    /// Per stored pair (parallel to `list`): the image code, where k is
    /// round((x_i - x_j) / L) per axis.  Empty on a box with no periodic axis.
    std::vector<std::uint8_t> image;
    /// Image code -> the amount subtracted from x_i - x_j: k L on a periodic
    /// axis (-0.0 for k = 0, which reproduces Box::min_image's signed zeros),
    /// +0.0 on an open axis.
    std::array<Vec3, kImageCodes> shift{};
    std::vector<int> truncated; ///< particles whose pre-cap count exceeded ngmax

    std::size_t count(std::size_t i) const { return offsets[i + 1] - offsets[i]; }
    const std::uint32_t* begin(std::size_t i) const { return list.data() + offsets[i]; }
    const std::uint32_t* end(std::size_t i) const { return list.data() + offsets[i + 1]; }
    std::size_t total_pairs() const { return list.size(); }

    /// x_i - x_j of stored pair `p` (j = list[p]); bit-equal to
    /// `box.min_image(xi, xj)` for the box the list was built on.
    Vec3 displacement(std::size_t p, const Vec3& xi, const Vec3& xj) const
    {
        return image.empty() ? xi - xj : (xi - xj) - shift[image[p]];
    }
    /// x_j - x_i of stored pair `p`; bit-equal to `box.min_image(xj, xi)`.
    Vec3 reverse_displacement(std::size_t p, const Vec3& xi, const Vec3& xj) const
    {
        return image.empty() ? xj - xi
                             : (xj - xi) - shift[kImageCodes - 1 - image[p]];
    }
};

class CellGrid {
public:
    /// Build a grid over `box` with cells no smaller than `min_cell`;
    /// `cutoff` is the maximum interaction radius the grid must resolve
    /// (cells are at least this large so 27-stencil sweeps suffice).
    CellGrid(const Box& box, double cutoff, std::size_t n_particles);

    /// Counting-sort the particles by cell into flat cell-major arrays.
    /// Coordinates on periodic axes must lie in [lo, hi] (as after
    /// Box::wrap); throws std::invalid_argument otherwise.
    void assign(const ParticleSet& particles);

    int nx() const { return nx_; }
    int ny() const { return ny_; }
    int nz() const { return nz_; }
    std::size_t cell_count() const { return cell_start_.size() - 1; }

    /// Fill `out` (CSR) with all neighbours within 2*h_i of each particle,
    /// in cell-stencil order and ascending index within a cell.  Also
    /// updates `particles.nc`.  Returns the total number of pairs found
    /// (before the ngmax cap).  `particles` must be the set last assigned.
    std::size_t find_neighbors(ParticleSet& particles, NeighborList& out) const;

private:
    int cell_index_1d(int cx, int cy, int cz) const;
    int coord_to_cell(double v, double lo, double inv_w, int n) const;

    Box box_;
    double cutoff_;
    int nx_ = 1, ny_ = 1, nz_ = 1;
    double inv_wx_ = 1.0, inv_wy_ = 1.0, inv_wz_ = 1.0;
    std::vector<std::uint32_t> cell_start_; ///< size cells+1: slot range of each cell
    std::vector<std::uint32_t> cell_of_;    ///< particle -> cell
    std::vector<std::uint32_t> index_;      ///< slot -> particle, ascending within a cell
    std::vector<double> sx_, sy_, sz_;      ///< slot -> position copy
};

/// Convenience: build a grid sized by the current max smoothing length and
/// run the search.  Returns total pre-cap pairs.
std::size_t find_all_neighbors(ParticleSet& particles, const Box& box, NeighborList& out);

} // namespace gsph::sph
