#include "fleet/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace gsph::fleet {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Put the `k` smallest node indices by (key, index) first, in that order.
/// (key, index) orders every pair of nodes, so they are the first k of a
/// full sort; the rest are left in no particular order.
void first_k_by_key(std::vector<int>& idx, std::size_t k, const std::vector<double>& key)
{
    const auto before = [&](int a, int b) {
        const double ka = key[static_cast<std::size_t>(a)];
        const double kb = key[static_cast<std::size_t>(b)];
        if (ka != kb) return ka < kb;
        return a < b;
    };
    std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k), idx.end(),
                      before);
}

} // namespace

std::vector<Placement> schedule(const std::vector<JobSpec>& queue,
                                const std::vector<NodeAvail>& nodes)
{
    const std::size_t n = nodes.size();
    // Mutable pass-local views of node state.
    std::vector<bool> free_now(n);
    std::vector<double> free_at(n);
    std::vector<double> avail(n);        // estimated availability time
    std::vector<double> reserve_from(n, kInf);
    for (std::size_t i = 0; i < n; ++i) {
        free_now[i] = !nodes[i].busy;
        free_at[i] = nodes[i].free_at;
        avail[i] = nodes[i].busy ? nodes[i].est_free_at : nodes[i].free_at;
    }

    std::vector<Placement> out;
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
        const JobSpec& job = queue[qi];
        if (job.n_nodes <= 0 || static_cast<std::size_t>(job.n_nodes) > n) {
            throw std::invalid_argument("fleet schedule: job " +
                                        std::to_string(job.id) + " wants " +
                                        std::to_string(job.n_nodes) + " of " +
                                        std::to_string(n) + " nodes");
        }
        const std::size_t k = static_cast<std::size_t>(job.n_nodes);

        // --- try an immediate start on free nodes ------------------------
        // Conservative eligibility: a reserved-but-free node may be used
        // only when the job is guaranteed to vacate it before the earliest
        // reservation on it, using the worst-case start bound (latest
        // free_at among all free nodes).
        std::vector<int> free_idx;
        double start_ub = job.arrival_s;
        for (std::size_t i = 0; i < n; ++i) {
            if (!free_now[i]) continue;
            free_idx.push_back(static_cast<int>(i));
            start_ub = std::max(start_ub, free_at[i]);
        }
        std::vector<int> eligible;
        for (int i : free_idx) {
            const double rf = reserve_from[static_cast<std::size_t>(i)];
            if (rf == kInf || start_ub + job.est_runtime_s <= rf) {
                eligible.push_back(i);
            }
        }
        if (eligible.size() >= k) {
            first_k_by_key(eligible, k, free_at);
            Placement p;
            p.queue_index = qi;
            p.start_s = job.arrival_s;
            for (std::size_t c = 0; c < k; ++c) {
                const int i = eligible[c];
                p.nodes.push_back(i);
                p.start_s = std::max(p.start_s, free_at[static_cast<std::size_t>(i)]);
            }
            std::sort(p.nodes.begin(), p.nodes.end());
            for (int i : p.nodes) {
                const auto u = static_cast<std::size_t>(i);
                free_now[u] = false;
                avail[u] = p.start_s + job.est_runtime_s;
            }
            out.push_back(std::move(p));
            continue;
        }

        // --- reserve: the k earliest-available nodes ----------------------
        std::vector<int> all_idx(n);
        for (std::size_t i = 0; i < n; ++i) all_idx[i] = static_cast<int>(i);
        first_k_by_key(all_idx, k, avail);
        const double shadow_start =
            std::max(job.arrival_s, avail[static_cast<std::size_t>(all_idx[k - 1])]);
        for (std::size_t c = 0; c < k; ++c) {
            const auto u = static_cast<std::size_t>(all_idx[c]);
            reserve_from[u] = std::min(reserve_from[u], shadow_start);
            avail[u] = shadow_start + job.est_runtime_s;
        }
    }
    return out;
}

} // namespace gsph::fleet
