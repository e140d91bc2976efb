#pragma once
/// \file node.hpp
/// \brief A compute node (CPU + GPUs + pm_counters) and a cluster of them.

#include "cpusim/cpu.hpp"
#include "gpusim/device.hpp"
#include "pmcounters/pm_counters.hpp"
#include "sim/system.hpp"

#include <memory>
#include <vector>

namespace gsph::sim {

class Node {
public:
    Node(const SystemSpec& system, int node_index);

    // non-copyable (pm_counters holds pointers into the devices)
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;
    Node(Node&&) = delete;
    Node& operator=(Node&&) = delete;

    int index() const { return index_; }
    cpusim::CpuDevice& cpu() { return cpu_; }
    const cpusim::CpuDevice& cpu() const { return cpu_; }
    gpusim::GpuDevice& gpu(int local_index) { return *gpus_.at(local_index); }
    int gpu_count() const { return static_cast<int>(gpus_.size()); }
    pmcounters::PmCounters& counters() { return *counters_; }
    const pmcounters::PmCounters& counters() const { return *counters_; }
    const SystemSpec& system() const { return system_; }

    /// Latest device time across this node's GPUs.
    double max_gpu_time() const;

    /// Bring every component of the node to wall time `t`: GPUs idle up to
    /// t and publish their telemetry counts, the CPU advances (host driver
    /// activity on `busy_cores`), and the out-of-band sampler catches up.
    void sync_to(double t, double cpu_utilization = 0.12, double mem_activity = 0.06);

    std::vector<gpusim::GpuDevice*> gpu_pointers();

private:
    SystemSpec system_;
    int index_;
    cpusim::CpuDevice cpu_;
    std::vector<std::unique_ptr<gpusim::GpuDevice>> gpus_;
    std::unique_ptr<pmcounters::PmCounters> counters_;
};

/// A set of identical nodes with a rank -> (node, local GPU) mapping: rank r
/// drives GPU r % gpus_per_node on node r / gpus_per_node (block mapping,
/// one rank per device, as in the paper).
class Cluster {
public:
    Cluster(const SystemSpec& system, int n_ranks);

    int n_ranks() const { return n_ranks_; }
    int n_nodes() const { return static_cast<int>(nodes_.size()); }
    Node& node(int i) { return *nodes_.at(i); }
    const SystemSpec& system() const { return system_; }

    gpusim::GpuDevice& rank_gpu(int rank);
    Node& rank_node(int rank);

    /// All devices in rank order (for NVML binding).
    std::vector<gpusim::GpuDevice*> all_gpus();
    std::vector<const pmcounters::PmCounters*> all_counters() const;

    double max_gpu_time() const;
    void sync_all_to(double t);

private:
    SystemSpec system_;
    int n_ranks_;
    std::vector<std::unique_ptr<Node>> nodes_;
};

} // namespace gsph::sim
