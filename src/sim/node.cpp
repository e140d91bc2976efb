#include "sim/node.hpp"

#include <algorithm>
#include <stdexcept>

namespace gsph::sim {

Node::Node(const SystemSpec& system, int node_index)
    : system_(system), index_(node_index), cpu_(system.cpu)
{
    system_.validate();
    gpus_.reserve(static_cast<std::size_t>(system_.gpus_per_node));
    for (int g = 0; g < system_.gpus_per_node; ++g) {
        gpus_.push_back(std::make_unique<gpusim::GpuDevice>(
            system_.gpu, node_index * system_.gpus_per_node + g));
    }
    pmcounters::PmCountersConfig cfg;
    cfg.gcds_per_accel_file = system_.gcds_per_accel_file;
    cfg.aux_power_w = system_.aux_power_w;
    cfg.counter_wrap_j = system_.pm_counter_wrap_j;
    counters_ = std::make_unique<pmcounters::PmCounters>(cfg, &cpu_, gpu_pointers());
}

std::vector<gpusim::GpuDevice*> Node::gpu_pointers()
{
    std::vector<gpusim::GpuDevice*> out;
    out.reserve(gpus_.size());
    for (auto& g : gpus_) out.push_back(g.get());
    return out;
}

double Node::max_gpu_time() const
{
    double t = 0.0;
    for (const auto& g : gpus_) t = std::max(t, g->now());
    return t;
}

void Node::sync_to(double t, double cpu_utilization, double mem_activity)
{
    for (auto& g : gpus_) {
        const double gap = t - g->now();
        if (gap > 0.0) g->idle(gap);
        g->publish_counters();
    }
    const double cpu_gap = t - cpu_.now();
    if (cpu_gap > 0.0) {
        // One host core per rank runs the driver / MPI progress engine at
        // low duty cycle; the rest of the sockets idle.
        cpu_.advance(cpu_gap, static_cast<double>(system_.gpus_per_node), cpu_utilization,
                     mem_activity);
    }
    counters_->sample_to(t);
}

void Node::save_state(std::vector<checkpoint::Section>& sections) const
{
    for (const auto& g : gpus_) {
        checkpoint::StateWriter w;
        g->save_state(w);
        sections.push_back({"gpu." + std::to_string(g->index()), w.take(), w.take_log()});
    }
    checkpoint::StateWriter cpu;
    cpu_.save_state(cpu);
    sections.push_back({"cpu." + std::to_string(index_), cpu.take()});
    checkpoint::StateWriter counters;
    counters_->save_state(counters);
    sections.push_back({"pmcounters." + std::to_string(index_), counters.take()});
}

void Node::restore_state(const checkpoint::Snapshot& snap)
{
    for (auto& g : gpus_) {
        g->restore_state(snap.reader("gpu." + std::to_string(g->index())));
    }
    cpu_.restore_state(snap.reader("cpu." + std::to_string(index_)));
    counters_->restore_state(snap.reader("pmcounters." + std::to_string(index_)));
}

Cluster::Cluster(const SystemSpec& system, int n_ranks)
    : system_(system), n_ranks_(n_ranks)
{
    if (n_ranks <= 0) throw std::invalid_argument("Cluster: n_ranks <= 0");
    // Partial nodes are allowed (the paper's miniHPC experiments drive one
    // of the node's two GPUs); unused devices just idle.
    const int n_nodes = (n_ranks + system.gpus_per_node - 1) / system.gpus_per_node;
    nodes_.reserve(static_cast<std::size_t>(n_nodes));
    for (int i = 0; i < n_nodes; ++i) {
        nodes_.push_back(std::make_unique<Node>(system, i));
    }
}

gpusim::GpuDevice& Cluster::rank_gpu(int rank)
{
    if (rank < 0 || rank >= n_ranks_) throw std::out_of_range("Cluster::rank_gpu");
    return nodes_[rank / system_.gpus_per_node]->gpu(rank % system_.gpus_per_node);
}

Node& Cluster::rank_node(int rank)
{
    if (rank < 0 || rank >= n_ranks_) throw std::out_of_range("Cluster::rank_node");
    return *nodes_[rank / system_.gpus_per_node];
}

std::vector<gpusim::GpuDevice*> Cluster::all_gpus()
{
    std::vector<gpusim::GpuDevice*> out;
    for (auto& n : nodes_) {
        for (auto* g : n->gpu_pointers()) out.push_back(g);
    }
    return out;
}

std::vector<const pmcounters::PmCounters*> Cluster::all_counters() const
{
    std::vector<const pmcounters::PmCounters*> out;
    for (const auto& n : nodes_) out.push_back(&n->counters());
    return out;
}

double Cluster::max_gpu_time() const
{
    double t = 0.0;
    for (const auto& n : nodes_) t = std::max(t, n->max_gpu_time());
    return t;
}

void Cluster::sync_all_to(double t)
{
    for (auto& n : nodes_) n->sync_to(t);
}

} // namespace gsph::sim
