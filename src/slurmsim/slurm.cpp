#include "slurmsim/slurm.hpp"

#include "telemetry/metrics.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace gsph::slurmsim {

namespace {

/// Per-node ConsumedEnergy contribution: the delta of a cumulative node
/// counter, clamped at zero (wrap/reset protection, same policy as pmt)
/// and floored to Slurm's integral-joule granularity *before* summing
/// across nodes.
double node_consumed_j(double baseline_j, double final_j)
{
    return std::floor(std::max(0.0, final_j - baseline_j));
}

telemetry::Counter& wrap_counter()
{
    static telemetry::Counter& wraps =
        telemetry::MetricsRegistry::global().counter("slurm.counter_wraps");
    return wraps;
}

} // namespace

Job::Job(std::string job_id, std::string job_name,
         std::vector<const pmcounters::PmCounters*> nodes)
    : job_id_(std::move(job_id)), job_name_(std::move(job_name)), nodes_(std::move(nodes))
{
    if (nodes_.empty()) throw std::invalid_argument("slurm Job: no nodes");
    for (const auto* n : nodes_) {
        if (!n) throw std::invalid_argument("slurm Job: null node");
    }
}

void Job::start(double time_s)
{
    if (started_) throw std::logic_error("slurm Job: started twice");
    started_ = true;
    start_time_ = time_s;
    baseline_j_.clear();
    baseline_j_.reserve(nodes_.size());
    for (const auto* n : nodes_) baseline_j_.push_back(n->node_energy_j());
}

void Job::finish(double time_s)
{
    if (!started_) throw std::logic_error("slurm Job: finish before start");
    if (finished_) throw std::logic_error("slurm Job: finished twice");
    finished_ = true;
    end_time_ = time_s;
    final_j_.clear();
    final_j_.reserve(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        final_j_.push_back(nodes_[i]->node_energy_j());
        if (final_j_[i] < baseline_j_[i]) wrap_counter().inc();
    }
}

void Job::save_state(checkpoint::StateWriter& writer) const
{
    if (!started_ || finished_) {
        throw std::logic_error("slurm Job: only a running job is checkpointed");
    }
    writer.put_f64_vec("baseline_j", baseline_j_);
    writer.put_f64("start_time", start_time_);
}

void Job::restore_state(const checkpoint::StateReader& reader)
{
    std::vector<double> baseline_j = reader.get_f64_vec("baseline_j");
    if (baseline_j.size() != nodes_.size()) {
        throw checkpoint::CheckpointError("slurm: baseline_j holds " +
                                          std::to_string(baseline_j.size()) +
                                          " nodes, the job has " +
                                          std::to_string(nodes_.size()));
    }
    baseline_j_ = std::move(baseline_j);
    start_time_ = reader.get_f64("start_time");
    started_ = true;
    finished_ = false;
}

double Job::consumed_energy_j() const
{
    if (!started_) return 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const double final_j =
            finished_ ? final_j_[i] : nodes_[i]->node_energy_j();
        total += node_consumed_j(baseline_j_[i], final_j);
    }
    return total;
}

double Job::elapsed_s() const
{
    if (!started_) return 0.0;
    if (finished_) return end_time_ - start_time_;
    // Live read: the freshest node sensor timestamp stands in for "now".
    double now = start_time_;
    for (const auto* n : nodes_) now = std::max(now, n->last_sample_time());
    return now - start_time_;
}

JobRecord Job::record() const
{
    JobRecord r;
    r.job_id = job_id_;
    r.job_name = job_name_;
    r.elapsed_s = elapsed_s();
    r.consumed_energy_j = consumed_energy_j();
    r.n_nodes = static_cast<int>(nodes_.size());
    r.completed = finished_;
    return r;
}

std::string format_consumed_energy(double joules)
{
    if (joules < 0.0) {
        GSPH_LOG_WARN("slurm", "negative ConsumedEnergy " << joules
                               << " J - accounting bug upstream of the "
                                  "per-node wrap clamp");
        // Insert the sign into the built string: GCC 12 flags `"-" + ...`
        // here with a false -Wrestrict.
        std::string out = format_consumed_energy(-joules);
        out.insert(out.begin(), '-');
        return out;
    }
    if (joules >= 1e9) return util::format_fixed(joules / 1e9, 2) + "G";
    if (joules >= 1e6) return util::format_fixed(joules / 1e6, 2) + "M";
    if (joules >= 1e3) return util::format_fixed(joules / 1e3, 2) + "K";
    return util::format_fixed(joules, 0);
}

std::string format_sacct(const std::vector<JobRecord>& records)
{
    std::ostringstream os;
    os << util::pad_right("JobID", 12) << util::pad_right("JobName", 20)
       << util::pad_right("Elapsed", 12) << util::pad_right("NNodes", 8)
       << "ConsumedEnergy\n";
    os << std::string(12, '-').substr(0, 11) << ' ' << std::string(20, '-').substr(0, 19)
       << ' ' << std::string(12, '-').substr(0, 11) << ' '
       << std::string(8, '-').substr(0, 7) << ' ' << std::string(14, '-') << '\n';
    for (const auto& r : records) {
        // 64-bit seconds: an int overflows past ~68 simulated years, and
        // Slurm prints D-HH:MM:SS once a job reaches a day.
        const long long total_s =
            static_cast<long long>(std::max(0.0, r.elapsed_s));
        const long long days = total_s / 86400;
        const long long h = (total_s % 86400) / 3600;
        const long long m = (total_s % 3600) / 60;
        const long long s = total_s % 60;
        char elapsed[48];
        if (days > 0) {
            std::snprintf(elapsed, sizeof(elapsed), "%lld-%02lld:%02lld:%02lld",
                          days, h, m, s);
        }
        else {
            std::snprintf(elapsed, sizeof(elapsed), "%02lld:%02lld:%02lld", h, m, s);
        }
        os << util::pad_right(r.job_id, 12) << util::pad_right(r.job_name, 20)
           << util::pad_right(elapsed, 12)
           << util::pad_right(std::to_string(r.n_nodes), 8)
           << format_consumed_energy(r.consumed_energy_j) << '\n';
    }
    return os.str();
}

} // namespace gsph::slurmsim
