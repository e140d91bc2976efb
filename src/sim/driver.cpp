#include "sim/driver.hpp"

#include "faults/fault_injector.hpp"
#include "nvmlsim/nvml.hpp"
#include "pmt/pmt.hpp"
#include "rocmsmi/rocm_smi.hpp"
#include "telemetry/metrics.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace gsph::sim {

double work_jitter(double j, int rank, int step, int call)
{
    if (j <= 0.0) return 1.0;
    // Chain one SplitMix64 round per index: each round's output seeds the
    // next, so every (rank, step, call) tuple selects a distinct stream.
    // The previous packing (rank<<40 ^ step<<16 ^ call) silently collided
    // once call >= 2^16 or step >= 2^24, correlating the jitter streams.
    util::SplitMix64 mix_rank(0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(rank));
    util::SplitMix64 mix_step(mix_rank.next() ^ static_cast<std::uint64_t>(step));
    util::SplitMix64 mix_call(mix_step.next() ^ static_cast<std::uint64_t>(call));
    const double u =
        static_cast<double>(mix_call.next() >> 11) * 0x1.0p-53; // uniform [0,1)
    return 1.0 + j * (2.0 * u - 1.0);
}

namespace {

/// `first` then `second` as one callback.  When either is empty the other
/// is returned as it is, so composing never installs a call that does
/// nothing.
template <typename... Args>
std::function<void(Args...)> chain(std::function<void(Args...)> first,
                                   std::function<void(Args...)> second)
{
    if (!first) return second;
    if (!second) return first;
    return [first = std::move(first), second = std::move(second)](Args... args) {
        first(args...);
        second(args...);
    };
}

struct NodeBaseline {
    double cpu_j = 0.0;
    double dram_j = 0.0;
    double aux_t = 0.0;
    std::vector<double> gpu_j;
};

} // namespace

void RunHooks::append(RunHooks later)
{
    before_function = chain(std::move(before_function), std::move(later.before_function));
    after_function = chain(std::move(after_function), std::move(later.after_function));
    after_step = chain(std::move(after_step), std::move(later.after_step));
}

void RunHooks::prepend(RunHooks earlier)
{
    earlier.append(std::move(*this));
    *this = std::move(earlier);
}

RunResult run_instrumented(const SystemSpec& system, const WorkloadTrace& trace,
                           const RunConfig& config, const RunHooks& hooks)
{
    if (trace.steps.empty()) throw std::invalid_argument("run_instrumented: empty trace");
    const int n_steps = config.n_steps > 0 ? config.n_steps : trace.n_steps();
    const double scale = trace.work_scale();

    static telemetry::Counter& steps_counter =
        telemetry::MetricsRegistry::global().counter("driver.steps");
    static telemetry::Counter& calls_counter =
        telemetry::MetricsRegistry::global().counter("driver.function_calls");

    GSPH_LOG_DEBUG("driver", "run_instrumented: system=" + system.name +
                                 " workload=" + trace.workload_name +
                                 " steps=" + std::to_string(n_steps) +
                                 " ranks=" + std::to_string(config.n_ranks));

    Cluster cluster(system, config.n_ranks);
    CommModel comm(system, config.n_ranks);

    // Optional management-library bindings for hooks / PMT back-ends.  Both
    // vendor facades see the same devices; each only matters on its vendor's
    // hardware, mirroring a node image with both libraries installed.
    std::optional<nvmlsim::ScopedNvmlBinding> nvml_binding;
    std::optional<rocmsmi::ScopedRocmBinding> rocm_binding;
    if (config.bind_nvml) {
        nvml_binding.emplace(cluster.all_gpus(), /*allow_user_clocks=*/true);
        rocm_binding.emplace(cluster.all_gpus(), /*allow_clock_writes=*/true);
    }

    // Configure devices.
    for (auto* gpu : cluster.all_gpus()) {
        gpu->set_clock_policy(config.clock_policy);
        if (config.app_clock_mhz > 0.0) {
            gpu->set_application_clocks(system.gpu.memory_clock_mhz, config.app_clock_mhz);
        }
    }
    if (config.enable_rank0_trace) cluster.rank_gpu(0).enable_tracing(true);

    RunResult result;
    result.system_name = system.name;
    result.workload_name = trace.workload_name;
    result.n_ranks = config.n_ranks;
    result.n_steps = n_steps;

    // --- job start + setup phase (Slurm accounts for this, PMT does not) ---
    std::vector<slurmsim::JobRecord> records;
    slurmsim::Job job("1001", trace.workload_name, cluster.all_counters());
    job.start(0.0);

    if (config.setup_s > 0.0) {
        for (int n = 0; n < cluster.n_nodes(); ++n) {
            // Setup keeps the host busy (I/O, allocation) while GPUs idle.
            cluster.node(n).sync_to(config.setup_s, /*cpu_utilization=*/0.5,
                                    /*mem_activity=*/0.35);
        }
    }
    result.loop_start_s = config.setup_s;

    // Loop-window baselines (ground truth).
    std::vector<NodeBaseline> baselines(static_cast<std::size_t>(cluster.n_nodes()));
    for (int n = 0; n < cluster.n_nodes(); ++n) {
        Node& node = cluster.node(n);
        NodeBaseline& b = baselines[static_cast<std::size_t>(n)];
        b.cpu_j = node.cpu().package_energy_j();
        b.dram_j = node.cpu().dram_energy_j();
        b.aux_t = result.loop_start_s;
        for (int g = 0; g < node.gpu_count(); ++g) b.gpu_j.push_back(node.gpu(g).energy_j());
    }

    // PMT node sensors (read the 10 Hz pm_counters surface).
    std::vector<std::unique_ptr<pmt::Pmt>> node_sensors;
    std::vector<pmt::State> pmt_start;
    for (int n = 0; n < cluster.n_nodes(); ++n) {
        node_sensors.push_back(pmt::CreateCray(&cluster.node(n).counters()));
        pmt_start.push_back(node_sensors.back()->Read());
    }

    const std::size_t halo_bytes =
        trace.halo_surface_prefactor > 0.0
            ? CommModel::halo_bytes_measured(trace.halo_surface_prefactor,
                                             trace.particles_per_gpu, /*fields=*/10)
            : CommModel::halo_bytes(trace.particles_per_gpu, /*fields=*/10);

    // --- checkpoint/restart ---------------------------------------------------
    // Everything the loop reads or accumulates lives in the locals above;
    // collect_sections snapshots them (plus every simulated component and the
    // caller's registered participants) and the restore block below overwrites
    // them from a validated snapshot.  Restore runs *after* all construction
    // and setup-phase side effects, so any state those touched (device time,
    // counters, accounting) is replaced wholesale — the basis of the
    // bit-identical-resume guarantee.
    auto collect_sections = [&](int completed_steps) {
        std::vector<checkpoint::Section> sections;
        {
            checkpoint::StateWriter w;
            w.put_i64("step", completed_steps);
            w.put_f64("loop_start_s", result.loop_start_s);
            w.put_f64_vec("step_start_times", result.step_start_times);
            for (int f = 0; f < sph::kSphFunctionCount; ++f) {
                const auto& a = result.per_function[static_cast<std::size_t>(f)];
                const std::string prefix = "fn." + std::to_string(f) + ".";
                w.put_f64(prefix + "time_s", a.time_s);
                w.put_f64(prefix + "energy_j", a.gpu_energy_j);
                w.put_f64(prefix + "ctp", a.clock_time_product);
                w.put_i64(prefix + "calls", a.calls);
            }
            w.put_u64("nodes", static_cast<std::uint64_t>(cluster.n_nodes()));
            for (int n = 0; n < cluster.n_nodes(); ++n) {
                const NodeBaseline& b = baselines[static_cast<std::size_t>(n)];
                const std::string prefix = "node." + std::to_string(n) + ".";
                w.put_f64(prefix + "cpu_j", b.cpu_j);
                w.put_f64(prefix + "dram_j", b.dram_j);
                w.put_f64(prefix + "aux_t", b.aux_t);
                w.put_f64_vec(prefix + "gpu_j", b.gpu_j);
                const pmt::State& p = pmt_start[static_cast<std::size_t>(n)];
                w.put_f64(prefix + "pmt_timestamp_s", p.timestamp_s);
                w.put_f64(prefix + "pmt_joules", p.joules);
            }
            sections.push_back({"driver", w.take()});
        }
        const auto gpus = cluster.all_gpus();
        for (std::size_t i = 0; i < gpus.size(); ++i) {
            checkpoint::StateWriter w;
            gpus[i]->save_state(w);
            sections.push_back({"gpu." + std::to_string(i), w.take()});
        }
        for (int n = 0; n < cluster.n_nodes(); ++n) {
            checkpoint::StateWriter w;
            cluster.node(n).cpu().save_state(w);
            sections.push_back({"cpu." + std::to_string(n), w.take()});
            checkpoint::StateWriter c;
            cluster.node(n).counters().save_state(c);
            sections.push_back({"pmcounters." + std::to_string(n), c.take()});
        }
        {
            checkpoint::StateWriter w;
            job.save_state(w);
            sections.push_back({"slurm", w.take()});
        }
        if (config.checkpoint_participants) {
            for (auto& section : config.checkpoint_participants->save_all()) {
                sections.push_back(std::move(section));
            }
        }
        return sections;
    };

    int start_step = 0;
    if (config.resume) {
        const checkpoint::Snapshot& snap = *config.resume;
        {
            const checkpoint::StateReader r = snap.reader("driver");
            start_step = static_cast<int>(r.get_i64("step"));
            if (start_step <= 0 || start_step >= n_steps) {
                throw checkpoint::CheckpointError(
                    "driver: checkpoint records " + std::to_string(start_step) +
                    " completed steps, not resumable within a " +
                    std::to_string(n_steps) + "-step run");
            }
            result.loop_start_s = r.get_f64("loop_start_s");
            result.step_start_times = r.get_f64_vec("step_start_times");
            if (result.step_start_times.size() !=
                static_cast<std::size_t>(start_step)) {
                throw checkpoint::CheckpointError(
                    "driver: step_start_times has " +
                    std::to_string(result.step_start_times.size()) +
                    " entries for " + std::to_string(start_step) + " steps");
            }
            for (int f = 0; f < sph::kSphFunctionCount; ++f) {
                auto& a = result.per_function[static_cast<std::size_t>(f)];
                const std::string prefix = "fn." + std::to_string(f) + ".";
                a.time_s = r.get_f64(prefix + "time_s");
                a.gpu_energy_j = r.get_f64(prefix + "energy_j");
                a.clock_time_product = r.get_f64(prefix + "ctp");
                a.calls = static_cast<long>(r.get_i64(prefix + "calls"));
            }
            if (r.get_u64("nodes") != static_cast<std::uint64_t>(cluster.n_nodes())) {
                throw checkpoint::CheckpointError(
                    "driver: node count mismatch (checkpoint " +
                    std::to_string(r.get_u64("nodes")) + ", run " +
                    std::to_string(cluster.n_nodes()) + ")");
            }
            for (int n = 0; n < cluster.n_nodes(); ++n) {
                NodeBaseline& b = baselines[static_cast<std::size_t>(n)];
                const std::string prefix = "node." + std::to_string(n) + ".";
                b.cpu_j = r.get_f64(prefix + "cpu_j");
                b.dram_j = r.get_f64(prefix + "dram_j");
                b.aux_t = r.get_f64(prefix + "aux_t");
                b.gpu_j = r.get_f64_vec(prefix + "gpu_j");
                pmt::State& p = pmt_start[static_cast<std::size_t>(n)];
                p.timestamp_s = r.get_f64(prefix + "pmt_timestamp_s");
                p.joules = r.get_f64(prefix + "pmt_joules");
            }
        }
        const auto gpus = cluster.all_gpus();
        for (std::size_t i = 0; i < gpus.size(); ++i) {
            gpus[i]->restore_state(snap.reader("gpu." + std::to_string(i)));
        }
        for (int n = 0; n < cluster.n_nodes(); ++n) {
            cluster.node(n).cpu().restore_state(
                snap.reader("cpu." + std::to_string(n)));
            cluster.node(n).counters().restore_state(
                snap.reader("pmcounters." + std::to_string(n)));
        }
        job.restore_state(snap.reader("slurm"));
        if (config.checkpoint_participants) {
            config.checkpoint_participants->restore_all(snap);
        }
        GSPH_LOG_INFO("driver", "resumed at step " + std::to_string(start_step) +
                                    " of " + std::to_string(n_steps));
    }

    std::optional<checkpoint::CheckpointWriter> ckpt_writer;
    if (config.checkpoint_every > 0) {
        if (config.checkpoint_dir.empty()) {
            throw std::invalid_argument(
                "run_instrumented: checkpoint_every > 0 needs checkpoint_dir");
        }
        ckpt_writer.emplace(config.checkpoint_dir, config.config_hash);
    }

    // One phased loop per function call, at every thread count: all
    // before-hooks in rank order, then every rank executes, then all
    // after-hooks in rank order.  Hooks fire on this (the driving) thread, so
    // hook consumers need no locking, and they see the same order for any
    // n_threads.  Rank executions between the hooks are independent (each
    // drives its own GpuDevice), so with more than one thread they run on a
    // pool into rank-indexed slots and are merged in rank order afterwards;
    // every floating-point accumulation keeps the serial order, so results
    // are bit-identical to n_threads == 1.
    const int pool_threads =
        std::min(util::ThreadPool::resolve_threads(config.n_threads), config.n_ranks);
    std::optional<util::ThreadPool> pool;
    if (pool_threads > 1) pool.emplace(pool_threads);
    std::vector<gpusim::KernelResult> rank_results(
        static_cast<std::size_t>(config.n_ranks));

    // --- the time-stepping loop -------------------------------------------
    auto& agg = result.per_function;
    for (int s = start_step; s < n_steps; ++s) {
        result.step_start_times.push_back(cluster.rank_gpu(0).now());
        const StepRecord& rec = trace.steps[static_cast<std::size_t>(s) %
                                            trace.steps.size()];
        int call_index = 0;
        for (const FunctionRecord& fr : rec.functions) {
            const std::size_t fi = static_cast<std::size_t>(fr.fn);
            auto execute_rank = [&](int r) {
                const double jit = work_jitter(config.rank_jitter, r, s, call_index);
                const gpusim::KernelWork work = gpusim::scaled(fr.work, scale * jit);
                rank_results[static_cast<std::size_t>(r)] =
                    cluster.rank_gpu(r).execute(work);
            };
            auto merge_rank = [&](int r) {
                const gpusim::KernelResult& res =
                    rank_results[static_cast<std::size_t>(r)];
                const double duration = res.end_s - res.start_s;
                agg[fi].time_s += duration;
                agg[fi].gpu_energy_j += res.energy_j;
                agg[fi].clock_time_product += res.mean_clock_mhz * duration;
                ++agg[fi].calls;
            };
            if (hooks.before_function) {
                for (int r = 0; r < config.n_ranks; ++r) {
                    hooks.before_function(r, cluster.rank_gpu(r), fr.fn);
                }
            }
            if (pool) {
                pool->parallel_for(static_cast<std::size_t>(config.n_ranks),
                                   [&](std::size_t r) {
                                       execute_rank(static_cast<int>(r));
                                   });
                for (int r = 0; r < config.n_ranks; ++r) merge_rank(r);
            }
            else {
                // Merging right behind each execute keeps the result in
                // cache; a separate merge pass measured slower.
                for (int r = 0; r < config.n_ranks; ++r) {
                    execute_rank(r);
                    merge_rank(r);
                }
            }
            calls_counter.inc(static_cast<double>(config.n_ranks));
            if (hooks.after_function) {
                for (int r = 0; r < config.n_ranks; ++r) {
                    hooks.after_function(r, cluster.rank_gpu(r), fr.fn,
                                         rank_results[static_cast<std::size_t>(r)]);
                }
            }

            // Communication attributed to the function that caused it.
            if (fr.fn == sph::SphFunction::kDomainDecompAndSync &&
                config.n_ranks > 1) {
                const double t_halo = comm.halo_exchange_s(halo_bytes);
                for (int r = 0; r < config.n_ranks; ++r) {
                    gpusim::GpuDevice& dev = cluster.rank_gpu(r);
                    const double e0 = dev.energy_j();
                    dev.idle(t_halo);
                    agg[fi].time_s += t_halo;
                    agg[fi].gpu_energy_j += dev.energy_j() - e0;
                    agg[fi].clock_time_product += dev.current_clock_mhz() * t_halo;
                }
            }
            if (sph::is_collective(fr.fn)) {
                // Barrier semantics: everyone waits for the slowest rank,
                // then pays the allreduce plus the host-side readback and
                // reduction logic (GPUs idle; their clocks decay -> the
                // Fig. 9 end-of-step dips).
                const double t_sync = cluster.max_gpu_time() +
                                      comm.allreduce_s(/*bytes=*/64) +
                                      comm.collective_host_overhead_s();
                for (int r = 0; r < config.n_ranks; ++r) {
                    gpusim::GpuDevice& dev = cluster.rank_gpu(r);
                    const double pad = t_sync - dev.now();
                    if (pad <= 0.0) continue;
                    const double e0 = dev.energy_j();
                    dev.idle(pad);
                    agg[fi].time_s += pad;
                    agg[fi].gpu_energy_j += dev.energy_j() - e0;
                    agg[fi].clock_time_product += dev.current_clock_mhz() * pad;
                }
            }
            ++call_index;
        }

        // End of step: host/sampler catch up on every node, and every device
        // publishes its counts before the hooks and the checkpoint read them.
        const double t_step = cluster.max_gpu_time();
        cluster.sync_all_to(t_step);
        steps_counter.inc();
        if (hooks.after_step) hooks.after_step(s);
        // Commit the checkpoint before the fault call-out: a kill-at-step
        // fault then lands on a just-committed checkpoint, so the resumed
        // run continues from exactly this boundary.
        if (ckpt_writer && (s + 1) % config.checkpoint_every == 0 &&
            s + 1 < n_steps) {
            ckpt_writer->write(s + 1, collect_sections(s + 1));
        }
        faults::notify_step_end(s);
    }

    result.loop_end_s = cluster.max_gpu_time();
    cluster.sync_all_to(result.loop_end_s);

    // Mean over ranks for the time/clock aggregates (they were summed).
    for (auto& a : agg) {
        a.time_s /= static_cast<double>(config.n_ranks);
        a.clock_time_product /= static_cast<double>(config.n_ranks);
    }

    // --- ground-truth loop-window energies ----------------------------------
    for (int n = 0; n < cluster.n_nodes(); ++n) {
        Node& node = cluster.node(n);
        const NodeBaseline& b = baselines[static_cast<std::size_t>(n)];
        result.cpu_energy_j += node.cpu().package_energy_j() - b.cpu_j;
        result.memory_energy_j += node.cpu().dram_energy_j() - b.dram_j;
        result.other_energy_j += system.aux_power_w * (result.loop_end_s - b.aux_t);
        for (int g = 0; g < node.gpu_count(); ++g) {
            result.gpu_energy_j +=
                node.gpu(g).energy_j() - b.gpu_j[static_cast<std::size_t>(g)];
        }
    }
    result.node_energy_j = result.gpu_energy_j + result.cpu_energy_j +
                           result.memory_energy_j + result.other_energy_j;

    // Apportion CPU + other to functions by duration share (the paper's
    // observation: the host consumes energy proportional to function time).
    double total_fn_time = 0.0;
    for (const auto& a : agg) total_fn_time += a.time_s;
    if (total_fn_time > 0.0) {
        for (auto& a : agg) {
            const double share = a.time_s / total_fn_time;
            a.cpu_energy_j = share * (result.cpu_energy_j + result.memory_energy_j);
            a.other_energy_j = share * result.other_energy_j;
        }
    }

    // --- PMT loop-window measurement -----------------------------------------
    for (std::size_t n = 0; n < node_sensors.size(); ++n) {
        const pmt::State end = node_sensors[n]->Read();
        result.pmt_loop_energy_j += pmt::Pmt::joules(pmt_start[n], end);
    }

    // --- teardown + job end ---------------------------------------------------
    const double t_final = result.loop_end_s + config.teardown_s;
    cluster.sync_all_to(t_final);
    result.total_wall_s = t_final;
    job.finish(t_final);
    result.slurm = job.record();

    if (config.enable_rank0_trace) {
        result.rank0_clock_trace = cluster.rank_gpu(0).clock_trace();
    }
    if (ckpt_writer) result.checkpoints_written = ckpt_writer->checkpoints_written();
    return result;
}

} // namespace gsph::sim
