#include "service/tuning_service.hpp"

#include "telemetry/metrics.hpp"
#include "util/checksum.hpp"

#include <algorithm>
#include <stdexcept>

namespace gsph::service {

namespace {

telemetry::Counter& service_counter(const char* name)
{
    return telemetry::MetricsRegistry::global().counter(name);
}

double get_num(const telemetry::Json& obj, const std::string& key,
               const std::string& where)
{
    if (!obj.contains(key)) {
        throw std::invalid_argument(where + "." + key + " missing");
    }
    return obj.at(key).as_number();
}

const std::string& get_str(const telemetry::Json& obj, const std::string& key,
                           const std::string& where)
{
    if (!obj.contains(key)) {
        throw std::invalid_argument(where + "." + key + " missing");
    }
    return obj.at(key).as_string();
}

sph::SphFunction function_from_name(const std::string& name)
{
    for (int f = 0; f < sph::kSphFunctionCount; ++f) {
        const auto fn = static_cast<sph::SphFunction>(f);
        if (name == sph::to_string(fn)) return fn;
    }
    throw std::invalid_argument("unknown SPH function '" + name + "'");
}

/// Flatten a JSON value into (dotted-path, rendered-value) pairs; arrays
/// and scalars render as one value so mismatch lines stay readable.
void flatten_json(const telemetry::Json& value, const std::string& path,
                  std::vector<std::pair<std::string, std::string>>& out)
{
    if (value.is_object()) {
        for (const auto& [key, member] : value.members()) {
            flatten_json(member, path.empty() ? key : path + "." + key, out);
        }
        return;
    }
    out.emplace_back(path, value.dump());
}

} // namespace

const char* to_string(gpusim::Vendor vendor)
{
    switch (vendor) {
        case gpusim::Vendor::kNvidia: return "nvidia";
        case gpusim::Vendor::kAmd: return "amd";
        case gpusim::Vendor::kIntel: return "intel";
    }
    return "nvidia";
}

gpusim::Vendor vendor_from_string(const std::string& name)
{
    if (name == "nvidia") return gpusim::Vendor::kNvidia;
    if (name == "amd") return gpusim::Vendor::kAmd;
    if (name == "intel") return gpusim::Vendor::kIntel;
    throw std::invalid_argument("unknown vendor '" + name +
                                "' (expected nvidia|amd|intel)");
}

telemetry::Json device_spec_json(const gpusim::GpuDeviceSpec& spec)
{
    // Every field, declaration order: the canonical hash must see the whole
    // device so any spec perturbation yields a different key.
    auto j = telemetry::Json::object();
    j["name"] = spec.name;
    j["vendor"] = to_string(spec.vendor);
    j["max_compute_mhz"] = spec.max_compute_mhz;
    j["min_compute_mhz"] = spec.min_compute_mhz;
    j["clock_step_mhz"] = spec.clock_step_mhz;
    j["default_app_clock_mhz"] = spec.default_app_clock_mhz;
    j["memory_clock_mhz"] = spec.memory_clock_mhz;
    j["peak_fp64_flops"] = spec.peak_fp64_flops;
    j["dram_bw_bytes"] = spec.dram_bw_bytes;
    j["stream_bw_eff"] = spec.stream_bw_eff;
    j["gather_bw_eff"] = spec.gather_bw_eff;
    j["gather_amplification"] = spec.gather_amplification;
    j["bw_saturation_threads"] = spec.bw_saturation_threads;
    j["compute_saturation_threads"] = spec.compute_saturation_threads;
    j["launch_overhead_s"] = spec.launch_overhead_s;
    j["overlap_efficiency"] = spec.overlap_efficiency;
    j["idle_w"] = spec.idle_w;
    j["sm_dynamic_w"] = spec.sm_dynamic_w;
    j["issue_w"] = spec.issue_w;
    j["mem_dynamic_w"] = spec.mem_dynamic_w;
    j["v0"] = spec.v0;
    j["v_slope"] = spec.v_slope;
    j["transition_energy_j"] = spec.transition_energy_j;
    auto gov = telemetry::Json::object();
    gov["tick_s"] = spec.governor.tick_s;
    gov["up_rate_mhz_per_s"] = spec.governor.up_rate_mhz_per_s;
    gov["down_rate_mhz_per_s"] = spec.governor.down_rate_mhz_per_s;
    gov["boost_floor_mhz"] = spec.governor.boost_floor_mhz;
    gov["active_floor_mhz"] = spec.governor.active_floor_mhz;
    gov["idle_target_mhz"] = spec.governor.idle_target_mhz;
    gov["util_shape"] = spec.governor.util_shape;
    gov["voltage_guard"] = spec.governor.voltage_guard;
    j["governor"] = std::move(gov);
    return j;
}

gpusim::GpuDeviceSpec device_spec_from_json(const telemetry::Json& json)
{
    gpusim::GpuDeviceSpec spec;
    spec.name = get_str(json, "name", "device");
    spec.vendor = vendor_from_string(get_str(json, "vendor", "device"));
    spec.max_compute_mhz = get_num(json, "max_compute_mhz", "device");
    spec.min_compute_mhz = get_num(json, "min_compute_mhz", "device");
    spec.clock_step_mhz = get_num(json, "clock_step_mhz", "device");
    spec.default_app_clock_mhz = get_num(json, "default_app_clock_mhz", "device");
    spec.memory_clock_mhz = get_num(json, "memory_clock_mhz", "device");
    spec.peak_fp64_flops = get_num(json, "peak_fp64_flops", "device");
    spec.dram_bw_bytes = get_num(json, "dram_bw_bytes", "device");
    spec.stream_bw_eff = get_num(json, "stream_bw_eff", "device");
    spec.gather_bw_eff = get_num(json, "gather_bw_eff", "device");
    spec.gather_amplification = get_num(json, "gather_amplification", "device");
    spec.bw_saturation_threads = get_num(json, "bw_saturation_threads", "device");
    spec.compute_saturation_threads =
        get_num(json, "compute_saturation_threads", "device");
    spec.launch_overhead_s = get_num(json, "launch_overhead_s", "device");
    spec.overlap_efficiency = get_num(json, "overlap_efficiency", "device");
    spec.idle_w = get_num(json, "idle_w", "device");
    spec.sm_dynamic_w = get_num(json, "sm_dynamic_w", "device");
    spec.issue_w = get_num(json, "issue_w", "device");
    spec.mem_dynamic_w = get_num(json, "mem_dynamic_w", "device");
    spec.v0 = get_num(json, "v0", "device");
    spec.v_slope = get_num(json, "v_slope", "device");
    spec.transition_energy_j = get_num(json, "transition_energy_j", "device");
    if (!json.contains("governor")) {
        throw std::invalid_argument("device.governor missing");
    }
    const telemetry::Json& gov = json.at("governor");
    spec.governor.tick_s = get_num(gov, "tick_s", "device.governor");
    spec.governor.up_rate_mhz_per_s =
        get_num(gov, "up_rate_mhz_per_s", "device.governor");
    spec.governor.down_rate_mhz_per_s =
        get_num(gov, "down_rate_mhz_per_s", "device.governor");
    spec.governor.boost_floor_mhz = get_num(gov, "boost_floor_mhz", "device.governor");
    spec.governor.active_floor_mhz =
        get_num(gov, "active_floor_mhz", "device.governor");
    spec.governor.idle_target_mhz = get_num(gov, "idle_target_mhz", "device.governor");
    spec.governor.util_shape = get_num(gov, "util_shape", "device.governor");
    spec.governor.voltage_guard = get_num(gov, "voltage_guard", "device.governor");
    spec.validate();
    return spec;
}

std::vector<double> TuneRequest::resolved_band() const
{
    if (!band.empty()) return band;
    return tuning::paper_frequency_band(device);
}

telemetry::Json TuneRequest::to_json() const
{
    auto j = telemetry::Json::object();
    j["schema"] = "greensph.tune_request/v1";
    j["device"] = device_spec_json(device);
    auto b = telemetry::Json::array();
    for (double f : band) b.push_back(f);
    j["band"] = std::move(b);
    j["objective"] = objective;
    j["strategy"] = tuning::to_string(strategy);
    j["iterations"] = iterations;
    j["probe_iterations"] = model.probe_iterations;
    j["confirm_tolerance"] = model.confirm_tolerance;
    j["trace"] = trace.serialize();
    return j;
}

TuneRequest TuneRequest::from_json(const telemetry::Json& json)
{
    if (!json.is_object()) {
        throw std::invalid_argument("tune request: not a JSON object");
    }
    const std::string& schema = get_str(json, "schema", "request");
    if (schema != "greensph.tune_request/v1") {
        throw std::invalid_argument("request.schema is '" + schema +
                                    "' (expected greensph.tune_request/v1)");
    }
    TuneRequest req;
    if (!json.contains("device")) throw std::invalid_argument("request.device missing");
    req.device = device_spec_from_json(json.at("device"));
    if (json.contains("band")) {
        for (const auto& f : json.at("band").items()) {
            const double mhz = f.as_number();
            if (mhz <= 0.0) throw std::invalid_argument("request.band: clock <= 0");
            req.band.push_back(mhz);
        }
    }
    if (json.contains("objective")) req.objective = json.at("objective").as_string();
    if (req.objective != "edp") {
        throw std::invalid_argument("request.objective is '" + req.objective +
                                    "' (only 'edp' is supported)");
    }
    if (json.contains("strategy")) {
        req.strategy = tuning::sweep_strategy_from_string(json.at("strategy").as_string());
    }
    if (json.contains("iterations")) {
        req.iterations = static_cast<int>(json.at("iterations").as_number());
    }
    if (req.iterations < 1) throw std::invalid_argument("request.iterations < 1");
    if (json.contains("probe_iterations")) {
        req.model.probe_iterations =
            static_cast<int>(json.at("probe_iterations").as_number());
    }
    if (req.model.probe_iterations < 1) {
        throw std::invalid_argument("request.probe_iterations < 1");
    }
    if (json.contains("confirm_tolerance")) {
        req.model.confirm_tolerance = json.at("confirm_tolerance").as_number();
    }
    if (req.model.confirm_tolerance <= 0.0) {
        throw std::invalid_argument("request.confirm_tolerance <= 0");
    }
    req.trace = sim::WorkloadTrace::parse(get_str(json, "trace", "request"));
    if (req.trace.steps.empty()) throw std::invalid_argument("request.trace: no steps");
    return req;
}

RequestIdentity request_identity(const TuneRequest& request)
{
    auto j = telemetry::Json::object();
    j["schema"] = "greensph.tune_request/v1";
    j["device"] = device_spec_json(request.device);
    auto b = telemetry::Json::array();
    for (double f : request.resolved_band()) b.push_back(f);
    j["band"] = std::move(b);
    j["objective"] = request.objective;
    j["strategy"] = tuning::to_string(request.strategy);
    j["iterations"] = request.iterations;
    j["probe_iterations"] = request.model.probe_iterations;
    j["confirm_tolerance"] = request.model.confirm_tolerance;
    j["trace_hash"] = util::hex64(util::fnv1a64(request.trace.serialize()));
    RequestIdentity identity;
    identity.key = util::hex64(util::fnv1a64(j.dump()));
    identity.json = std::move(j);
    return identity;
}

std::string request_key(const TuneRequest& request)
{
    return request_identity(request).key;
}

std::string PolicyArtifact::dump() const
{
    auto j = telemetry::Json::object();
    j["schema"] = "greensph.policy/v1";
    j["key"] = key;
    j["request"] = identity;
    auto prov = telemetry::Json::object();
    prov["producer"] = producer;
    prov["sample_launches"] = sample_launches;
    if (!trace_id.empty()) prov["trace_id"] = trace_id;
    j["provenance"] = std::move(prov);
    j["default_mhz"] = default_mhz;
    auto fns = telemetry::Json::array();
    for (const auto& entry : functions) {
        auto f = telemetry::Json::object();
        f["fn"] = sph::to_string(entry.fn);
        f["best_edp_mhz"] = entry.best_edp_mhz;
        f["best_energy_mhz"] = entry.best_energy_mhz;
        f["predicted_edp"] = entry.predicted_edp;
        f["launches"] = entry.launches;
        f["model_fallback"] = entry.model_fallback;
        auto cands = telemetry::Json::array();
        for (double c : entry.candidates) cands.push_back(c);
        f["candidates"] = std::move(cands);
        fns.push_back(std::move(f));
    }
    j["functions"] = std::move(fns);
    return j.dump(2) + "\n";
}

PolicyArtifact PolicyArtifact::parse(const std::string& text)
{
    const telemetry::Json j = telemetry::Json::parse(text);
    const std::string& schema = get_str(j, "schema", "artifact");
    if (schema != "greensph.policy/v1") {
        throw std::invalid_argument("artifact.schema is '" + schema +
                                    "' (expected greensph.policy/v1)");
    }
    PolicyArtifact artifact;
    artifact.key = get_str(j, "key", "artifact");
    if (!j.contains("request")) throw std::invalid_argument("artifact.request missing");
    artifact.identity = j.at("request");
    if (j.contains("provenance")) {
        const telemetry::Json& prov = j.at("provenance");
        if (prov.contains("producer")) artifact.producer = prov.at("producer").as_string();
        if (prov.contains("trace_id")) {
            artifact.trace_id = prov.at("trace_id").as_string();
        }
        if (prov.contains("sample_launches")) {
            artifact.sample_launches =
                static_cast<long>(prov.at("sample_launches").as_number());
        }
    }
    artifact.default_mhz = get_num(j, "default_mhz", "artifact");
    if (!j.contains("functions")) {
        throw std::invalid_argument("artifact.functions missing");
    }
    for (const auto& f : j.at("functions").items()) {
        FunctionEntry entry;
        entry.fn = function_from_name(get_str(f, "fn", "artifact.functions[]"));
        entry.best_edp_mhz = get_num(f, "best_edp_mhz", "artifact.functions[]");
        entry.best_energy_mhz = get_num(f, "best_energy_mhz", "artifact.functions[]");
        entry.predicted_edp = get_num(f, "predicted_edp", "artifact.functions[]");
        if (f.contains("launches")) {
            entry.launches = static_cast<long>(f.at("launches").as_number());
        }
        if (f.contains("model_fallback")) {
            entry.model_fallback = f.at("model_fallback").as_bool();
        }
        if (f.contains("candidates")) {
            for (const auto& c : f.at("candidates").items()) {
                entry.candidates.push_back(c.as_number());
            }
        }
        artifact.functions.push_back(std::move(entry));
    }
    return artifact;
}

PolicyArtifact artifact_from_sweep(const TuneRequest& request,
                                   const RequestIdentity& identity,
                                   const std::vector<tuning::FunctionSweepEntry>& sweep,
                                   const std::string& producer,
                                   const std::string& trace_id)
{
    PolicyArtifact artifact;
    artifact.key = identity.key;
    artifact.identity = identity.json;
    artifact.producer = producer;
    artifact.trace_id = trace_id;
    artifact.default_mhz = request.device.default_app_clock_mhz;
    for (const auto& entry : sweep) {
        PolicyArtifact::FunctionEntry f;
        f.fn = entry.fn;
        f.best_edp_mhz = entry.best_edp_mhz;
        f.best_energy_mhz = entry.best_energy_mhz;
        f.predicted_edp = entry.result.chosen_or_best(tuning::Objective::kEdp).edp;
        f.launches = entry.result.launches;
        f.model_fallback = entry.result.model_fallback;
        for (const auto& config : entry.result.configs) {
            const auto it = config.params.find("core_freq_mhz");
            if (it != config.params.end()) f.candidates.push_back(it->second);
        }
        artifact.sample_launches += f.launches;
        artifact.functions.push_back(std::move(f));
    }
    return artifact;
}

core::FrequencyTable table_from_artifact(const PolicyArtifact& artifact)
{
    core::FrequencyTable table(artifact.default_mhz);
    for (const auto& entry : artifact.functions) {
        table.set(entry.fn, entry.best_edp_mhz);
    }
    return table;
}

core::ControllerAuditInfo audit_info_from_artifact(const PolicyArtifact& artifact)
{
    // Mirror of tuning::audit_info_from_sweep, reading the artifact instead
    // of the live sweep — the two must stay in lockstep for the bit-identical
    // policy-from-artifact guarantee.
    core::ControllerAuditInfo info;
    info.policy = "ManDyn";
    std::vector<double> candidates;
    for (const auto& entry : artifact.functions) {
        candidates.insert(candidates.end(), entry.candidates.begin(),
                          entry.candidates.end());
        if (!entry.candidates.empty()) {
            info.predicted_edp[static_cast<std::size_t>(entry.fn)] =
                entry.predicted_edp;
        }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    info.candidate_mhz = std::move(candidates);
    return info;
}

std::vector<std::string> artifact_mismatches(const PolicyArtifact& artifact,
                                             const RequestIdentity& local)
{
    std::vector<std::pair<std::string, std::string>> have;
    std::vector<std::pair<std::string, std::string>> want;
    flatten_json(artifact.identity, "", have);
    flatten_json(local.json, "", want);

    std::map<std::string, std::string> have_map(have.begin(), have.end());
    std::map<std::string, std::string> want_map(want.begin(), want.end());
    std::vector<std::string> lines;
    for (const auto& [path, value] : want_map) {
        const auto it = have_map.find(path);
        if (it == have_map.end()) {
            lines.push_back(path + ": missing from artifact (local " + value + ")");
        }
        else if (it->second != value) {
            lines.push_back(path + ": artifact " + it->second + ", local " + value);
        }
    }
    for (const auto& [path, value] : have_map) {
        if (want_map.find(path) == want_map.end()) {
            lines.push_back(path + ": artifact-only field (" + value + ")");
        }
    }
    return lines;
}

TuningService::TuningService(ServiceConfig config)
    : config_(std::move(config)), pool_(config_.n_threads),
      store_(PolicyStoreConfig{config_.store_dir, config_.cache_entries,
                               config_.store_ttl_s, config_.store_max_artifacts})
{
}

std::uint64_t TuningService::sweeps_run() const
{
    std::lock_guard<std::mutex> lock(sweeps_mutex_);
    return sweeps_;
}

std::string TuningService::tune(const TuneRequest& request, bool* cache_hit,
                                const TraceScope& scope)
{
    static telemetry::Counter& requests = service_counter("service.requests");
    static telemetry::Counter& cache_hits = service_counter("service.cache_hits");
    static telemetry::Counter& cache_misses = service_counter("service.cache_misses");
    static telemetry::Counter& coalesced = service_counter("service.coalesced");

    requests.inc();
    const RequestIdentity identity = request_identity(request);
    const std::string& key = identity.key;

    std::shared_future<std::string> shared;
    std::promise<std::string> promise;
    bool runner = false;
    {
        SpanGuard lookup(scope, "store.lookup");
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        const auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            shared = it->second;
        }
        else if (auto hit = store_.get(key)) {
            cache_hits.inc();
            if (cache_hit != nullptr) *cache_hit = true;
            return *hit;
        }
        else {
            shared = promise.get_future().share();
            inflight_[key] = shared;
            runner = true;
        }
    }

    if (!runner) {
        // Coalesced onto an in-flight identical sweep: no extra sweep runs,
        // which is what "cache hit" means for the dedup guarantee.
        coalesced.inc();
        cache_hits.inc();
        if (cache_hit != nullptr) *cache_hit = true;
        SpanGuard wait(scope, "singleflight.wait");
        return shared.get();
    }

    std::string text;
    try {
        text = run_sweep(request, identity, scope);
    }
    catch (...) {
        {
            std::lock_guard<std::mutex> lock(inflight_mutex_);
            inflight_.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
    {
        SpanGuard commit(scope, "artifact.commit");
        store_.put(key, text);
    }
    {
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        inflight_.erase(key);
    }
    promise.set_value(text);
    cache_misses.inc();
    if (cache_hit != nullptr) *cache_hit = false;
    return text;
}

std::string TuningService::run_sweep(const TuneRequest& request,
                                     const RequestIdentity& identity,
                                     const TraceScope& scope)
{
    static telemetry::Counter& sweeps = service_counter("service.sweeps");
    sweeps.inc();
    {
        std::lock_guard<std::mutex> lock(sweeps_mutex_);
        ++sweeps_;
    }

    const std::vector<tuning::SweepCandidate> candidates =
        tuning::sweep_candidates(request.trace);

    tuning::SweepOptions options;
    options.frequencies = request.resolved_band();
    options.strategy = request.strategy;
    options.iterations = request.iterations;
    options.model = request.model;

    // Shard per-function sweeps across the shared pool; concurrent requests
    // interleave fairly through its FIFO queue.  Collecting futures in
    // candidate order makes the merged sweep independent of scheduling.
    std::vector<std::future<tuning::FunctionSweepEntry>> futures;
    futures.reserve(candidates.size());
    for (const auto& candidate : candidates) {
        futures.push_back(pool_.submit([candidate, &request, &options, &scope] {
            SpanGuard sweep_span(scope,
                                 "sweep:" + std::string(sph::to_string(candidate.fn)));
            return tuning::sweep_one_function(candidate, request.device, options);
        }));
    }
    std::vector<tuning::FunctionSweepEntry> sweep;
    sweep.reserve(futures.size());
    for (auto& future : futures) sweep.push_back(future.get());

    return artifact_from_sweep(request, identity, sweep, config_.producer,
                               scope.active() ? scope.ctx.trace_id()
                                              : std::string{})
        .dump();
}

} // namespace gsph::service
