#include "sim/workload.hpp"

#include "sph/decomposition.hpp"

#include <array>
#include <charconv>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace gsph::sim {

const char* to_string(WorkloadKind kind)
{
    switch (kind) {
        case WorkloadKind::kSubsonicTurbulence: return "SubsonicTurbulence";
        case WorkloadKind::kEvrardCollapse: return "EvrardCollapse";
        case WorkloadKind::kSedovBlast: return "SedovBlast";
    }
    return "Unknown";
}

sph::SphSimulation make_simulation(const WorkloadSpec& spec)
{
    switch (spec.kind) {
        case WorkloadKind::kSubsonicTurbulence: {
            sph::TurbulenceParams p;
            p.nside = spec.real_nside;
            p.seed = spec.seed;
            return sph::make_subsonic_turbulence(p);
        }
        case WorkloadKind::kSedovBlast: {
            sph::SedovParams p;
            p.nside = spec.real_nside;
            p.seed = spec.seed;
            return sph::make_sedov_blast(p);
        }
        case WorkloadKind::kEvrardCollapse: break;
    }
    sph::EvrardParams p;
    p.n_particles = spec.real_nside * spec.real_nside * spec.real_nside;
    p.seed = spec.seed;
    return sph::make_evrard_collapse(p);
}

WorkloadTrace record_trace(const WorkloadSpec& spec, sph::StepDiagnostics* final_diag)
{
    if (spec.n_steps <= 0) throw std::invalid_argument("record_trace: n_steps <= 0");
    if (spec.particles_per_gpu <= 0.0) {
        throw std::invalid_argument("record_trace: particles_per_gpu <= 0");
    }

    sph::SphSimulation simulation = make_simulation(spec);

    WorkloadTrace trace;
    trace.workload_name = to_string(spec.kind);
    trace.kind = spec.kind;
    trace.n_particles_real = static_cast<double>(simulation.particles().size());
    trace.particles_per_gpu = spec.particles_per_gpu;
    trace.steps.reserve(static_cast<std::size_t>(spec.n_steps));

    for (int s = 0; s < spec.n_steps; ++s) {
        StepRecord record;
        simulation.step([&record](sph::SphFunction fn, const gpusim::KernelWork& work) {
            record.functions.push_back(FunctionRecord{fn, work});
        });
        trace.steps.push_back(std::move(record));
    }
    // Measure the halo surface of an SFC decomposition of the final state
    // (8 parts; the prefactor is scale-invariant).  Caveat: at laptop-sized
    // parts nearly every particle sits on the surface, so this bounds the
    // prefactor from below.
    const auto decomp = sph::analyze_sfc_decomposition(simulation, 8);
    trace.halo_surface_prefactor = decomp.surface_prefactor;
    if (final_diag) *final_diag = simulation.diagnostics();
    return trace;
}

double WorkloadTrace::total_flops() const
{
    double total = 0.0;
    for (const auto& step : steps) {
        for (const auto& f : step.functions) total += f.work.flops;
    }
    return total;
}

namespace {

/// Appends `value` and `sep`.  Doubles print as `%.17g` (general format,
/// precision 17), integers plainly: the text an ostream with precision 17
/// writes, without its per-field formatting cost.
template <typename T>
void append_field(std::string& out, T value, char sep)
{
    char buf[32];
    std::to_chars_result result{};
    if constexpr (std::is_floating_point_v<T>) {
        result = std::to_chars(buf, buf + sizeof(buf), value,
                               std::chars_format::general, 17);
    }
    else {
        result = std::to_chars(buf, buf + sizeof(buf), value);
    }
    out.append(buf, result.ptr);
    out += sep;
}

} // namespace

std::string WorkloadTrace::serialize() const
{
    std::string out = "# greensph workload trace v1\nworkload," + workload_name + "\nkind,";
    out.reserve(256 + steps.size() * 1024); // a step's rows take under 1 KB
    append_field(out, static_cast<int>(kind), '\n');
    out += "n_particles_real,";
    append_field(out, n_particles_real, '\n');
    out += "particles_per_gpu,";
    append_field(out, particles_per_gpu, '\n');
    out += "halo_surface_prefactor,";
    append_field(out, halo_surface_prefactor, '\n');
    out += "step,function,flops,dram_bytes,gather_fraction,flop_efficiency,launches,"
           "threads\n";
    for (std::size_t s = 0; s < steps.size(); ++s) {
        for (const auto& fr : steps[s].functions) {
            append_field(out, s, ',');
            append_field(out, static_cast<int>(fr.fn), ',');
            append_field(out, fr.work.flops, ',');
            append_field(out, fr.work.dram_bytes, ',');
            append_field(out, fr.work.gather_fraction, ',');
            append_field(out, fr.work.flop_efficiency, ',');
            append_field(out, fr.work.launches, ',');
            append_field(out, fr.work.threads, '\n');
        }
    }
    return out;
}

namespace {

[[noreturn]] void parse_fail(int line_no, const std::string& what, std::string_view value)
{
    throw std::invalid_argument("WorkloadTrace::parse: line " +
                                std::to_string(line_no) + ": bad " + what + " '" +
                                std::string(value) + "'");
}

/// All of `s` as a number, or a line-numbered parse error.  std::from_chars
/// reads exactly what serialize() writes (subnormals, signed zeros and
/// infinities included) and takes no leading whitespace, '+' or hex.
template <typename T>
T parse_number(std::string_view s, int line_no, const char* what)
{
    T value{};
    const char* end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, value);
    if (ec != std::errc{} || ptr != end) parse_fail(line_no, what, s);
    return value;
}

/// Splits `line` at `delim` as repeated std::getline calls would (a trailing
/// delimiter starts no empty field), keeping the first N fields; returns the
/// field count, which exceeds N when the line has more.
template <std::size_t N>
std::size_t split_fields(std::string_view line, char delim,
                         std::array<std::string_view, N>& fields)
{
    std::size_t count = 0;
    while (!line.empty()) {
        const std::size_t cut = line.find(delim);
        if (count < N) fields[count] = line.substr(0, cut);
        ++count;
        if (cut == std::string_view::npos) break;
        line.remove_prefix(cut + 1);
    }
    return count;
}

/// Reads `text` line by line as std::getline does: a last line needs no
/// newline, and a final newline starts no empty line.
class LineReader {
public:
    explicit LineReader(std::string_view text) : rest_(text) {}

    bool next(std::string_view& line)
    {
        if (rest_.empty()) return false;
        const std::size_t cut = rest_.find('\n');
        line = rest_.substr(0, cut);
        rest_.remove_prefix(cut == std::string_view::npos ? rest_.size() : cut + 1);
        return true;
    }

private:
    std::string_view rest_;
};

} // namespace

WorkloadTrace WorkloadTrace::parse(const std::string& text)
{
    LineReader lines(text);
    std::string_view line;
    int line_no = 1;
    if (!lines.next(line) || line != "# greensph workload trace v1") {
        throw std::invalid_argument("WorkloadTrace::parse: bad magic line");
    }
    WorkloadTrace trace;
    auto expect_field = [&](const char* key) -> std::string_view {
        if (!lines.next(line)) {
            throw std::invalid_argument(std::string("WorkloadTrace::parse: missing ") +
                                        key);
        }
        ++line_no;
        std::array<std::string_view, 2> parts;
        if (split_fields(line, ',', parts) != 2 || parts[0] != key) {
            throw std::invalid_argument("WorkloadTrace::parse: expected '" +
                                        std::string(key) + "', got '" + std::string(line) +
                                        "'");
        }
        return parts[1];
    };
    trace.workload_name = std::string(expect_field("workload"));
    // expect_field advances line_no, so grab the text before parsing it
    // (argument evaluation order would otherwise be unspecified).
    const std::string_view kind_text = expect_field("kind");
    const auto kind_id = parse_number<long long>(kind_text, line_no, "kind");
    if (kind_id < 0 || kind_id > static_cast<long long>(WorkloadKind::kSedovBlast)) {
        parse_fail(line_no, "kind", std::to_string(kind_id));
    }
    trace.kind = static_cast<WorkloadKind>(kind_id);
    const std::string_view n_particles_text = expect_field("n_particles_real");
    trace.n_particles_real =
        parse_number<double>(n_particles_text, line_no, "n_particles_real");
    const std::string_view per_gpu_text = expect_field("particles_per_gpu");
    trace.particles_per_gpu =
        parse_number<double>(per_gpu_text, line_no, "particles_per_gpu");
    const std::string_view halo_text = expect_field("halo_surface_prefactor");
    trace.halo_surface_prefactor =
        parse_number<double>(halo_text, line_no, "halo_surface_prefactor");
    if (!lines.next(line) || !line.starts_with("step,function,")) {
        throw std::invalid_argument("WorkloadTrace::parse: missing column header");
    }
    ++line_no;
    while (lines.next(line)) {
        ++line_no;
        if (line.empty()) continue;
        std::array<std::string_view, 8> parts;
        if (split_fields(line, ',', parts) != parts.size()) {
            throw std::invalid_argument("WorkloadTrace::parse: line " +
                                        std::to_string(line_no) + ": bad row '" +
                                        std::string(line) + "'");
        }
        // Step indices must grow contiguously (each row belongs to the
        // current or the next step).  Without this check a single corrupt
        // index like 4000000000 makes the resize below allocate gigabytes.
        const auto step_id = parse_number<long long>(parts[0], line_no, "step index");
        if (step_id < 0 || step_id > static_cast<long long>(trace.steps.size())) {
            throw std::invalid_argument(
                "WorkloadTrace::parse: line " + std::to_string(line_no) +
                ": non-contiguous step index " + std::string(parts[0]) + " (expected <= " +
                std::to_string(trace.steps.size()) + ")");
        }
        const std::size_t step = static_cast<std::size_t>(step_id);
        if (step == trace.steps.size()) trace.steps.emplace_back();
        const auto fn_id = parse_number<long long>(parts[1], line_no, "function id");
        if (fn_id < 0 || fn_id >= sph::kSphFunctionCount) {
            throw std::invalid_argument("WorkloadTrace::parse: line " +
                                        std::to_string(line_no) + ": bad function id " +
                                        std::string(parts[1]));
        }
        FunctionRecord fr;
        fr.fn = static_cast<sph::SphFunction>(fn_id);
        fr.work.flops = parse_number<double>(parts[2], line_no, "flops");
        fr.work.dram_bytes = parse_number<double>(parts[3], line_no, "dram_bytes");
        fr.work.gather_fraction = parse_number<double>(parts[4], line_no, "gather_fraction");
        fr.work.flop_efficiency = parse_number<double>(parts[5], line_no, "flop_efficiency");
        fr.work.launches = parse_number<std::int64_t>(parts[6], line_no, "launches");
        fr.work.threads = parse_number<std::int64_t>(parts[7], line_no, "threads");
        trace.steps[step].functions.push_back(std::move(fr));
    }
    if (trace.steps.empty()) {
        throw std::invalid_argument("WorkloadTrace::parse: no steps");
    }
    return trace;
}

} // namespace gsph::sim
