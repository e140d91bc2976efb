#include "telemetry/run_tracer.hpp"

#include "checkpoint/state.hpp"
#include "sim/driver.hpp"
#include "sim/workload.hpp"
#include "telemetry/json.hpp"
#include "telemetry/run_summary.hpp"
#include "telemetry/tracer.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>

namespace gsph::telemetry {
namespace {

/// The renderer SpanTracer used before it wrote events directly: build a
/// Json array of event objects, then dump it.  Kept as the reference that
/// to_chrome_json() must match byte for byte.
std::string reference_chrome_json(const std::vector<TraceEvent>& events)
{
    Json array = Json::array();
    for (const TraceEvent& e : events) {
        Json obj = Json::object();
        obj["name"] = e.name;
        if (!e.category.empty()) obj["cat"] = e.category;
        obj["ph"] = std::string(1, e.phase);
        obj["ts"] = e.time_s * 1e6; // trace-event format: microseconds
        obj["pid"] = e.pid;
        obj["tid"] = e.tid;
        if (e.phase == 'C') {
            Json args = Json::object();
            args["value"] = e.counter_value;
            obj["args"] = std::move(args);
        }
        else if (e.phase == 'M') {
            Json args = Json::object();
            args["name"] = e.metadata;
            obj["args"] = std::move(args);
        }
        else if (e.phase == 'i') {
            obj["s"] = "t"; // thread-scoped instant
        }
        if (!e.args.empty() && e.phase != 'C' && e.phase != 'M') {
            Json args = Json::object();
            for (const auto& [key, value] : e.args) args[key] = value;
            obj["args"] = std::move(args);
        }
        array.push_back(std::move(obj));
    }
    return array.dump();
}

/// The tracer as it was before it stored events by column: a TraceEvent per
/// event, interned into columns afresh at every save.  Kept as the
/// reference that SpanTracer's saves and renders must match byte for byte.
class ReferenceTracer {
public:
    using Args = std::vector<std::pair<std::string, std::string>>;

    void begin(int pid, int tid, const std::string& name, double t_s,
               const std::string& category, Args args)
    {
        ++open_[{pid, tid}];
        TraceEvent e;
        e.name = name;
        e.category = category;
        e.phase = 'B';
        e.time_s = t_s;
        e.pid = pid;
        e.tid = tid;
        e.args = std::move(args);
        events_.push_back(std::move(e));
    }
    void end(int pid, int tid, double t_s)
    {
        --open_.at({pid, tid});
        TraceEvent e;
        e.phase = 'E';
        e.time_s = t_s;
        e.pid = pid;
        e.tid = tid;
        events_.push_back(std::move(e));
    }
    void counter(int pid, const std::string& name, double t_s, double value)
    {
        TraceEvent e;
        e.name = name;
        e.phase = 'C';
        e.time_s = t_s;
        e.pid = pid;
        e.counter_value = value;
        events_.push_back(std::move(e));
    }
    void instant(int pid, int tid, const std::string& name, double t_s, Args args)
    {
        TraceEvent e;
        e.name = name;
        e.phase = 'i';
        e.time_s = t_s;
        e.pid = pid;
        e.tid = tid;
        e.args = std::move(args);
        events_.push_back(std::move(e));
    }
    void set_name(int pid, int tid, bool process, const std::string& name)
    {
        TraceEvent e;
        e.name = process ? "process_name" : "thread_name";
        e.phase = 'M';
        e.pid = pid;
        e.tid = process ? 0 : tid;
        e.metadata = name;
        events_.push_back(std::move(e));
    }
    int open_spans(int pid, int tid) const
    {
        const auto it = open_.find({pid, tid});
        return it == open_.end() ? 0 : it->second;
    }

    const std::vector<TraceEvent>& events() const { return events_; }

    void save_state(checkpoint::StateWriter& writer) const
    {
        std::vector<std::string_view> table;
        std::unordered_map<std::string_view, std::uint64_t> index;
        const auto intern = [&](const std::string& s) {
            const auto [it, inserted] = index.try_emplace(s, table.size());
            if (inserted) table.push_back(s);
            return it->second;
        };
        std::string phases;
        std::vector<std::uint64_t> names, categories, n_args, args, time_runs, metadata;
        std::vector<std::int64_t> pids, tids;
        std::vector<double> times, values;
        std::uint64_t last_time_bits = 0;
        for (const TraceEvent& e : events_) {
            phases.push_back(e.phase);
            names.push_back(intern(e.name));
            categories.push_back(intern(e.category));
            pids.push_back(e.pid);
            tids.push_back(e.tid);
            n_args.push_back(e.args.size());
            for (const auto& [key, value] : e.args) {
                args.push_back(intern(key));
                args.push_back(intern(value));
            }
            std::uint64_t bits = 0;
            std::memcpy(&bits, &e.time_s, sizeof(bits));
            if (!time_runs.empty() && bits == last_time_bits) {
                ++time_runs.back();
            }
            else {
                times.push_back(e.time_s);
                time_runs.push_back(1);
                last_time_bits = bits;
            }
            if (e.phase == 'C') values.push_back(e.counter_value);
            if (e.phase == 'M') metadata.push_back(intern(e.metadata));
        }
        writer.put_u64("strings", table.size());
        for (std::size_t i = 0; i < table.size(); ++i) {
            writer.put_str("str." + std::to_string(i), table[i]);
        }
        writer.put_str("ev.ph", phases);
        writer.put_u64_vec("ev.name", names);
        writer.put_u64_vec("ev.cat", categories);
        writer.put_i64_vec("ev.pid", pids);
        writer.put_i64_vec("ev.tid", tids);
        writer.put_f64_vec("ev.t", times);
        writer.put_u64_vec("ev.trun", time_runs);
        writer.put_f64_vec("ev.cv", values);
        writer.put_u64_vec("ev.md", metadata);
        writer.put_u64_vec("ev.nargs", n_args);
        writer.put_u64_vec("ev.args", args);
        std::vector<std::int64_t> open;
        for (const auto& [track, depth] : open_) {
            open.push_back(track.first);
            open.push_back(track.second);
            open.push_back(depth);
        }
        writer.put_i64_vec("open", open);
    }

private:
    std::vector<TraceEvent> events_;
    std::map<std::pair<int, int>, int> open_;
};

/// Records one random stream into both tracers: every phase, args with
/// repeated keys and strings that need escaping in JSON or in the
/// checkpoint, -0.0, NaN, +-inf, several pids and tids, and runs of equal
/// timestamps.
class RandomStream {
public:
    explicit RandomStream(std::uint64_t seed) : rng_(seed) {}

    void record(int n, SpanTracer& tracer, ReferenceTracer& reference)
    {
        for (int k = 0; k < n; ++k) record_one(tracer, reference);
    }

private:
    std::size_t pick(std::size_t n) { return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_); }

    const std::string& word() { return words_[pick(words_.size())]; }

    double number()
    {
        const double special[] = {0.0,
                                  -0.0,
                                  1.0,
                                  0.1,
                                  -2.5e15,
                                  1e300,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity()};
        if (pick(3) == 0) return std::uniform_real_distribution<double>(-1e4, 1e4)(rng_);
        return special[pick(std::size(special))];
    }

    /// Mostly the previous time again, so runs of bit-equal times form.
    double time()
    {
        if (pick(3) != 0) return time_;
        time_ = pick(8) == 0 ? number() : time_ + 0.125 * static_cast<double>(pick(4));
        return time_;
    }

    ReferenceTracer::Args args()
    {
        ReferenceTracer::Args out;
        const std::size_t n = pick(4);
        for (std::size_t i = 0; i < n; ++i) {
            // A small key pool makes repeated keys common.
            out.emplace_back(keys_[pick(std::size(keys_))], word());
        }
        return out;
    }

    void record_one(SpanTracer& tracer, ReferenceTracer& reference)
    {
        const int pid = pids_[pick(std::size(pids_))];
        const int tid = tids_[pick(std::size(tids_))];
        switch (pick(6)) {
            case 0: {
                const std::string& name = word();
                const std::string& category = pick(2) == 0 ? word() : empty_;
                const double t = time();
                const ReferenceTracer::Args a = args();
                reference.begin(pid, tid, name, t, category, a);
                record_with_args(a, [&](SpanTracer::Args view) {
                    tracer.begin(pid, tid, name, t, category, view);
                });
                return;
            }
            case 1: {
                if (reference.open_spans(pid, tid) == 0) return;
                const double t = time();
                reference.end(pid, tid, t);
                tracer.end(pid, tid, t);
                return;
            }
            case 2:
            case 3: {
                const std::string& name = word();
                const double t = time();
                const double v = number();
                reference.counter(pid, name, t, v);
                tracer.counter(pid, name, t, v);
                return;
            }
            case 4: {
                const std::string& name = word();
                const double t = time();
                const ReferenceTracer::Args a = args();
                reference.instant(pid, tid, name, t, a);
                record_with_args(a, [&](SpanTracer::Args view) {
                    tracer.instant(pid, tid, name, t, view);
                });
                return;
            }
            default: {
                const std::string& name = word();
                const bool process = pick(2) == 0;
                reference.set_name(pid, tid, process, name);
                if (process) {
                    tracer.set_process_name(pid, name);
                }
                else {
                    tracer.set_thread_name(pid, tid, name);
                }
                return;
            }
        }
    }

    /// SpanTracer takes args as an initializer list; pass up to three.
    template <typename Record>
    static void record_with_args(const ReferenceTracer::Args& a, Record record)
    {
        using P = std::pair<std::string_view, std::string_view>;
        switch (a.size()) {
            case 0: record({}); return;
            case 1: record({P(a[0].first, a[0].second)}); return;
            case 2: record({P(a[0].first, a[0].second), P(a[1].first, a[1].second)}); return;
            default:
                record({P(a[0].first, a[0].second), P(a[1].first, a[1].second),
                        P(a[2].first, a[2].second)});
                return;
        }
    }

    std::mt19937_64 rng_;
    double time_ = 0.0;
    const std::string empty_;
    const std::vector<std::string> words_ = {
        "Density",       "IADVelocityDivCurl", "",         "step 7",
        "quote\"back\\", "line\nbreak\ttab",   "100%=done", std::string("nul\0byte", 8),
        "\xff\xfe bad",   "\xcf\x80 pi",          "\x01\x1f",  "applied_clock_mhz"};
    const char* keys_[3] = {"trace_id", "span_id", "k=v%"};
    const int pids_[4] = {0, 1, 7, -1};
    const int tids_[3] = {0, 1, 3};
};

std::string save(const SpanTracer& tracer)
{
    checkpoint::StateWriter writer;
    tracer.save_state(writer);
    return writer.take();
}

std::string save(const ReferenceTracer& tracer)
{
    checkpoint::StateWriter writer;
    tracer.save_state(writer);
    return writer.take();
}

/// Every event kind, both category cases, a repeated args key, strings that
/// need escaping and numbers on each branch of the number encoder.
void record_awkward_events(SpanTracer& tracer)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    tracer.set_process_name(0, "rank \"0\" \\ main");
    tracer.set_thread_name(0, 0, "gpu\ttimeline\x01\x1f");
    tracer.set_process_name(-1, std::string("nul\0byte", 8));
    tracer.begin(0, 0, "step 0", 0.0, "step");
    tracer.begin(0, 0, "Density", -0.0, "", // equal to 0.0, but not bit-equal
                 {{"trace_id", "abc"}, {"k", "line\nbreak"}, {"trace_id", "def"}});
    tracer.counter(0, "neg_zero", 1.0, -0.0);
    tracer.counter(0, "nan", 1.0, nan);
    tracer.counter(0, "inf", 1.0, -inf);
    tracer.counter(0, "huge", 1.0, 2.5e15);
    tracer.counter(0, "int", 1.0, 1410.0);
    tracer.counter(0, "frac", 1.0, 0.1);
    tracer.counter(0, "below_cutover", 1.0, -999999999999999.0);
    tracer.instant(0, 0, "bad utf8 \xff\xfe \xe2\x9c end", 1e-7,
                   {{"utf8", "\xcf\x80 \xe2\x9c\x93"}, {"bad", "\xc0\xaf"}});
    tracer.instant(0, 1, "plain", 3e9, {});
    tracer.end(0, 0, inf);
    tracer.begin(3, 2, "nan span", nan, "cat\\x");
    tracer.end(3, 2, 1e300);
    tracer.end(0, 0, 2.0);
}

TEST(SpanTracer, NestedSpansBalance)
{
    SpanTracer tracer;
    tracer.begin(0, 0, "step 0", 1.0, "step");
    tracer.begin(0, 0, "Density", 1.1, "sph");
    EXPECT_EQ(tracer.open_spans(0, 0), 2);
    tracer.end(0, 0, 1.5);
    tracer.end(0, 0, 2.0);
    EXPECT_EQ(tracer.open_spans(0, 0), 0);
    EXPECT_EQ(tracer.event_count(), 4u);
}

TEST(SpanTracer, EndWithoutOpenSpanThrows)
{
    SpanTracer tracer;
    EXPECT_THROW(tracer.end(0, 0, 1.0), std::logic_error);
    tracer.begin(1, 0, "x", 0.0);
    EXPECT_THROW(tracer.end(0, 0, 1.0), std::logic_error); // different pid
}

TEST(SpanTracer, SpansTrackPerPidTid)
{
    SpanTracer tracer;
    tracer.begin(0, 0, "a", 0.0);
    tracer.begin(1, 0, "b", 0.0);
    EXPECT_EQ(tracer.open_spans(0, 0), 1);
    EXPECT_EQ(tracer.open_spans(1, 0), 1);
    tracer.end(1, 0, 1.0);
    EXPECT_EQ(tracer.open_spans(0, 0), 1);
    EXPECT_EQ(tracer.open_spans(1, 0), 0);
}

TEST(SpanTracer, ChromeJsonShape)
{
    SpanTracer tracer;
    tracer.set_process_name(0, "rank 0");
    tracer.set_thread_name(0, 0, "gpu timeline");
    tracer.begin(0, 0, "Density", 0.5, "sph");
    tracer.end(0, 0, 1.5);
    tracer.counter(0, "clock_mhz", 1.5, 1410.0);
    tracer.instant(0, 0, "converged", 2.0);

    const Json doc = Json::parse(tracer.to_chrome_json());
    ASSERT_TRUE(doc.is_array());
    ASSERT_EQ(doc.size(), 6u);

    const Json& meta = doc.at(0);
    EXPECT_EQ(meta.at("ph").as_string(), "M");
    EXPECT_EQ(meta.at("args").at("name").as_string(), "rank 0");

    const Json& begin = doc.at(2);
    EXPECT_EQ(begin.at("ph").as_string(), "B");
    EXPECT_EQ(begin.at("name").as_string(), "Density");
    EXPECT_EQ(begin.at("cat").as_string(), "sph");
    EXPECT_EQ(begin.at("pid").as_number(), 0.0);
    EXPECT_EQ(begin.at("tid").as_number(), 0.0);
    EXPECT_DOUBLE_EQ(begin.at("ts").as_number(), 0.5e6); // seconds -> us

    const Json& end = doc.at(3);
    EXPECT_EQ(end.at("ph").as_string(), "E");
    EXPECT_DOUBLE_EQ(end.at("ts").as_number(), 1.5e6);

    const Json& counter = doc.at(4);
    EXPECT_EQ(counter.at("ph").as_string(), "C");
    EXPECT_EQ(counter.at("name").as_string(), "clock_mhz");
    EXPECT_DOUBLE_EQ(counter.at("args").at("value").as_number(), 1410.0);

    EXPECT_EQ(doc.at(5).at("ph").as_string(), "i");
}

TEST(SpanTracer, ChromeJsonMatchesDomRendererByteForByte)
{
    SpanTracer empty;
    EXPECT_EQ(empty.to_chrome_json(), "[]");
    EXPECT_EQ(empty.to_chrome_json(), reference_chrome_json(empty.events()));

    SpanTracer tracer;
    record_awkward_events(tracer);
    const std::string json = tracer.to_chrome_json();
    EXPECT_EQ(json, reference_chrome_json(tracer.events()));
    // The repeated key keeps its first position and its last value.
    EXPECT_NE(json.find("\"args\":{\"trace_id\":\"def\",\"k\":\"line\\nbreak\"}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"ts\":-0,"), std::string::npos) << json;
    EXPECT_EQ(Json::parse(json).size(), tracer.event_count());
}

TEST(SpanTracer, CheckpointRoundTripsEveryField)
{
    SpanTracer tracer;
    record_awkward_events(tracer);
    tracer.begin(5, 0, "left open", 4.0, "step", {{"why", "checkpointed mid-span"}});
    checkpoint::StateWriter writer;
    tracer.save_state(writer);

    SpanTracer restored;
    restored.begin(9, 9, "discarded by the restore", 0.0);
    restored.restore_state(checkpoint::StateReader("runtracer", writer.str()));
    EXPECT_EQ(restored.to_chrome_json(), tracer.to_chrome_json());
    EXPECT_EQ(restored.event_count(), tracer.event_count());
    EXPECT_EQ(restored.open_spans(5, 0), 1);
    EXPECT_EQ(restored.open_spans(3, 2), 0);
    EXPECT_EQ(restored.open_spans(9, 9), 0);
    restored.end(5, 0, 5.0);
    EXPECT_THROW(restored.end(5, 0, 6.0), std::logic_error);

    // Saving the restored tracer gives the same section back.
    checkpoint::StateWriter again;
    SpanTracer second;
    second.restore_state(checkpoint::StateReader("runtracer", writer.str()));
    second.save_state(again);
    EXPECT_EQ(again.str(), writer.str());
}

TEST(SpanTracer, SavesAndRenderMatchTheEventTracerOnRandomStreams)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RandomStream stream(seed);
        SpanTracer tracer;
        ReferenceTracer reference;
        // Saves at several points: each encodes only what is new, and each
        // must equal a save that encodes everything.
        for (const int n : {0, 1, 7, 40, 3, 150}) {
            stream.record(n, tracer, reference);
            ASSERT_EQ(save(tracer), save(reference));
            ASSERT_EQ(tracer.to_chrome_json(), reference_chrome_json(reference.events()));
        }
        EXPECT_EQ(tracer.event_count(), reference.events().size());
    }
}

TEST(SpanTracer, RestoredTracerContinuesAsAnUninterruptedOne)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RandomStream stream(seed);
        SpanTracer uninterrupted;
        ReferenceTracer reference;
        stream.record(60, uninterrupted, reference);
        const std::string first = save(uninterrupted);

        // A resumed run: restore into a tracer whose saves kept text of
        // other events, then record the same events as the uninterrupted one.
        SpanTracer resumed;
        ReferenceTracer discarded;
        RandomStream(seed + 500).record(30, resumed, discarded);
        save(resumed);
        resumed.restore_state(checkpoint::StateReader("runtracer", first));
        ReferenceTracer resumed_reference = reference; // same open spans
        RandomStream after_a(seed + 1000);
        RandomStream after_b(seed + 1000);
        after_a.record(80, uninterrupted, reference);
        after_b.record(80, resumed, resumed_reference);
        EXPECT_EQ(save(resumed), save(uninterrupted));
        EXPECT_EQ(save(resumed), save(reference));
        EXPECT_EQ(resumed.to_chrome_json(), uninterrupted.to_chrome_json());

        // clear() drops the saved text along with the events.
        resumed.clear();
        EXPECT_EQ(save(resumed), save(ReferenceTracer()));
    }
}

TEST(SpanTracer, RestoreRejectsMalformedColumns)
{
    const std::string valid = "strings=2\nstr.0=a\nstr.1=\nev.ph=BC\nev.name=0 0\n"
                              "ev.cat=1 1\nev.pid=0 0\nev.tid=0 0\n"
                              "ev.t=x0000000000000000\nev.trun=2\n"
                              "ev.cv=x3ff0000000000000\nev.md=\nev.nargs=1 0\n"
                              "ev.args=0 1\nopen=0 0 1\n";
    SpanTracer tracer;
    tracer.restore_state(checkpoint::StateReader("runtracer", valid));
    EXPECT_EQ(tracer.to_chrome_json(),
              "[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":0,\"tid\":0,"
              "\"args\":{\"a\":\"\"}},{\"name\":\"a\",\"ph\":\"C\",\"ts\":0,"
              "\"pid\":0,\"tid\":0,\"args\":{\"value\":1}}]");
    EXPECT_EQ(tracer.open_spans(0, 0), 1);

    const auto with = [&](const std::string& line, const std::string& replacement) {
        std::string payload = valid;
        const std::size_t at = payload.find(line);
        EXPECT_NE(at, std::string::npos) << line;
        return payload.replace(at, line.size(), replacement);
    };
    const std::vector<std::string> broken = {
        with("ev.ph=BC\n", "ev.ph=BQ\n"),               // unknown phase
        with("ev.name=0 0\n", "ev.name=0 2\n"),         // past the string table
        with("ev.pid=0 0\n", "ev.pid=0\n"),             // column too short
        with("ev.cat=1 1\n", "ev.cat=1 1 1\n"),         // column too long
        with("ev.tid=0 0\n", "ev.tid=0 4294967296\n"),  // not an int
        with("ev.trun=2\n", "ev.trun=3\n"),             // runs past the events
        with("ev.trun=2\n", "ev.trun=1\n"),             // runs short of the events
        with("ev.t=x0000000000000000\nev.trun=2\n",
             "ev.t=x0000000000000000 x0000000000000000\nev.trun=0 2\n"), // empty run
        with("ev.t=x0000000000000000\n", "ev.t=\n"),    // run without a time
        with("ev.cv=x3ff0000000000000\n", "ev.cv=\n"),  // counter without a value
        with("ev.md=\n", "ev.md=0\n"),                  // metadata without an 'M' event
        with("ev.args=0 1\n", "ev.args=0\n"),           // fewer pairs than counted
        with("ev.args=0 1\n", "ev.args=0 1 1 0\n"),     // more pairs than counted
        with("open=0 0 1\n", "open=0 0\n"),             // not triples
        with("open=0 0 1\n", "open=0 0 -1\n"),          // negative depth
        with("str.1=\n", ""),                           // string table entry missing
    };
    for (const std::string& payload : broken) {
        SpanTracer victim;
        EXPECT_THROW(victim.restore_state(checkpoint::StateReader("runtracer", payload)),
                     checkpoint::CheckpointError)
            << payload;
    }
}

TEST(SpanTracer, ClearDropsEventsAndOpenSpans)
{
    SpanTracer tracer;
    tracer.begin(0, 0, "a", 0.0);
    tracer.clear();
    EXPECT_EQ(tracer.event_count(), 0u);
    EXPECT_EQ(tracer.open_spans(0, 0), 0);
    EXPECT_THROW(tracer.end(0, 0, 1.0), std::logic_error);
}

TEST(RunTracer, RejectsNonPositiveRankCount)
{
    EXPECT_THROW(RunTracer(0), std::invalid_argument);
    EXPECT_THROW(RunTracer(-3), std::invalid_argument);
}

class RunTracerIntegration : public ::testing::Test {
protected:
    static sim::WorkloadTrace small_trace(int n_steps)
    {
        sim::WorkloadSpec spec;
        spec.kind = sim::WorkloadKind::kSubsonicTurbulence;
        spec.particles_per_gpu = 1e6;
        spec.n_steps = n_steps;
        spec.real_nside = 6;
        return sim::record_trace(spec);
    }
};

TEST_F(RunTracerIntegration, TracesEveryRankAndStep)
{
    const auto trace = small_trace(2);
    sim::RunConfig cfg;
    cfg.n_ranks = 2;
    cfg.n_steps = 2;

    RunTracer tracer(cfg.n_ranks);
    sim::RunHooks hooks;
    tracer.attach(hooks);
    const auto result = sim::run_instrumented(sim::mini_hpc(), trace, cfg, hooks);
    ASSERT_GT(result.loop_end_s, 0.0);

    // Every span closed on every rank.
    for (int r = 0; r < cfg.n_ranks; ++r) {
        EXPECT_EQ(tracer.tracer().open_spans(r, 0), 0) << "rank " << r;
    }

    int step_spans = 0;
    std::set<int> pids;
    int begins = 0, ends = 0, counters = 0;
    for (const auto& e : tracer.tracer().events()) {
        pids.insert(e.pid);
        if (e.phase == 'B') {
            ++begins;
            if (e.category == "step") ++step_spans;
        }
        else if (e.phase == 'E') ++ends;
        else if (e.phase == 'C') ++counters;
    }
    EXPECT_EQ(begins, ends);
    EXPECT_EQ(step_spans, cfg.n_ranks * cfg.n_steps); // "step N" per rank
    EXPECT_EQ(pids, (std::set<int>{0, 1}));
    EXPECT_GT(counters, 0); // clock/power/energy tracks

    // The whole trace is valid Chrome-trace JSON.
    const Json doc = Json::parse(tracer.tracer().to_chrome_json());
    ASSERT_TRUE(doc.is_array());
    EXPECT_EQ(doc.size(), tracer.tracer().event_count());
}

TEST(RunTracer, CheckpointKeepsSpanArgs)
{
    // Args recorded through the tracer (distributed-trace ids, say) must
    // survive a checkpoint: the resumed --trace-json has to show them too.
    RunTracer tracer(2);
    tracer.tracer().begin(1, 0, "policy.fetch", 0.25, "service",
                          {{"trace_id", "4bf92f3577b34da6a3ce929d0e0e4736"}});
    tracer.tracer().instant(1, 0, "artifact applied", 0.5, {{"key", "k1"}, {"n", "2"}});
    checkpoint::StateWriter writer;
    tracer.save_state(writer);

    RunTracer restored(2);
    restored.restore_state(checkpoint::StateReader("runtracer", writer.str()));
    const std::string json = restored.tracer().to_chrome_json();
    EXPECT_EQ(json, tracer.tracer().to_chrome_json());
    EXPECT_NE(json.find("\"trace_id\":\"4bf92f3577b34da6a3ce929d0e0e4736\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"s\":\"t\",\"args\":{\"key\":\"k1\",\"n\":\"2\"}"),
              std::string::npos)
        << json;
    EXPECT_EQ(restored.tracer().open_spans(1, 0), 1);
}

TEST_F(RunTracerIntegration, CounterSeriesReplaysTimeSeries)
{
    RunTracer tracer(1);
    util::TimeSeries series("clock");
    series.append(0.0, 1005.0);
    series.append(1.0, 1410.0);
    tracer.add_counter_series(0, "governor_clock_mhz", series);

    int matched = 0;
    for (const auto& e : tracer.tracer().events()) {
        if (e.phase == 'C' && e.name == "governor_clock_mhz") ++matched;
    }
    EXPECT_EQ(matched, 2);
}

TEST_F(RunTracerIntegration, RunSummaryMatchesRunResult)
{
    const auto trace = small_trace(2);
    sim::RunConfig cfg;
    cfg.n_ranks = 1;
    cfg.n_steps = 2;
    const auto result = sim::run_instrumented(sim::mini_hpc(), trace, cfg);

    RunSummaryContext ctx;
    ctx.policy = "Baseline";
    ctx.config = Json::object();
    ctx.config["steps"] = 2;

    const Json doc = Json::parse(run_summary_json(result, ctx).dump(2));
    EXPECT_EQ(doc.at("schema").as_string(), kRunSummarySchema);
    EXPECT_EQ(doc.at("policy").as_string(), "Baseline");
    EXPECT_DOUBLE_EQ(doc.at("makespan_s").as_number(), result.makespan_s());
    EXPECT_DOUBLE_EQ(doc.at("energy_j").at("gpu").as_number(), result.gpu_energy_j);
    EXPECT_DOUBLE_EQ(doc.at("energy_j").at("node").as_number(), result.node_energy_j);
    EXPECT_DOUBLE_EQ(doc.at("edp").at("gpu").as_number(), result.gpu_edp());
    EXPECT_EQ(doc.at("n_ranks").as_number(), 1.0);
    EXPECT_EQ(doc.at("config").at("steps").as_number(), 2.0);
    EXPECT_GT(doc.at("per_function").size(), 0u);
    for (const auto& fn : doc.at("per_function").items()) {
        EXPECT_GT(fn.at("calls").as_number(), 0.0);
        EXPECT_TRUE(fn.at("function").is_string());
    }
}


TEST(SpanTracerThreadSafety, ConcurrentRecordingLosesNoEvents)
{
    SpanTracer tracer;
    util::ThreadPool pool(8);
    constexpr std::size_t kN = 500;
    // Each index records a balanced span plus a counter sample on its own
    // (pid, tid) track; nothing is lost and every span stays balanced.
    pool.parallel_for(kN, [&](std::size_t i) {
        const int pid = static_cast<int>(i);
        tracer.begin(pid, 0, "work", static_cast<double>(i), "test");
        tracer.counter(pid, "value", static_cast<double>(i), 1.0);
        tracer.end(pid, 0, static_cast<double>(i) + 0.5);
    });
    EXPECT_EQ(tracer.event_count(), kN * 3);
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(tracer.open_spans(static_cast<int>(i), 0), 0);
    }
    // The merged view serializes cleanly.
    EXPECT_EQ(Json::parse(tracer.to_chrome_json()).size(), kN * 3);
}

TEST(SpanTracerThreadSafety, SingleThreadedOrderMatchesLegacy)
{
    // Events come back in exactly the order they were recorded.
    SpanTracer tracer;
    tracer.begin(0, 0, "a", 1.0);
    tracer.instant(0, 0, "mark", 1.2);
    tracer.end(0, 0, 2.0);
    const auto& events = tracer.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].phase, 'B');
    EXPECT_EQ(events[1].phase, 'i');
    EXPECT_EQ(events[2].phase, 'E');
}

} // namespace
} // namespace gsph::telemetry
