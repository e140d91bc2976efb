#pragma once
/// \file tracer.hpp
/// \brief Span tracer with Chrome trace-event / Perfetto JSON export.
///
/// Records begin/end spans ("ph":"B"/"E"), counter tracks ("ph":"C"),
/// instants ("ph":"i") and process/thread metadata ("ph":"M") against a
/// (pid, tid) coordinate system.  greensph maps pid = MPI rank and
/// tid 0 = the rank's GPU timeline, so a dumped trace opens directly in
/// ui.perfetto.dev (or chrome://tracing) with one track per rank, nested
/// step/function spans, and clock/power/energy counter tracks alongside.
///
/// Timestamps are simulated seconds; export converts to the microseconds
/// the trace-event format specifies.  Span begin/end pairs are validated
/// per (pid, tid): ending with no open span throws, and open_spans() lets
/// callers assert balance.
///
/// Storage is a column store, laid out as the checkpoint section holds it
/// (save_state): a string table in first-use order, and per event its
/// phase, name and category ids, pid and tid; one timestamp per run of
/// events with a bit-equal time; one value per 'C' event, one name id per
/// 'M' event, and the args as key/value id pairs.  Recording appends ids,
/// so an event costs no string copies.  Strings are interned in the order
/// the events visit them (name, category, each arg key and value, then the
/// 'M' name), which makes the table the checkpoint's table.  Recording,
/// save_state, restore_state and to_chrome_json all work on these columns;
/// events() builds TraceEvent copies on demand.  save_state logs the strings
/// and events recorded since the previous save once, as one chunk of
/// columns, so a save costs what was recorded since the last one.
///
/// Thread safety: every call takes one mutex, so recording calls may arrive
/// from ThreadPool workers.  Events from one thread keep their program
/// order; events from different threads interleave in arrival order.  Run
/// hooks record on the driving thread, so a run's trace does not depend on
/// the thread count.  Only the daemon's request traces record from several
/// threads, and nothing compares those byte for byte.  Open-span accounting
/// is shared across threads, so a span may begin on one thread and end on
/// another; Perfetto orders events by timestamp, not by array position, so
/// cross-thread traces stay well-formed.

#include "checkpoint/state.hpp"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gsph::telemetry {

struct TraceEvent {
    std::string name;
    std::string category;
    char phase = 'X';   ///< 'B', 'E', 'C', 'i', 'M'
    double time_s = 0.0;
    int pid = 0;
    int tid = 0;
    double counter_value = 0.0; ///< 'C' events only
    std::string metadata;       ///< 'M' events: the process/thread name
    /// Extra "args" key/value pairs exported verbatim on 'B'/'i' events
    /// (e.g. trace_id for distributed spans); shown by Perfetto on click.
    std::vector<std::pair<std::string, std::string>> args;
};

class SpanTracer {
public:
    /// "args" key/value pairs of a 'B' or 'i' event.
    using Args = std::initializer_list<std::pair<std::string_view, std::string_view>>;

    /// Begin a span on (pid, tid) at simulated time `t_s`.
    void begin(int pid, int tid, std::string_view name, double t_s,
               std::string_view category = {}, Args args = {});
    /// End the innermost open span on (pid, tid); throws std::logic_error
    /// when none is open.
    void end(int pid, int tid, double t_s);

    /// Counter sample: one value on the track `name` of process `pid`.
    void counter(int pid, std::string_view name, double t_s, double value);

    /// Zero-duration marker.
    void instant(int pid, int tid, std::string_view name, double t_s, Args args = {});

    /// Perfetto display names ("rank 0", "gpu timeline", ...).
    void set_process_name(int pid, std::string_view name);
    void set_thread_name(int pid, int tid, std::string_view name);

    /// Open (un-ended) spans on (pid, tid).
    int open_spans(int pid, int tid) const;

    std::size_t event_count() const;
    /// Every event, in recording order, rebuilt from the columns.
    std::vector<TraceEvent> events() const;

    /// Chrome trace-event JSON: an array of event objects, ts in us.  Each
    /// event is appended to one string with the number and string encoders
    /// of Json::dump, so the text is what dump() would give for the same
    /// events (a repeated args key keeps its first position, last value).
    std::string to_chrome_json() const;

    /// Write the Chrome trace JSON to `path` (atomic temp+rename
    /// replacement); false on I/O failure.
    bool write_file(const std::string& path) const;

    /// Checkpoint every recorded event and the open-span depths, by column.
    /// Strings go into a table (`str.<i>`) and the columns hold indices into
    /// it.  Each save logs the strings and events new since the previous
    /// one as chunk k (`ev.<k>.*`): per event `ph`, `name`, `cat`, `pid`,
    /// `tid`, `nargs`; per closed run of events with a bit-equal timestamp
    /// `t` and its run length `trun`; per 'C' event `cv`; per 'M' event `md`;
    /// and the key/value pairs of the events' args (`args`).  The section
    /// text holds the table size (`strings`), the chunk count (`chunks`),
    /// the last run (`ev.t.open`, `ev.trun.open`), which the next event may
    /// extend, and the (pid, tid, depth) triples of the open spans (`open`).
    void save_state(checkpoint::StateWriter& writer) const;
    /// Replace this tracer's contents with a save_state() payload, and count
    /// all of it as logged.  Throws CheckpointError on a malformed payload.
    void restore_state(const checkpoint::StateReader& reader);

private:
    /// The recorded events, one vector per checkpoint column.
    struct Columns {
        /// Appends `s` to the string table; returns its id.
        std::uint32_t add_string(std::string_view s);

        std::deque<std::string> strings; ///< the string table (stable addresses)
        std::unordered_map<std::string_view, std::uint32_t> ids; ///< into `strings`
        std::optional<std::uint32_t> empty_id; ///< id of "", once in the table
        std::string phase;               ///< per event
        std::vector<std::uint32_t> name, category, n_args;
        std::vector<std::int32_t> pid, tid;
        std::vector<double> run_time;    ///< per run of bit-equal timestamps
        std::vector<std::uint64_t> run_length;
        std::vector<double> value;          ///< per 'C' event
        std::vector<std::uint32_t> metadata; ///< per 'M' event
        std::vector<std::uint32_t> args;     ///< key, value, key, value, ...
    };
    /// One event as the columns hold it: ids into the string table.
    struct EventRef {
        char phase;
        std::uint32_t name, category;
        std::size_t run; ///< index of its timestamp run
        double time_s;
        int pid, tid;
        double value;           ///< 'C' events
        std::uint32_t metadata; ///< 'M' events
        const std::uint32_t* args; ///< n_args key/value id pairs
        std::uint32_t n_args;
    };
    /// How much of each column earlier saves logged, and in how many chunks.
    struct Logged {
        std::size_t strings = 0, events = 0, runs = 0, values = 0, metadata = 0,
                    args = 0, chunks = 0;
    };

    /// Id of `s` in the string table, added on first use (caller holds mutex_).
    std::uint32_t intern_locked(std::string_view s);
    /// Appends one event (caller holds mutex_).  Interns the name, the
    /// category and the args in that order; the caller interns an 'M'
    /// event's display name after.
    void record_locked(char phase, int pid, int tid, std::string_view name, double t_s,
                       std::string_view category, Args args);
    /// Calls visit(const EventRef&) for every event in order (caller holds
    /// mutex_).
    template <typename Visit>
    void for_each_locked(Visit visit) const;

    mutable std::mutex mutex_;
    Columns columns_;
    mutable Logged logged_;
    std::map<std::pair<int, int>, int> open_; ///< (pid,tid) -> open span depth
};

} // namespace gsph::telemetry
