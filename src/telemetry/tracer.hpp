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
/// Thread safety: recording calls may arrive from ThreadPool workers.  Each
/// recording thread appends to its own span buffer (created on first use),
/// so events from one thread stay contiguous and in program order; the
/// buffers are read in thread-registration order (events(), to_chrome_json(),
/// save_state()).  Single-threaded recording therefore produces exactly the
/// legacy event order.  Open-span accounting is shared across threads, so a
/// span may legally begin on one thread and end on another; Perfetto orders
/// events by timestamp, not by array position, so cross-thread traces stay
/// well-formed.

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gsph::checkpoint {
class StateReader;
class StateWriter;
} // namespace gsph::checkpoint

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
    /// Begin a span on (pid, tid) at simulated time `t_s`.
    void begin(int pid, int tid, const std::string& name, double t_s,
               const std::string& category = "",
               std::vector<std::pair<std::string, std::string>> args = {});
    /// End the innermost open span on (pid, tid); throws std::logic_error
    /// when none is open.
    void end(int pid, int tid, double t_s);

    /// Counter sample: one value on the track `name` of process `pid`.
    void counter(int pid, const std::string& name, double t_s, double value);

    /// Zero-duration marker.
    void instant(int pid, int tid, const std::string& name, double t_s,
                 std::vector<std::pair<std::string, std::string>> args = {});

    /// Perfetto display names ("rank 0", "gpu timeline", ...).
    void set_process_name(int pid, const std::string& name);
    void set_thread_name(int pid, int tid, const std::string& name);

    /// Open (un-ended) spans on (pid, tid).
    int open_spans(int pid, int tid) const;

    std::size_t event_count() const;
    /// Copy of every thread's buffer, merged in registration order.
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
    /// Strings go into a table (`strings`, `str.<i>`) and the columns hold
    /// indices into it.  One entry per event: `ev.ph`, `ev.name`, `ev.cat`,
    /// `ev.pid`, `ev.tid`, `ev.nargs`.  One per run of events with a
    /// bit-equal timestamp: `ev.t` and its run length `ev.trun`.  One per
    /// 'C' event: `ev.cv`; one per 'M' event: `ev.md`.  Then the key/value
    /// pairs of every event's args (`ev.args`) and the (pid, tid, depth)
    /// triples of the open-span depths (`open`).
    void save_state(checkpoint::StateWriter& writer) const;
    /// Replace this tracer's contents with a save_state() payload.  All
    /// events land in one buffer, in the order they were saved.  Throws
    /// CheckpointError on a malformed payload.
    void restore_state(const checkpoint::StateReader& reader);

    void clear();

private:
    struct ThreadBuffer {
        std::vector<TraceEvent> events;
    };

    /// Appends `event` to the calling thread's buffer (locked).
    void record(TraceEvent event);
    /// Events in all buffers (caller holds mutex_).
    std::size_t count_locked() const;

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_; ///< registration order
    std::map<std::thread::id, ThreadBuffer*> by_thread_;
    std::map<std::pair<int, int>, int> open_; ///< (pid,tid) -> open span depth
};

} // namespace gsph::telemetry
