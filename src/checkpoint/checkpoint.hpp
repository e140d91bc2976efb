#pragma once
/// \file checkpoint.hpp
/// \brief Versioned, crash-consistent run snapshots.
///
/// A checkpoint is three files in the checkpoint directory:
///
///   * `log-<G>.gsl` — the log of writer generation G: a one-line header
///     (`greensph-checkpoint-log 7`) followed by CRC-framed records, each
///     introduced by `record <section> <bytes> <crc32>`.  A participant
///     writes a record once (StateWriter::log), and every later commit of
///     the writer only appends; the file grows with the run, a commit does
///     not.
///   * `checkpoint-<G>-<step>.gsc` — the data file: a one-line format
///     header (`greensph-checkpoint 7`) followed by named sections, each
///     introduced by `section <name> <bytes> <crc32>` and carrying exactly
///     `<bytes>` of StateWriter payload.
///   * `MANIFEST.json` — schema `greensph.checkpoint/v1`: format version,
///     config hash, step, the data file name, the per-section byte counts
///     + CRC-32s, and the log file's name and committed length.
///
/// Crash consistency comes from ordering, not locking.  The log's new
/// records are written at its committed length and fsynced, then the data
/// file is written (temp + fsync + rename), and only then is the manifest
/// replaced the same way.  The manifest is the commit point: a kill at any
/// instant leaves either the previous manifest (pointing at the previous,
/// still-intact data file and at a log whose committed prefix no later
/// write touches) or the new one — never a torn checkpoint.  Each writer
/// starts its own generation, so a fresh or resumed run never writes a file
/// the manifest it replaces still names.  Readers read the log only up to
/// the committed length and re-verify every record and section CRC, so even
/// storage-level corruption is reported as a named, line-itemed error
/// instead of silently poisoning a resumed run.

#include "checkpoint/state.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace gsph::checkpoint {

/// On-disk format version; bump on any incompatible layout change.
/// Version 2 stores the span tracer's events by column (SpanTracer::save_state).
/// Version 3: the run config hash no longer covers the thread count, so a
/// version-2 run checkpoint would fail its hash check anyway.
/// Version 4: the CLI's `cli` sections hold exactly the run-defining options
/// as flag text, and a run's config hash always covers its tune strategy.
/// Version 5: the `sampler` section holds one window per series instead of
/// ring histories, and the `gpu.N`, `pmcounters.N` and `anomaly` sections
/// drop state nothing read (power trace, launch count, previous counter
/// tick, stalled-call total).
/// Version 6: a checkpoint holds only state that crosses a step boundary.
/// Dropped: open probe readings and per-call latches (`profiler`, `policy`),
/// the run tracer's span bookkeeping and the ledger's per-rank windows, the
/// governor's transition count, the controller's skipped-call count, a
/// finished job's accounting, the injector's Gaussian cache, the PMT start
/// time and aux start time (`driver`) and a fleet outcome's completed flag.
/// The fleet's node sections lose their `fleet.` prefix and are written by
/// sim::Node, as the run driver's are.
/// Version 7: records that only grow go to the append-only log: the span
/// tracer's strings and event chunks (`runtracer`), the ledger's settled
/// decisions, by column with one string table (`ledger`, whose buckets are
/// stored by column too), the clock trace (`gpu.N`) and the step start
/// times (`driver`).  Files are named by writer generation, and the anomaly
/// detector drops its per-kind fired counts.
inline constexpr int kFormatVersion = 7;
inline constexpr const char* kManifestSchema = "greensph.checkpoint/v1";
inline constexpr const char* kManifestName = "MANIFEST.json";

/// One named block of serialized component state.
struct Section {
    std::string name;
    std::string data; ///< the section text (StateWriter::take)
    /// Log records (StateWriter::take_log).  Handed to CheckpointWriter::write:
    /// the records new at that commit.  From read_latest: every record the
    /// checkpoint's log holds for the section.
    std::string log = {};
};

/// A fully validated checkpoint, as loaded by read_latest().
struct Snapshot {
    int step = 0;              ///< number of completed steps
    std::string config_hash;   ///< hex64 FNV-1a of the canonical config
    std::vector<Section> sections;

    /// nullptr when absent.
    const Section* find(std::string_view name) const;
    /// The section's log records followed by its text.  Throws
    /// CheckpointError naming the section when absent.
    StateReader reader(std::string_view name) const;
};

/// Writes checkpoints into a directory, pruning the files of older commits
/// and generations after each successful commit.  Emits
/// `checkpoint.writes`, `checkpoint.bytes` (data file plus log growth) and
/// `checkpoint.write_seconds` counters.
class CheckpointWriter {
public:
    /// \param dir          created if missing.
    /// \param config_hash  hex64 canonical-config hash stored in the manifest.
    /// \param keep_last    data files retained after a commit (>= 1).
    CheckpointWriter(std::string dir, std::string config_hash, int keep_last = 2);

    /// Start the log with `resumed`'s records, which a resumed run's
    /// participants already hold and will not log again.  Call before the
    /// first write; the records of sections that write does not hold are
    /// dropped.
    void carry(const Snapshot& resumed);

    /// Serialize `sections` as the checkpoint for `step` completed steps,
    /// appending their log records to the log.  A section that has logged
    /// records belongs in every later commit.  Throws CheckpointError on
    /// any I/O failure, and then keeps the records for the next write; on
    /// success the manifest atomically points at the new data file and the
    /// log's new length.  Returns the data file path.
    std::string write(int step, const std::vector<Section>& sections);

    int checkpoints_written() const { return written_; }
    const std::string& dir() const { return dir_; }

private:
    std::string dir_;
    std::string config_hash_;
    int keep_last_;
    int written_ = 0;
    std::vector<Section> carried_;
    long long generation_ = 0;       ///< 0 until the first write picks one
    std::uint64_t log_committed_ = 0; ///< log bytes the last manifest names
    std::string log_pending_;         ///< framed records not yet committed
};

/// Load and fully validate the checkpoint the manifest points at.
/// Every failure mode (missing files, schema/version mismatch, byte-count
/// or CRC mismatch, malformed sections) throws CheckpointError with the
/// offending file/section named.  Increments `checkpoint.restores` on
/// success.
Snapshot read_latest(const std::string& dir);

/// A named list of save/restore participants.  Components register once;
/// the driver then snapshots all of them at each checkpoint boundary and
/// restores all of them (in registration order) on resume.
class StateRegistry {
public:
    using SaveFn = std::function<void(StateWriter&)>;
    using RestoreFn = std::function<void(const StateReader&)>;

    /// `optional` marks participants whose presence depends on output
    /// flags (profilers, tracers): they may be attached on a resumed run
    /// even though the interrupted run never saved their section.  A
    /// missing optional section is skipped — the participant starts
    /// fresh; a missing required section is still a hard error.
    void add(std::string section, SaveFn save, RestoreFn restore,
             bool optional = false);

    std::vector<Section> save_all() const;

    /// Restores every registered participant from `snap`; throws
    /// CheckpointError when a required section is absent.
    void restore_all(const Snapshot& snap) const;

    std::size_t size() const { return participants_.size(); }

private:
    struct Participant {
        std::string section;
        SaveFn save;
        RestoreFn restore;
        bool optional = false;
    };
    std::vector<Participant> participants_;
};

} // namespace gsph::checkpoint
