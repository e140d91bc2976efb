#pragma once
/// \file checkpoint.hpp
/// \brief Versioned, crash-consistent run snapshots.
///
/// A checkpoint is two files in the checkpoint directory:
///
///   * `checkpoint-<step>.gsc` — the data file: a one-line format header
///     (`greensph-checkpoint 5`) followed by named sections, each introduced
///     by `section <name> <bytes> <crc32>` and carrying exactly `<bytes>`
///     of StateWriter payload.
///   * `MANIFEST.json` — schema `greensph.checkpoint/v1`: format version,
///     config hash, step, the data file name and the per-section byte
///     counts + CRC-32s.
///
/// Crash consistency comes from ordering, not locking.  The data file is
/// written first (temp + fsync + rename), and only then is the manifest
/// replaced the same way.  The manifest is the commit point: a kill at any
/// instant leaves either the previous manifest (pointing at the previous,
/// still-intact data file) or the new one — never a torn checkpoint.
/// Readers re-verify every section CRC against the manifest, so even
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
inline constexpr int kFormatVersion = 5;
inline constexpr const char* kManifestSchema = "greensph.checkpoint/v1";
inline constexpr const char* kManifestName = "MANIFEST.json";

/// One named block of serialized component state.
struct Section {
    std::string name;
    std::string data;
};

/// A fully validated checkpoint, as loaded by read_latest().
struct Snapshot {
    int step = 0;              ///< number of completed steps
    std::string config_hash;   ///< hex64 FNV-1a of the canonical config
    std::vector<Section> sections;

    /// nullptr when absent.
    const Section* find(std::string_view name) const;
    /// Throws CheckpointError naming the section when absent.
    StateReader reader(std::string_view name) const;
};

/// Writes checkpoints into a directory, pruning old data files after each
/// successful commit.  Emits `checkpoint.writes`, `checkpoint.bytes` and
/// `checkpoint.write_seconds` counters.
class CheckpointWriter {
public:
    /// \param dir          created if missing.
    /// \param config_hash  hex64 canonical-config hash stored in the manifest.
    /// \param keep_last    data files retained after a commit (>= 1).
    CheckpointWriter(std::string dir, std::string config_hash, int keep_last = 2);

    /// Serialize `sections` as the checkpoint for `step` completed steps.
    /// Throws CheckpointError on any I/O failure; on success the manifest
    /// atomically points at the new data file.  Returns the data file path.
    std::string write(int step, const std::vector<Section>& sections);

    int checkpoints_written() const { return written_; }
    const std::string& dir() const { return dir_; }

private:
    std::string dir_;
    std::string config_hash_;
    int keep_last_;
    int written_ = 0;
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
