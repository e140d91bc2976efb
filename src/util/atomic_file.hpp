#pragma once
/// \file atomic_file.hpp
/// \brief Crash-consistent file replacement.
///
/// Every machine-readable artifact greensph emits (metrics dumps, Chrome
/// traces, run summaries, checkpoints) must never be observable in a torn
/// state: a kill between open() and the final write would otherwise leave
/// truncated JSON that breaks trace viewers and CI parsers.  The POSIX
/// recipe is write-to-temp + fsync + rename: rename(2) atomically replaces
/// the destination, so readers see either the complete old file or the
/// complete new one, and the fsync before the rename guarantees the new
/// bytes are durable before they become visible under the final name.

#include <cstdint>
#include <string>

namespace gsph::util {

/// Atomically replace `path` with `content`.  Writes `path` + a unique
/// temp suffix in the same directory (rename is only atomic within one
/// filesystem), fsyncs the data, renames over `path`, then fsyncs the
/// parent directory so the rename itself is durable.  Returns false on any
/// I/O failure (the temp file is unlinked on a failed attempt).
bool atomic_write_file(const std::string& path, const std::string& content);

/// Write `content` at byte `offset` of `path` (created if missing), cut the
/// file off after it, and fsync it: the bytes before `offset` stay as they
/// are.  A created file's directory entry is durable only once the parent
/// directory is fsynced, as atomic_write_file does for its own file.
/// Returns false on any I/O failure.
bool write_file_at(const std::string& path, std::uint64_t offset, const std::string& content);

} // namespace gsph::util
