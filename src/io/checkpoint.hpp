#pragma once
/// \file checkpoint.hpp
/// Crash-safe binary checkpoint/restart for conservative states.  The paper's
/// timings cover "the whole application including I/O" (Table 1); production
/// runs of 16 hours (Fig. 1) are only feasible with restart capability — and
/// at that scale a checkpoint layer must also survive the writer dying
/// mid-write and detect on-disk corruption before a restart consumes it.
///
/// Format v2 (current writes):
///   fixed header (magic, version, dims, ghost depth, storage width,
///   simulated time — byte-identical layout to v1's header)
///   + per-component CRC32 table (num_vars entries)
///   + a CRC32 over header+table (torn/corrupt headers are rejected)
///   + the interior of each component, row-major, native byte order.
/// v1 files (no CRC section) remain readable; writes always produce v2.
///
/// Crash safety: every write goes to `path + ".tmp"`, is flushed and fsynced,
/// and only then atomically renamed over `path` — a crash mid-write leaves
/// the previous checkpoint intact, never a torn current one.  Corruption that
/// bypasses the rename (bit rot, partial copies) is caught by the CRCs at
/// read/validate time with a precise error.
///
/// Storage-precision-faithful: an FP16 state checkpoints at 2 bytes/value.
///
/// The manifest helpers give long runs a latest-valid restart point: the
/// runner appends an entry per checkpoint and a resume scans entries
/// newest-first, validating CRCs, so a corrupt newest checkpoint falls back
/// to the previous valid one (see cases::run_case_guarded).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/field3.hpp"
#include "common/half.hpp"

namespace igr::io {

struct CheckpointHeader {
  std::uint64_t magic = 0x49475246'4C4F5731ull;  // "IGRF" "LOW1"
  std::uint32_t version = 2;
  /// Storage tag: low byte is the element size (2, 4, or 8); high byte
  /// disambiguates same-size encodings (0x0102 = bfloat16, plain 2 =
  /// binary16).  Old files carry the bare size and read unchanged.
  std::uint32_t storage_bytes = 0;
  std::int32_t nx = 0, ny = 0, nz = 0, ng = 0;
  std::int32_t num_vars = 0;
  double time = 0.0;
};

/// Write the interior of `q` (plus simulated time) to `path` via the
/// write-to-temp + fsync + atomic-rename protocol.
/// Throws std::runtime_error on I/O failure (the previous `path` contents,
/// if any, are left untouched on failure).
template <class T>
void write_checkpoint(const std::string& path,
                      const common::StateField3<T>& q, double time);

/// Read a checkpoint into `q` (shape must match) and return the stored
/// simulated time.  Throws std::runtime_error on mismatch or corruption;
/// mismatch errors report expected-vs-found dims/precision/component count,
/// and v2 corruption is pinned to the failing component's CRC.
template <class T>
double read_checkpoint(const std::string& path, common::StateField3<T>& q);

/// Peek at a checkpoint's header without loading the data (v2 headers are
/// CRC-verified; a torn header throws).  Every reader first rejects unknown
/// storage tags and any header whose declared payload size — overflow-
/// checked — differs from the file's, so a crafted header can size neither
/// an allocation nor a read loop.
CheckpointHeader read_checkpoint_header(const std::string& path);

/// Scalar-field flavor (num_vars = 1 in the header): the IGR solvers
/// checkpoint the entropic pressure Sigma alongside the state so a restart
/// resumes with the same warm start (and hence continues bitwise).
template <class T>
void write_checkpoint_field(const std::string& path,
                            const common::Field3<T>& f, double time);

/// Read a scalar-field checkpoint into `f` (shape must match); returns the
/// stored simulated time.
template <class T>
double read_checkpoint_field(const std::string& path, common::Field3<T>& f);

// --- Validation (no target field required) -------------------------------

/// Outcome of a full structural + checksum scan of a checkpoint file.
struct CheckpointValidation {
  bool ok = false;
  std::string error;  ///< Empty when ok.
  CheckpointHeader header{};
};

/// Stream `path` end to end: header (and its CRC for v2), exact payload
/// size (checked before any read is sized by the header), and every
/// component CRC (v2).  Never throws — a missing or corrupt file reports
/// `ok = false` with the reason.  v1 files validate structure and size only
/// (they carry no checksums).
CheckpointValidation validate_checkpoint(const std::string& path);

// --- Checkpoint manifest -------------------------------------------------

/// One restart point recorded by a checkpointing run.  `path` names the
/// state checkpoint; IGR runs have a `path + ".sigma"` sibling.
struct ManifestEntry {
  long step = 0;    ///< Steps completed at the save.
  double time = 0;  ///< Simulated time at the save.
  std::string path;
};

/// Bound on a manifest: the most entries it may list, and the longest line
/// it may hold in bytes.  read_manifest rejects a larger file before
/// allocating for it, and `run_case --keep` accepts at most this many.
inline constexpr int kManifestLimit = 4096;

/// Atomically (re)write a manifest listing `entries` oldest-first.
void write_manifest(const std::string& path,
                    const std::vector<ManifestEntry>& entries);

/// Read a manifest; a missing file yields an empty list (nothing to resume
/// from), a malformed one or one over kManifestLimit throws.
std::vector<ManifestEntry> read_manifest(const std::string& path);

// --- Fault injection -----------------------------------------------------

/// Test hook for torn-write injection: invoked after every payload chunk a
/// checkpoint write emits, with the destination path and cumulative payload
/// bytes written so far.  Throwing from the hook simulates the writer dying
/// mid-checkpoint: the temp file is left torn and `path` keeps its previous
/// contents (that is the crash-safety property under test).  Empty function
/// disables (the default).  Not thread-safe against concurrent writers —
/// install only around single-threaded checkpoint activity.
using WriteFaultHook =
    std::function<void(const std::string& path, std::size_t bytes_written)>;
void set_checkpoint_write_fault(WriteFaultHook hook);

// --- Durability diagnostics ----------------------------------------------

/// Process-wide count of parent-directory fsyncs performed by committed
/// atomic writes (checkpoints, field files, manifests).  fsync of the file
/// alone does not persist the *rename* — after a power cut the directory
/// entry may still point at the old file or at nothing — so every commit
/// also fsyncs the parent directory, and tests assert this counter moved.
[[nodiscard]] long dir_fsyncs();

}  // namespace igr::io
