// base::io — the durable-storage layer (DESIGN.md §14).
//
// Every on-disk artifact the pipeline trusts (columnar captures, pcap
// exports, `.ctx`/`.shards` cache sidecars) goes through this module:
//
//   FileWriter     write-to-temp + fsync + atomic rename, with every
//                  fwrite/fflush/fsync/fclose/rename result checked and
//                  surfaced as a typed IoStatus. A crashed writer leaves
//                  only a `*.tmp` file that the dataset cache sweeps away
//                  on the next open; readers never observe a torn file.
//   Framing        CRC32C-checksummed, versioned, length-prefixed
//                  container (magic + header + payload + one CRC32C
//                  trailer) wrapped around the payload codecs. Readers
//                  detect truncation, bit flips, appended bytes and
//                  cross-artifact mixups (content tags) before a payload
//                  decoder ever runs.
//                  Unframed bytes are rejected; the cache is regenerable,
//                  so no reader keeps a path for pre-framing files.
//   Fault shim     a deterministic StorageFaultInjector the tests install
//                  to produce short writes, ENOSPC, EINTR, failed fsync /
//                  rename, and post-commit bit flips / truncation at
//                  chosen (or seed-derived) offsets — every recovery path
//                  in the dataset cache is exercised reproducibly.
//   Quarantine     artifacts that fail integrity checks are moved into a
//                  `.quarantine/` subdirectory next to a reason file so a
//                  corrupt file can be inspected but never re-trusted.
//
// This module is the only place in src/ allowed to call raw fopen /
// fwrite / ofstream; the `io-unchecked` lint rule enforces that.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace clouddns::base::io {

// ---------------------------------------------------------------------------
// Typed status

enum class IoCode : std::uint8_t {
  kOk = 0,
  kNotFound,        ///< The file does not exist (distinct from corrupt).
  kOpenFailed,      ///< Could not create/open the file.
  kReadFailed,      ///< Short read / seek failure on an existing file.
  kWriteFailed,     ///< Short write (ENOSPC, EIO, ...) to the temp file.
  kFlushFailed,     ///< fflush reported an error.
  kSyncFailed,      ///< fsync reported an error.
  kCloseFailed,     ///< fclose reported an error (delayed write failure).
  kRenameFailed,    ///< Atomic rename into place failed.
  kBadFrame,        ///< Framed file with a malformed/truncated header.
  kBadVersion,      ///< Frame version this build does not understand.
  kBadTag,          ///< Frame content tag names a different artifact kind.
  kTruncated,       ///< Frame ends before the declared payload length.
  kTrailerCorrupt,  ///< Whole-payload CRC or trailer magic mismatch.
  kPayloadCorrupt,  ///< Framing verified but the payload decoder
                    ///< rejected the bytes.
};

[[nodiscard]] const char* ToString(IoCode code);

struct IoStatus {
  IoCode code = IoCode::kOk;
  int sys_errno = 0;    ///< errno at the failing call, 0 if not OS-level.
  std::string detail;   ///< Human-readable context ("fwrite wrote 12/80").

  [[nodiscard]] bool ok() const { return code == IoCode::kOk; }
  [[nodiscard]] static IoStatus Ok() { return IoStatus{}; }
  [[nodiscard]] static IoStatus Error(IoCode code, std::string detail,
                                      int sys_errno = 0);
  /// "write-failed (No space left on device): fwrite wrote 12/80".
  [[nodiscard]] std::string ToString() const;
};

// ---------------------------------------------------------------------------
// CRC32C (Castagnoli), runtime-dispatched.
//
// Crc32c() routes through a hardware kernel when the host has one
// (SSE4.2 on x86, the ARMv8 CRC extension on aarch64) and falls back to
// the table-driven software implementation otherwise. Dispatch happens
// once per process; the hardware kernel is accepted only after it
// reproduces the software result on a test vector (DESIGN.md §10), so a
// miscompiled or misreported CPU feature can never change file bytes.

/// CRC32C of `data`; chain blocks by passing the previous result as
/// `seed` (the seed is pre/post-inverted internally, so Crc32c(a+b) ==
/// Crc32c(b, Crc32c(a))).
[[nodiscard]] std::uint32_t Crc32c(const std::uint8_t* data, std::size_t len,
                                   std::uint32_t seed = 0);
[[nodiscard]] std::uint32_t Crc32c(const std::vector<std::uint8_t>& data,
                                   std::uint32_t seed = 0);

/// The table-driven software path, always available. The dispatcher
/// cross-checks the hardware kernel against this, and base_io_test checks
/// that both agree.
[[nodiscard]] std::uint32_t Crc32cSoftware(const std::uint8_t* data,
                                           std::size_t len,
                                           std::uint32_t seed = 0);

/// Name of the kernel Crc32c() dispatches to: "sse4.2", "armv8-crc", or
/// "software". Stable for the process lifetime.
[[nodiscard]] const char* Crc32cBackend();

// ---------------------------------------------------------------------------
// Checksummed framing

/// Content tags (big-endian fourcc) naming what a frame's payload is, so
/// a `.shards` sidecar renamed over a `.cdns` capture is detected as a
/// mixup instead of being fed to the wrong decoder.
inline constexpr std::uint32_t kTagCapture = 0x43444e53;  // "CDNS"
inline constexpr std::uint32_t kTagPcap = 0x50434150;     // "PCAP"
inline constexpr std::uint32_t kTagShards = 0x53485244;   // "SHRD"
inline constexpr std::uint32_t kTagContext = 0x43545820;  // "CTX "
/// Wildcard for UnwrapFrame: accept any tag (cdnstool verify).
inline constexpr std::uint32_t kTagAny = 0;

/// Wraps `payload` in the framed container:
///   magic "CLDFRAM1" | u32 version (2) | u32 tag | u64 payload length |
///   payload | u32 trailer magic "CDND" | u32 crc32c(payload)
/// All integers big-endian; one serial Crc32c pass covers the payload.
[[nodiscard]] std::vector<std::uint8_t> WrapFrame(
    std::uint32_t content_tag, const std::vector<std::uint8_t>& payload);

/// Detects and verifies framing in `bytes`.
///   - Framed and intact: returns kOk, sets `framed` = true and fills
///     `payload` with the verified bytes (`tag_out`, if given, gets the
///     frame's content tag).
///   - Not framed (no magic): returns kOk with `framed` = false and
///     leaves `payload` untouched. Only callers that accept foreign files
///     act on this (raw libpcap import, `cdnstool verify`); ReadFramedFile
///     turns it into kBadFrame.
///   - Framed but damaged or tag-mismatched: the specific error code. The
///     frame must end exactly at its trailer; trailing bytes are
///     kBadFrame, a short file kTruncated, a payload CRC or trailer magic
///     mismatch kTrailerCorrupt.
/// `expected_tag` of kTagAny accepts any content tag.
[[nodiscard]] IoStatus UnwrapFrame(const std::vector<std::uint8_t>& bytes,
                                   std::uint32_t expected_tag,
                                   std::vector<std::uint8_t>& payload,
                                   bool& framed,
                                   std::uint32_t* tag_out = nullptr);

// ---------------------------------------------------------------------------
// Deterministic storage-fault shim

enum class StorageFaultKind : std::uint8_t {
  kOpenFail,            ///< Opening the temp file fails (EACCES).
  kShortWrite,          ///< fwrite persists only a prefix, then fails (EIO).
  kEnospc,              ///< fwrite persists a prefix, errno ENOSPC.
  kEintrOnce,           ///< fwrite is interrupted mid-buffer once (EINTR);
                        ///< the writer's retry loop must finish the write.
  kFsyncFail,           ///< fsync fails (EIO).
  kRenameFail,          ///< rename into place fails (EXDEV).
  kBitFlipAfterCommit,  ///< Commit succeeds, then one bit of the final
                        ///< file flips (latent media corruption).
  kTruncateAfterCommit, ///< Commit succeeds, then the file is truncated
                        ///< (torn at a chosen offset).
  kZeroAfterCommit,     ///< Commit succeeds, then the file becomes empty.
};

[[nodiscard]] const char* ToString(StorageFaultKind kind);

/// `offset` sentinel: derive the fault offset deterministically from the
/// injector seed, the file path, and the file size.
inline constexpr std::uint64_t kAutoOffset = ~std::uint64_t{0};

struct StorageFault {
  std::string path_substring;  ///< Applies to paths containing this.
  StorageFaultKind kind = StorageFaultKind::kShortWrite;
  std::uint64_t offset = kAutoOffset;
  int fire_count = 1;          ///< Arm for this many firings (-1 = always).
};

/// A declarative schedule of storage faults. Deterministic by
/// construction: which operation fails is fixed by the plan, and
/// auto-derived offsets are a pure function of (seed, path, size) — the
/// same sweep always corrupts the same bytes.
class StorageFaultInjector {
 public:
  explicit StorageFaultInjector(std::uint64_t seed = 0) : seed_(seed) {}

  void Add(StorageFault fault) { faults_.push_back(std::move(fault)); }

  /// Total faults fired so far (all kinds).
  [[nodiscard]] std::uint64_t fired() const { return fired_; }

  /// Arms the next matching fault for `path`/`kind` and consumes one
  /// firing. Returns false when no armed fault matches. Internal to
  /// base::io and the tests that assert on it.
  bool Consume(const std::string& path, StorageFaultKind kind,
               std::uint64_t* offset_out);

  /// The deterministic offset for a consumed fault: the fault's explicit
  /// offset, or splitmix64(seed ^ fnv1a(path)) % max(size, 1).
  [[nodiscard]] std::uint64_t DeriveOffset(const std::string& path,
                                           std::uint64_t explicit_offset,
                                           std::uint64_t size) const;

 private:
  std::uint64_t seed_ = 0;
  std::uint64_t fired_ = 0;
  std::vector<StorageFault> faults_;
};

/// Installs the process-wide injector every FileWriter consults; pass
/// nullptr to disable. Test-only: not synchronized against concurrent
/// writers (the storage suites write single-threaded).
void SetStorageFaultInjector(StorageFaultInjector* injector);
[[nodiscard]] StorageFaultInjector* GetStorageFaultInjector();

// ---------------------------------------------------------------------------
// Atomic file writer / whole-file reader

/// Writes `<path>.tmp`, then Commit() flushes, fsyncs, closes and
/// atomically renames into place. Any step failing surfaces a typed
/// IoStatus and removes the temp file; the destination is either the old
/// intact file or the complete new one, never a torn mix.
class FileWriter {
 public:
  explicit FileWriter(std::string path);
  ~FileWriter();
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  [[nodiscard]] const IoStatus& status() const { return status_; }

  /// Appends bytes to the temp file. No-op once an error is recorded
  /// (the first failure wins; Commit() reports it).
  void Append(const std::uint8_t* data, std::size_t len);
  void Append(const std::vector<std::uint8_t>& bytes);

  /// Flush + fsync + close + rename. Returns the first error recorded
  /// anywhere in the write sequence; on failure the temp file is gone
  /// and the destination is untouched.
  [[nodiscard]] IoStatus Commit();

  /// Discards the temp file without touching the destination.
  void Abort();

 private:
  void Fail(IoCode code, std::string detail, int sys_errno);

  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
  std::uint64_t offset_ = 0;
  IoStatus status_;
  bool done_ = false;
};

/// Whole file -> bytes. kNotFound when the file does not exist.
[[nodiscard]] IoStatus ReadFileBytes(const std::string& path,
                                     std::vector<std::uint8_t>& out);

/// One-shot atomic write of `bytes` to `path` (no framing).
[[nodiscard]] IoStatus WriteFileAtomic(const std::string& path,
                                       const std::vector<std::uint8_t>& bytes);

/// One-shot atomic write of WrapFrame(tag, payload) to `path`.
[[nodiscard]] IoStatus WriteFramedFile(const std::string& path,
                                       std::uint32_t content_tag,
                                       const std::vector<std::uint8_t>& payload);

/// Reads `path` and unwraps framing. A file without the frame magic
/// fails with kBadFrame.
[[nodiscard]] IoStatus ReadFramedFile(const std::string& path,
                                      std::uint32_t expected_tag,
                                      std::vector<std::uint8_t>& payload);

// ---------------------------------------------------------------------------
// Quarantine & recovery accounting

/// Moves `path` into `<parent>/.quarantine/<name>.<n>` (first free n)
/// and writes `<name>.<n>.reason` beside it containing `reason`. Returns
/// the quarantined path, or "" when the move itself failed (the original
/// is removed in that case so a corrupt artifact is never re-read).
std::string QuarantineFile(const std::string& path, const std::string& reason);

/// Removes stranded `*.tmp` files under `dir` left by a crashed writer.
/// Returns how many were removed.
std::size_t RemoveStrandedTmpFiles(const std::string& dir);

/// RobustnessCounters-style block for storage integrity events, reported
/// in ScenarioResult by the self-healing dataset cache.
struct StorageCounters {
  std::uint64_t detected = 0;     ///< Integrity failures found on load.
  std::uint64_t quarantined = 0;  ///< Artifacts moved to .quarantine/.
  std::uint64_t rebuilt = 0;      ///< Artifacts regenerated from simulation
                                  ///< after a detected failure.
  std::uint64_t reverified = 0;   ///< Rebuilt artifacts re-read and intact.
  std::uint64_t tmp_cleaned = 0;  ///< Stranded *.tmp files swept on open.
  friend bool operator==(const StorageCounters&,
                         const StorageCounters&) = default;
};

}  // namespace clouddns::base::io
