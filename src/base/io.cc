#include "base/io.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "base/hash.h"

#ifndef _WIN32
#include <unistd.h>
#endif

#if defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#include <arm_acle.h>
#if __has_include(<sys/auxv.h>)
#include <sys/auxv.h>
#endif
#endif

namespace clouddns::base::io {
namespace {

namespace fs = std::filesystem;

constexpr char kFrameMagic[8] = {'C', 'L', 'D', 'F', 'R', 'A', 'M', '1'};
constexpr std::uint32_t kFrameVersion = 2;
constexpr std::uint32_t kTrailerMagic = 0x43444e44;  // "CDND"
constexpr std::size_t kHeaderSize = sizeof(kFrameMagic) + 4 + 4 + 8;
constexpr std::size_t kTrailerSize = 4 + 4;

void StoreU32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 24);
  out[1] = static_cast<std::uint8_t>(v >> 16);
  out[2] = static_cast<std::uint8_t>(v >> 8);
  out[3] = static_cast<std::uint8_t>(v);
}

void StoreU64(std::uint8_t* out, std::uint64_t v) {
  StoreU32(out, static_cast<std::uint32_t>(v >> 32));
  StoreU32(out + 4, static_cast<std::uint32_t>(v));
}

std::uint32_t LoadU32(const std::uint8_t* in) {
  return (static_cast<std::uint32_t>(in[0]) << 24) |
         (static_cast<std::uint32_t>(in[1]) << 16) |
         (static_cast<std::uint32_t>(in[2]) << 8) |
         static_cast<std::uint32_t>(in[3]);
}

std::uint64_t LoadU64(const std::uint8_t* in) {
  return (static_cast<std::uint64_t>(LoadU32(in)) << 32) | LoadU32(in + 4);
}

StorageFaultInjector* g_injector = nullptr;

/// Applies a consumed post-commit fault to the final (renamed) file.
/// Failures here are ignored: the fault shim is simulating silent media
/// corruption, and the read path is what must notice.
void CorruptCommittedFile(const std::string& path, StorageFaultKind kind,
                          std::uint64_t offset) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) return;
  if (kind == StorageFaultKind::kZeroAfterCommit) {
    fs::resize_file(path, 0, ec);
    return;
  }
  if (size == 0) return;
  const std::uint64_t at =
      g_injector ? g_injector->DeriveOffset(path, offset, size) : 0;
  if (kind == StorageFaultKind::kTruncateAfterCommit) {
    fs::resize_file(path, at, ec);
    return;
  }
  // kBitFlipAfterCommit
  // The fault shim itself mutates the committed
  // file in place; this is the simulated corruption, not a durability path.
  if (std::FILE* f = std::fopen(path.c_str(), "rb+")) {
    unsigned char byte = 0;
    if (std::fseek(f, static_cast<long>(at), SEEK_SET) == 0 &&
        std::fread(&byte, 1, 1, f) == 1) {
      byte = static_cast<unsigned char>(byte ^ 0x20u);
      if (std::fseek(f, static_cast<long>(at), SEEK_SET) == 0) {
        // Simulated bit rot; see above.
        (void)std::fwrite(&byte, 1, 1, f);
      }
    }
    std::fclose(f);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// IoStatus

const char* ToString(IoCode code) {
  switch (code) {
    case IoCode::kOk: return "ok";
    case IoCode::kNotFound: return "not-found";
    case IoCode::kOpenFailed: return "open-failed";
    case IoCode::kReadFailed: return "read-failed";
    case IoCode::kWriteFailed: return "write-failed";
    case IoCode::kFlushFailed: return "flush-failed";
    case IoCode::kSyncFailed: return "sync-failed";
    case IoCode::kCloseFailed: return "close-failed";
    case IoCode::kRenameFailed: return "rename-failed";
    case IoCode::kBadFrame: return "bad-frame";
    case IoCode::kBadVersion: return "bad-version";
    case IoCode::kBadTag: return "bad-tag";
    case IoCode::kTruncated: return "truncated";
    case IoCode::kTrailerCorrupt: return "trailer-corrupt";
    case IoCode::kPayloadCorrupt: return "payload-corrupt";
  }
  return "unknown";
}

IoStatus IoStatus::Error(IoCode code, std::string detail, int sys_errno) {
  IoStatus status;
  status.code = code;
  status.sys_errno = sys_errno;
  status.detail = std::move(detail);
  return status;
}

std::string IoStatus::ToString() const {
  std::string text = io::ToString(code);
  if (sys_errno != 0) {
    text += " (";
    text += std::strerror(sys_errno);
    text += ")";
  }
  if (!detail.empty()) {
    text += ": ";
    text += detail;
  }
  return text;
}

// ---------------------------------------------------------------------------
// CRC32C

namespace {

constexpr std::uint32_t kCrc32cPoly = 0x82f63b78u;  // reflected Castagnoli

struct Crc32cTable {
  std::uint32_t entries[256];
  Crc32cTable() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
      }
      entries[i] = crc;
    }
  }
};

// Raw kernels operate on the pre-inverted CRC state; the public entry
// points own the ~seed / ~result conditioning so every kernel is
// interchangeable.
std::uint32_t Crc32cRawSoftware(std::uint32_t crc, const std::uint8_t* data,
                                std::size_t len) {
  static const Crc32cTable table;
  for (std::size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table.entries[(crc ^ data[i]) & 0xffu];
  }
  return crc;
}

#if defined(__x86_64__)
#define CLOUDDNS_CRC32C_HW 1
constexpr const char* kHwCrcName = "sse4.2";

bool HwCrcSupported() { return __builtin_cpu_supports("sse4.2") != 0; }

__attribute__((target("sse4.2"))) std::uint32_t Crc32cRawHw(
    std::uint32_t crc, const std::uint8_t* data, std::size_t len) {
  std::uint64_t state = crc;
  while (len >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, data, 8);
    state = __builtin_ia32_crc32di(state, chunk);
    data += 8;
    len -= 8;
  }
  crc = static_cast<std::uint32_t>(state);
  while (len > 0) {
    crc = __builtin_ia32_crc32qi(crc, *data);
    ++data;
    --len;
  }
  return crc;
}
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define CLOUDDNS_CRC32C_HW 1
constexpr const char* kHwCrcName = "armv8-crc";

bool HwCrcSupported() {
#if defined(AT_HWCAP) && defined(HWCAP_CRC32)
  return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
#else
  // Compiled with +crc and no auxv to consult: the target mandates it.
  return true;
#endif
}

std::uint32_t Crc32cRawHw(std::uint32_t crc, const std::uint8_t* data,
                          std::size_t len) {
  while (len >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, data, 8);
    crc = __crc32cd(crc, chunk);
    data += 8;
    len -= 8;
  }
  while (len > 0) {
    crc = __crc32cb(crc, *data);
    ++data;
    --len;
  }
  return crc;
}
#else
#define CLOUDDNS_CRC32C_HW 0
#endif

using Crc32cRawFn = std::uint32_t (*)(std::uint32_t, const std::uint8_t*,
                                      std::size_t);

struct Crc32cDispatch {
  Crc32cRawFn fn;
  const char* name;
};

/// Dispatch rule (DESIGN.md §10): the hardware kernel is used only when
/// the CPU advertises it AND it reproduces the software table's result on
/// a known-answer vector ("123456789" -> 0xe3069283). Any disagreement —
/// miscompilation, misreported feature bit — silently falls back to
/// software, so file bytes can never depend on which kernel won.
Crc32cDispatch PickCrc32cKernel() {
#if CLOUDDNS_CRC32C_HW
  if (HwCrcSupported()) {
    static constexpr std::uint8_t kVector[] = {'1', '2', '3', '4', '5',
                                               '6', '7', '8', '9'};
    constexpr std::uint32_t kKnownAnswer = 0xe3069283u;
    const std::uint32_t sw = ~Crc32cRawSoftware(~0u, kVector, sizeof(kVector));
    const std::uint32_t hw = ~Crc32cRawHw(~0u, kVector, sizeof(kVector));
    if (sw == kKnownAnswer && hw == kKnownAnswer) {
      return {&Crc32cRawHw, kHwCrcName};
    }
  }
#endif
  return {&Crc32cRawSoftware, "software"};
}

const Crc32cDispatch& Crc32cKernel() {
  static const Crc32cDispatch dispatch = PickCrc32cKernel();
  return dispatch;
}

}  // namespace

std::uint32_t Crc32c(const std::uint8_t* data, std::size_t len,
                     std::uint32_t seed) {
  return ~Crc32cKernel().fn(~seed, data, len);
}

std::uint32_t Crc32c(const std::vector<std::uint8_t>& data,
                     std::uint32_t seed) {
  return Crc32c(data.data(), data.size(), seed);
}

std::uint32_t Crc32cSoftware(const std::uint8_t* data, std::size_t len,
                             std::uint32_t seed) {
  return ~Crc32cRawSoftware(~seed, data, len);
}

const char* Crc32cBackend() { return Crc32cKernel().name; }

// ---------------------------------------------------------------------------
// Framing

std::vector<std::uint8_t> WrapFrame(std::uint32_t content_tag,
                                    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out(kHeaderSize + payload.size() + kTrailerSize);
  std::memcpy(out.data(), kFrameMagic, sizeof(kFrameMagic));
  StoreU32(out.data() + sizeof(kFrameMagic), kFrameVersion);
  StoreU32(out.data() + sizeof(kFrameMagic) + 4, content_tag);
  StoreU64(out.data() + sizeof(kFrameMagic) + 8, payload.size());
  std::copy(payload.begin(), payload.end(), out.begin() + kHeaderSize);
  std::uint8_t* trailer = out.data() + kHeaderSize + payload.size();
  StoreU32(trailer, kTrailerMagic);
  StoreU32(trailer + 4, Crc32c(payload));
  return out;
}

IoStatus UnwrapFrame(const std::vector<std::uint8_t>& bytes,
                     std::uint32_t expected_tag,
                     std::vector<std::uint8_t>& payload, bool& framed,
                     std::uint32_t* tag_out) {
  framed = false;
  if (bytes.size() < sizeof(kFrameMagic) ||
      !std::equal(std::begin(kFrameMagic), std::end(kFrameMagic),
                  bytes.begin())) {
    return IoStatus::Ok();  // no frame magic: the caller decides
  }
  framed = true;
  if (bytes.size() < kHeaderSize) {
    return IoStatus::Error(IoCode::kBadFrame, "frame header truncated");
  }
  const std::uint32_t version = LoadU32(bytes.data() + sizeof(kFrameMagic));
  const std::uint32_t tag = LoadU32(bytes.data() + sizeof(kFrameMagic) + 4);
  const std::uint64_t payload_len =
      LoadU64(bytes.data() + sizeof(kFrameMagic) + 8);
  if (version != kFrameVersion) {
    return IoStatus::Error(IoCode::kBadVersion,
                           "frame version " + std::to_string(version));
  }
  if (tag_out != nullptr) *tag_out = tag;
  if (expected_tag != kTagAny && tag != expected_tag) {
    return IoStatus::Error(IoCode::kBadTag,
                           "content tag mismatch: file holds a different "
                           "artifact kind");
  }
  // The declared length must account for every byte after the header:
  // fewer is a torn file, more is junk appended after the trailer.
  const std::size_t body = bytes.size() - kHeaderSize;
  if (payload_len > body || body - payload_len < kTrailerSize) {
    return IoStatus::Error(IoCode::kTruncated,
                           "frame ends before its declared payload and "
                           "trailer");
  }
  if (body - payload_len > kTrailerSize) {
    return IoStatus::Error(
        IoCode::kBadFrame,
        std::to_string(body - payload_len - kTrailerSize) +
            " trailing bytes after the frame trailer");
  }
  const std::uint8_t* data = bytes.data() + kHeaderSize;
  const std::size_t len = static_cast<std::size_t>(payload_len);
  if (LoadU32(data + len) != kTrailerMagic ||
      LoadU32(data + len + 4) != Crc32c(data, len)) {
    return IoStatus::Error(IoCode::kTrailerCorrupt,
                           "payload CRC/trailer mismatch");
  }
  payload.assign(data, data + len);
  return IoStatus::Ok();
}

// ---------------------------------------------------------------------------
// Fault shim

const char* ToString(StorageFaultKind kind) {
  switch (kind) {
    case StorageFaultKind::kOpenFail: return "open-fail";
    case StorageFaultKind::kShortWrite: return "short-write";
    case StorageFaultKind::kEnospc: return "enospc";
    case StorageFaultKind::kEintrOnce: return "eintr-once";
    case StorageFaultKind::kFsyncFail: return "fsync-fail";
    case StorageFaultKind::kRenameFail: return "rename-fail";
    case StorageFaultKind::kBitFlipAfterCommit: return "bit-flip-after-commit";
    case StorageFaultKind::kTruncateAfterCommit:
      return "truncate-after-commit";
    case StorageFaultKind::kZeroAfterCommit: return "zero-after-commit";
  }
  return "unknown";
}

bool StorageFaultInjector::Consume(const std::string& path,
                                   StorageFaultKind kind,
                                   std::uint64_t* offset_out) {
  for (StorageFault& fault : faults_) {
    if (fault.kind != kind || fault.fire_count == 0) continue;
    if (path.find(fault.path_substring) == std::string::npos) continue;
    if (fault.fire_count > 0) --fault.fire_count;
    ++fired_;
    if (offset_out != nullptr) *offset_out = fault.offset;
    return true;
  }
  return false;
}

std::uint64_t StorageFaultInjector::DeriveOffset(
    const std::string& path, std::uint64_t explicit_offset,
    std::uint64_t size) const {
  if (explicit_offset != kAutoOffset) {
    return size == 0 ? 0 : explicit_offset % size;
  }
  if (size == 0) return 0;
  // A pure function of (seed, path), which keeps the fault sweep
  // reproducible.
  return Mix64((seed_ ^ Fnv1a(path, kFnvOffsetBasis)) + kGoldenGamma) % size;
}

void SetStorageFaultInjector(StorageFaultInjector* injector) {
  g_injector = injector;
}

StorageFaultInjector* GetStorageFaultInjector() { return g_injector; }

// ---------------------------------------------------------------------------
// FileWriter

FileWriter::FileWriter(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {
  if (g_injector != nullptr &&
      g_injector->Consume(path_, StorageFaultKind::kOpenFail, nullptr)) {
    Fail(IoCode::kOpenFailed, "injected open failure for " + tmp_path_,
         EACCES);
    return;
  }
  // This class IS the checked-I/O primitive; the
  // raw handle never escapes and every result feeds status_.
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (file_ == nullptr) {
    Fail(IoCode::kOpenFailed, "cannot open " + tmp_path_, errno);
  }
}

FileWriter::~FileWriter() {
  if (!done_) Abort();
}

void FileWriter::Fail(IoCode code, std::string detail, int sys_errno) {
  if (!status_.ok()) return;  // first failure wins
  status_ = IoStatus::Error(code, std::move(detail), sys_errno);
}

void FileWriter::Append(const std::uint8_t* data, std::size_t len) {
  if (!status_.ok() || file_ == nullptr || len == 0) return;

  // Injected mid-buffer faults: a prefix lands on disk, then the write
  // fails (kShortWrite/kEnospc) or is merely interrupted (kEintrOnce —
  // the retry below must complete it).
  std::size_t write_len = len;
  bool injected_fail = false;
  bool injected_eintr = false;
  int injected_errno = 0;
  std::uint64_t fault_offset = kAutoOffset;
  if (g_injector != nullptr) {
    if (g_injector->Consume(path_, StorageFaultKind::kEnospc, &fault_offset)) {
      injected_fail = true;
      injected_errno = ENOSPC;
    } else if (g_injector->Consume(path_, StorageFaultKind::kShortWrite,
                                   &fault_offset)) {
      injected_fail = true;
      injected_errno = EIO;
    } else if (g_injector->Consume(path_, StorageFaultKind::kEintrOnce,
                                   &fault_offset)) {
      injected_eintr = true;
      injected_errno = EINTR;
    }
    if (injected_fail || injected_eintr) {
      write_len = static_cast<std::size_t>(
          g_injector->DeriveOffset(path_, fault_offset, len));
    }
  }

  std::size_t written = 0;
  for (int attempt = 0; attempt < 4 && written < write_len; ++attempt) {
    // The checked primitive itself.
    std::size_t n = std::fwrite(data + written, 1, write_len - written, file_);
    written += n;
    if (written < write_len && errno != EINTR) break;
  }
  offset_ += written;
  if (injected_fail) {
    Fail(IoCode::kWriteFailed,
         "fwrite wrote " + std::to_string(written) + "/" +
             std::to_string(len) + " bytes to " + tmp_path_,
         injected_errno);
    return;
  }
  if (written < write_len) {
    Fail(IoCode::kWriteFailed,
         "fwrite wrote " + std::to_string(written) + "/" +
             std::to_string(len) + " bytes to " + tmp_path_,
         errno);
    return;
  }
  if (injected_eintr && write_len < len) {
    // The interrupted call persisted a prefix; a robust writer resumes
    // where it left off. Recurse for the remainder (the fault has been
    // consumed, so this completes unless another fault is armed).
    Append(data + write_len, len - write_len);
  }
}

void FileWriter::Append(const std::vector<std::uint8_t>& bytes) {
  Append(bytes.data(), bytes.size());
}

IoStatus FileWriter::Commit() {
  done_ = true;
  if (file_ != nullptr) {
    if (status_.ok() && std::fflush(file_) != 0) {
      Fail(IoCode::kFlushFailed, "fflush " + tmp_path_, errno);
    }
    if (status_.ok()) {
      if (g_injector != nullptr &&
          g_injector->Consume(path_, StorageFaultKind::kFsyncFail, nullptr)) {
        Fail(IoCode::kSyncFailed, "injected fsync failure for " + tmp_path_,
             EIO);
      }
#ifndef _WIN32
      else if (::fsync(::fileno(file_)) != 0) {
        Fail(IoCode::kSyncFailed, "fsync " + tmp_path_, errno);
      }
#endif
    }
    const int close_result = std::fclose(file_);
    file_ = nullptr;
    if (status_.ok() && close_result != 0) {
      Fail(IoCode::kCloseFailed, "fclose " + tmp_path_, errno);
    }
  }
  if (!status_.ok()) {
    std::remove(tmp_path_.c_str());
    return status_;
  }
  if (g_injector != nullptr &&
      g_injector->Consume(path_, StorageFaultKind::kRenameFail, nullptr)) {
    std::remove(tmp_path_.c_str());
    Fail(IoCode::kRenameFailed, "injected rename failure for " + path_, EXDEV);
    return status_;
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    const int rename_errno = errno;
    std::remove(tmp_path_.c_str());
    Fail(IoCode::kRenameFailed, "rename " + tmp_path_ + " -> " + path_,
         rename_errno);
    return status_;
  }
  // Post-commit corruption faults: the commit SUCCEEDS (that is the
  // point — bit rot is silent) and the next read must detect the damage.
  if (g_injector != nullptr) {
    std::uint64_t offset = kAutoOffset;
    for (StorageFaultKind kind : {StorageFaultKind::kBitFlipAfterCommit,
                                  StorageFaultKind::kTruncateAfterCommit,
                                  StorageFaultKind::kZeroAfterCommit}) {
      if (g_injector->Consume(path_, kind, &offset)) {
        CorruptCommittedFile(path_, kind, offset);
      }
    }
  }
  return status_;
}

void FileWriter::Abort() {
  done_ = true;
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  std::remove(tmp_path_.c_str());
}

// ---------------------------------------------------------------------------
// Whole-file helpers

IoStatus ReadFileBytes(const std::string& path,
                       std::vector<std::uint8_t>& out) {
  // The checked read primitive itself.
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    const int open_errno = errno;
    return IoStatus::Error(
        open_errno == ENOENT ? IoCode::kNotFound : IoCode::kOpenFailed,
        "open " + path, open_errno);
  }
  IoStatus status;
  long size = -1;
  if (std::fseek(file, 0, SEEK_END) != 0 || (size = std::ftell(file)) < 0 ||
      std::fseek(file, 0, SEEK_SET) != 0) {
    status = IoStatus::Error(IoCode::kReadFailed, "seek " + path, errno);
  } else {
    out.resize(static_cast<std::size_t>(size));
    std::size_t read = out.empty()
                           ? 0
                           // checked primitive
                           : std::fread(out.data(), 1, out.size(), file);
    if (read != out.size()) {
      status = IoStatus::Error(IoCode::kReadFailed,
                               "fread read " + std::to_string(read) + "/" +
                                   std::to_string(out.size()) + " bytes of " +
                                   path,
                               errno);
    }
  }
  std::fclose(file);
  return status;
}

IoStatus WriteFileAtomic(const std::string& path,
                         const std::vector<std::uint8_t>& bytes) {
  FileWriter writer(path);
  writer.Append(bytes);
  return writer.Commit();
}

IoStatus WriteFramedFile(const std::string& path, std::uint32_t content_tag,
                         const std::vector<std::uint8_t>& payload) {
  return WriteFileAtomic(path, WrapFrame(content_tag, payload));
}

IoStatus ReadFramedFile(const std::string& path, std::uint32_t expected_tag,
                        std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> bytes;
  IoStatus status = ReadFileBytes(path, bytes);
  if (!status.ok()) return status;
  bool framed = false;
  status = UnwrapFrame(bytes, expected_tag, payload, framed);
  if (status.ok() && !framed) {
    return IoStatus::Error(IoCode::kBadFrame, "unframed file " + path);
  }
  return status;
}

// ---------------------------------------------------------------------------
// Quarantine & recovery

std::string QuarantineFile(const std::string& path, const std::string& reason) {
  std::error_code ec;
  const fs::path source(path);
  const fs::path dir = source.parent_path() / ".quarantine";
  fs::create_directories(dir, ec);
  fs::path target;
  for (int n = 1; n < 10000; ++n) {
    fs::path candidate =
        dir / (source.filename().string() + "." + std::to_string(n));
    if (!fs::exists(candidate, ec)) {
      target = candidate;
      break;
    }
  }
  if (target.empty()) {
    fs::remove(source, ec);
    return "";
  }
  fs::rename(source, target, ec);
  if (ec) {
    // Cross-device or permission trouble: the one invariant is that the
    // corrupt artifact must not be re-read, so fall back to deleting it.
    fs::remove(source, ec);
    return "";
  }
  const std::string reason_path = target.string() + ".reason";
  // Best-effort breadcrumb; quarantine itself already succeeded.
  FileWriter writer(reason_path);
  const std::string text = "artifact: " + path + "\nreason: " + reason + "\n";
  writer.Append(reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size());
  (void)writer.Commit();
  return target.string();
}

std::size_t RemoveStrandedTmpFiles(const std::string& dir) {
  std::error_code ec;
  std::size_t removed = 0;
  for (fs::directory_iterator it(dir, ec), end; it != end; it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      std::error_code remove_ec;
      if (fs::remove(it->path(), remove_ec)) ++removed;
    }
  }
  return removed;
}

}  // namespace clouddns::base::io
