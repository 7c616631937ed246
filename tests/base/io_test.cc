// The durable-storage primitives (DESIGN.md §14): CRC32C correctness,
// frame wrap/unwrap against a corruption matrix and a seeded mutation
// loop, the atomic FileWriter under every injected fault kind,
// quarantine, and the stranded-temp sweep. These are the invariants the
// self-healing dataset cache builds on, so each is pinned at the
// primitive level here.
#include "base/io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace clouddns::base::io {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> Bytes(const std::string& text) {
  return {text.begin(), text.end()};
}

std::string TempPath(const char* name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

/// Installs an injector for one test body and guarantees removal, so a
/// failing assertion cannot leak faults into later tests.
struct ScopedInjector {
  explicit ScopedInjector(StorageFaultInjector& injector) {
    SetStorageFaultInjector(&injector);
  }
  ~ScopedInjector() { SetStorageFaultInjector(nullptr); }
};

// ---------------------------------------------------------------------------
// CRC32C

TEST(Crc32cTest, MatchesTheCastagnoliKnownAnswer) {
  // RFC 3720 appendix B.4 check value for "123456789".
  const auto data = Bytes("123456789");
  EXPECT_EQ(Crc32c(data), 0xE3069283u);
  EXPECT_EQ(Crc32c(std::vector<std::uint8_t>{}), 0u);
}

TEST(Crc32cTest, ChainsAcrossBlockBoundaries) {
  const auto whole = Bytes("clouding up the internet");
  for (std::size_t split = 0; split <= whole.size(); ++split) {
    const std::uint32_t head = Crc32c(whole.data(), split);
    EXPECT_EQ(Crc32c(whole.data() + split, whole.size() - split, head),
              Crc32c(whole))
        << "chain broken at split " << split;
  }
}

TEST(Crc32cTest, SoftwareKernelMatchesTheDispatchedOne) {
  // The dispatcher only accepts a hardware kernel after a known-answer
  // cross-check, so the two must agree on arbitrary data — including the
  // odd lengths that exercise the hardware kernel's byte tail.
  const char* backend = Crc32cBackend();
  EXPECT_TRUE(std::string_view(backend) == "sse4.2" ||
              std::string_view(backend) == "armv8-crc" ||
              std::string_view(backend) == "software")
      << backend;
  std::vector<std::uint8_t> data(4099);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 53 + 11);
  }
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{8}, std::size_t{9}, std::size_t{4099}}) {
    EXPECT_EQ(Crc32c(data.data(), len), Crc32cSoftware(data.data(), len))
        << "kernels disagree at len " << len;
  }
  EXPECT_EQ(Crc32cSoftware(Bytes("123456789").data(), 9), 0xE3069283u);
}

// ---------------------------------------------------------------------------
// Framing

/// The verdict a framed-file reader gets for `bytes`: UnwrapFrame's code,
/// with a missing frame magic counted as kBadFrame as ReadFramedFile does.
IoCode FramedVerdict(const std::vector<std::uint8_t>& bytes,
                     std::vector<std::uint8_t>& out) {
  bool framed = false;
  const IoStatus status = UnwrapFrame(bytes, kTagCapture, out, framed);
  if (status.ok() && !framed) return IoCode::kBadFrame;
  return status.code;
}

TEST(FrameTest, RoundTripsPayloadsAcrossBlockBoundaries) {
  // Sizes straddle the hardware CRC kernel's 8-byte stride and 64 KiB.
  for (std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{65535}, std::size_t{65536},
        std::size_t{65537}, std::size_t{196625}}) {
    std::vector<std::uint8_t> payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }
    const auto framed_bytes = WrapFrame(kTagCapture, payload);
    std::vector<std::uint8_t> out;
    bool framed = false;
    std::uint32_t tag = 0;
    const IoStatus status =
        UnwrapFrame(framed_bytes, kTagCapture, out, framed, &tag);
    ASSERT_TRUE(status.ok()) << size << ": " << status.ToString();
    EXPECT_TRUE(framed);
    EXPECT_EQ(tag, kTagCapture);
    EXPECT_EQ(out, payload) << "payload mangled at size " << size;
  }
}

TEST(FrameTest, LegacyBytesPassThroughUntouched) {
  const auto legacy = Bytes("CDNS-legacy-columnar-bytes");
  std::vector<std::uint8_t> out = Bytes("sentinel");
  bool framed = true;
  const IoStatus status = UnwrapFrame(legacy, kTagCapture, out, framed);
  EXPECT_TRUE(status.ok());
  EXPECT_FALSE(framed);
  // The caller decides what unframed bytes mean (raw pcap import,
  // `cdnstool verify`); `out` must not be clobbered.
  EXPECT_EQ(out, Bytes("sentinel"));
}

TEST(FrameTest, DetectsEveryCorruptionKind) {
  std::vector<std::uint8_t> payload(4196, 0xAB);
  const auto intact = WrapFrame(kTagCapture, payload);
  std::vector<std::uint8_t> out;
  bool framed = false;

  // Header truncated mid-magic-suffix.
  auto header_cut = intact;
  header_cut.resize(10);
  EXPECT_EQ(UnwrapFrame(header_cut, kTagCapture, out, framed).code,
            IoCode::kBadFrame);

  // Future frame version.
  auto wrong_version = intact;
  wrong_version[11] = 0x7F;  // low byte of the big-endian version word
  EXPECT_EQ(UnwrapFrame(wrong_version, kTagCapture, out, framed).code,
            IoCode::kBadVersion);

  // Right frame, wrong artifact kind.
  EXPECT_EQ(UnwrapFrame(intact, kTagShards, out, framed).code, IoCode::kBadTag);
  EXPECT_TRUE(UnwrapFrame(intact, kTagAny, out, framed).ok());

  // Torn mid-payload.
  auto truncated = intact;
  truncated.resize(intact.size() / 2);
  EXPECT_EQ(UnwrapFrame(truncated, kTagCapture, out, framed).code,
            IoCode::kTruncated);

  // Single flipped payload byte: the one payload CRC catches it.
  auto flipped = intact;
  flipped[sizeof("CLDFRAM1") - 1 + 16 + 3000] ^= 0x01;
  EXPECT_EQ(UnwrapFrame(flipped, kTagCapture, out, framed).code,
            IoCode::kTrailerCorrupt);

  // Junk appended after an intact trailer.
  auto appended = intact;
  appended.push_back(0x00);
  EXPECT_EQ(UnwrapFrame(appended, kTagCapture, out, framed).code,
            IoCode::kBadFrame);

  // Trailer magic damaged (payload CRC intact).
  auto bad_trailer = intact;
  bad_trailer[bad_trailer.size() - 8] ^= 0xFF;
  EXPECT_EQ(UnwrapFrame(bad_trailer, kTagCapture, out, framed).code,
            IoCode::kTrailerCorrupt);
}

TEST(FrameTest, EveryByteFlipIsDetected) {
  std::vector<std::uint8_t> payload(300);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 53 + 11);
  }
  const auto intact = WrapFrame(kTagCapture, payload);
  std::vector<std::uint8_t> out;
  ASSERT_EQ(FramedVerdict(intact, out), IoCode::kOk);
  EXPECT_EQ(out, payload);
  // Header, payload and trailer alike: one flipped byte per unwrap.
  for (std::size_t at = 0; at < intact.size(); ++at) {
    auto damaged = intact;
    damaged[at] ^= 0x01;
    EXPECT_NE(FramedVerdict(damaged, out), IoCode::kOk) << "byte " << at;
  }
}

TEST(FrameTest, MutatedFramesFailTypedOrReturnThePayload) {
  // Seeded mutation loop over UnwrapFrame: truncation, bit flips, zeroed
  // ranges and appended bytes. Every outcome is a frame-level error code
  // or the exact original payload — never a crash, never other bytes.
  std::mt19937_64 rng(27);
  for (std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{300},
                           std::size_t{5000}}) {
    std::vector<std::uint8_t> payload(size);
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
    const auto intact = WrapFrame(kTagCapture, payload);
    for (int round = 0; round < 500; ++round) {
      auto mutated = intact;
      switch (rng() % 4) {
        case 0:
          mutated.resize(rng() % mutated.size());
          break;
        case 1:
          for (int f = 1 + static_cast<int>(rng() % 4); f > 0; --f) {
            mutated[rng() % mutated.size()] ^=
                static_cast<std::uint8_t>(1u << (rng() % 8));
          }
          break;
        case 2: {
          const std::size_t from = rng() % mutated.size();
          const std::size_t to = from + 1 + rng() % (mutated.size() - from);
          std::fill(mutated.begin() + from, mutated.begin() + to, 0);
          break;
        }
        default:
          for (int n = 1 + static_cast<int>(rng() % 16); n > 0; --n) {
            mutated.push_back(static_cast<std::uint8_t>(rng()));
          }
          break;
      }
      std::vector<std::uint8_t> out;
      const IoCode code = FramedVerdict(mutated, out);
      if (code == IoCode::kOk) {
        EXPECT_EQ(out, payload) << "size " << size << ", round " << round;
        continue;
      }
      EXPECT_TRUE(code == IoCode::kBadFrame || code == IoCode::kBadVersion ||
                  code == IoCode::kBadTag || code == IoCode::kTruncated ||
                  code == IoCode::kTrailerCorrupt)
          << ToString(code) << " at size " << size << ", round " << round;
    }
  }
}

// ---------------------------------------------------------------------------
// FileWriter + whole-file helpers

TEST(FileWriterTest, CommitsAtomicallyAndLeavesNoTemp) {
  const std::string path = TempPath("io_writer_basic.bin");
  fs::remove(path);
  const auto payload = Bytes("atomic payload");
  ASSERT_TRUE(WriteFileAtomic(path, payload).ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  std::vector<std::uint8_t> read_back;
  ASSERT_TRUE(ReadFileBytes(path, read_back).ok());
  EXPECT_EQ(read_back, payload);
  fs::remove(path);
}

TEST(FileWriterTest, AbortLeavesNothingBehind) {
  const std::string path = TempPath("io_writer_abort.bin");
  fs::remove(path);
  {
    FileWriter writer(path);
    writer.Append(Bytes("never lands"));
    writer.Abort();
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(FileWriterTest, MissingFileReadsAsNotFound) {
  std::vector<std::uint8_t> out;
  const IoStatus status = ReadFileBytes(TempPath("io_no_such_file"), out);
  EXPECT_EQ(status.code, IoCode::kNotFound);
  EXPECT_NE(status.sys_errno, 0);
}

TEST(FileWriterTest, FramedFileRoundTripsThroughDisk) {
  const std::string path = TempPath("io_framed_roundtrip.bin");
  const auto payload = Bytes("framed on disk");
  ASSERT_TRUE(WriteFramedFile(path, kTagContext, payload).ok());

  std::vector<std::uint8_t> out;
  ASSERT_TRUE(ReadFramedFile(path, kTagContext, out).ok());
  EXPECT_EQ(out, payload);

  // The same payload without its frame is rejected, not passed through.
  ASSERT_TRUE(WriteFileAtomic(path, payload).ok());
  EXPECT_EQ(ReadFramedFile(path, kTagContext, out).code, IoCode::kBadFrame);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Deterministic fault shim

TEST(StorageFaultTest, WritePhaseFaultsFailTypedAndPreserveTheOldFile) {
  struct Case {
    StorageFaultKind kind;
    IoCode expected;
    int expected_errno;
  };
  const Case cases[] = {
      {StorageFaultKind::kOpenFail, IoCode::kOpenFailed, EACCES},
      {StorageFaultKind::kShortWrite, IoCode::kWriteFailed, EIO},
      {StorageFaultKind::kEnospc, IoCode::kWriteFailed, ENOSPC},
      {StorageFaultKind::kFsyncFail, IoCode::kSyncFailed, EIO},
      {StorageFaultKind::kRenameFail, IoCode::kRenameFailed, EXDEV},
  };
  const std::string path = TempPath("io_fault_typed.bin");
  const auto old_content = Bytes("previous intact generation");
  for (const Case& c : cases) {
    fs::remove(path);
    ASSERT_TRUE(WriteFileAtomic(path, old_content).ok());

    StorageFaultInjector injector(1);
    injector.Add({"io_fault_typed", c.kind, 4, 1});
    ScopedInjector scope(injector);
    const IoStatus status = WriteFileAtomic(path, Bytes("new generation"));
    EXPECT_EQ(status.code, c.expected) << ToString(c.kind);
    EXPECT_EQ(status.sys_errno, c.expected_errno) << ToString(c.kind);
    EXPECT_EQ(injector.fired(), 1u) << ToString(c.kind);
    EXPECT_FALSE(fs::exists(path + ".tmp")) << ToString(c.kind);

    // Atomicity: the destination still holds the old intact generation.
    std::vector<std::uint8_t> survivor;
    ASSERT_TRUE(ReadFileBytes(path, survivor).ok()) << ToString(c.kind);
    EXPECT_EQ(survivor, old_content) << ToString(c.kind);
  }
  fs::remove(path);
}

TEST(StorageFaultTest, EintrIsRetriedToCompletion) {
  const std::string path = TempPath("io_fault_eintr.bin");
  fs::remove(path);
  std::vector<std::uint8_t> payload(1000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }

  StorageFaultInjector injector(2);
  injector.Add({"io_fault_eintr", StorageFaultKind::kEintrOnce, 137, 1});
  ScopedInjector scope(injector);
  ASSERT_TRUE(WriteFileAtomic(path, payload).ok());
  EXPECT_EQ(injector.fired(), 1u);

  std::vector<std::uint8_t> read_back;
  ASSERT_TRUE(ReadFileBytes(path, read_back).ok());
  EXPECT_EQ(read_back, payload);
  fs::remove(path);
}

TEST(StorageFaultTest, PostCommitFaultsAreSilentUntilTheNextRead) {
  struct Case {
    StorageFaultKind kind;
    std::uint64_t offset;
  };
  const Case cases[] = {
      {StorageFaultKind::kBitFlipAfterCommit, 40},
      {StorageFaultKind::kTruncateAfterCommit, 20},
      {StorageFaultKind::kZeroAfterCommit, kAutoOffset},
  };
  const std::string path = TempPath("io_fault_postcommit.bin");
  const auto payload = Bytes("payload that must be found damaged later");
  for (const Case& c : cases) {
    fs::remove(path);
    StorageFaultInjector injector(3);
    injector.Add({"io_fault_postcommit", c.kind, c.offset, 1});
    ScopedInjector scope(injector);

    // The commit itself reports success — bit rot is silent.
    ASSERT_TRUE(WriteFramedFile(path, kTagCapture, payload).ok())
        << ToString(c.kind);
    EXPECT_EQ(injector.fired(), 1u) << ToString(c.kind);

    // The read path is what must notice.
    std::vector<std::uint8_t> out;
    const IoStatus status = ReadFramedFile(path, kTagCapture, out);
    EXPECT_FALSE(status.ok()) << ToString(c.kind);
    if (c.kind == StorageFaultKind::kZeroAfterCommit) {
      // An emptied file has no frame magic.
      EXPECT_EQ(status.code, IoCode::kBadFrame);
    }
  }
  fs::remove(path);
}

TEST(StorageFaultTest, AutoOffsetsAreAPureFunctionOfSeedPathAndSize) {
  StorageFaultInjector a(42);
  StorageFaultInjector b(42);
  StorageFaultInjector other_seed(43);
  const std::string path = "cache/nz_2019.cdns";
  const std::uint64_t off = a.DeriveOffset(path, kAutoOffset, 10'000);
  EXPECT_LT(off, 10'000u);
  EXPECT_EQ(off, b.DeriveOffset(path, kAutoOffset, 10'000));
  EXPECT_NE(off, other_seed.DeriveOffset(path, kAutoOffset, 10'000));
  EXPECT_NE(off, a.DeriveOffset("cache/nz_2019.ctx", kAutoOffset, 10'000));
  // Explicit offsets are honoured modulo the file size.
  EXPECT_EQ(a.DeriveOffset(path, 12'345, 10'000), 2'345u);
  EXPECT_EQ(a.DeriveOffset(path, 7, 0), 0u);
}

TEST(StorageFaultTest, FaultsMatchByPathSubstringAndArmCount) {
  StorageFaultInjector injector(0);
  injector.Add({".ctx", StorageFaultKind::kFsyncFail, kAutoOffset, 2});
  EXPECT_FALSE(
      injector.Consume("cache/a.cdns", StorageFaultKind::kFsyncFail, nullptr));
  EXPECT_FALSE(
      injector.Consume("cache/a.ctx", StorageFaultKind::kRenameFail, nullptr));
  EXPECT_TRUE(
      injector.Consume("cache/a.ctx", StorageFaultKind::kFsyncFail, nullptr));
  EXPECT_TRUE(
      injector.Consume("cache/b.ctx", StorageFaultKind::kFsyncFail, nullptr));
  EXPECT_FALSE(  // fire_count exhausted
      injector.Consume("cache/c.ctx", StorageFaultKind::kFsyncFail, nullptr));
  EXPECT_EQ(injector.fired(), 2u);
}

// ---------------------------------------------------------------------------
// Quarantine & stranded-temp sweep

TEST(QuarantineTest, MovesTheArtifactBesideAReasonFile) {
  const std::string dir = TempPath("io_quarantine_dir");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/bad.cdns";
  ASSERT_TRUE(WriteFileAtomic(path, Bytes("corrupt bytes")).ok());

  const std::string moved = QuarantineFile(path, "payload CRC mismatch");
  EXPECT_EQ(moved, dir + "/.quarantine/bad.cdns.1");
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(moved));

  std::vector<std::uint8_t> reason;
  ASSERT_TRUE(ReadFileBytes(moved + ".reason", reason).ok());
  const std::string text(reason.begin(), reason.end());
  EXPECT_NE(text.find("payload CRC mismatch"), std::string::npos);
  EXPECT_NE(text.find(path), std::string::npos);

  // A second corrupt generation of the same name gets the next slot.
  ASSERT_TRUE(WriteFileAtomic(path, Bytes("corrupt again")).ok());
  EXPECT_EQ(QuarantineFile(path, "again"), dir + "/.quarantine/bad.cdns.2");
  fs::remove_all(dir);
}

TEST(QuarantineTest, SweepRemovesOnlyStrandedTempFiles) {
  const std::string dir = TempPath("io_tmp_sweep_dir");
  fs::remove_all(dir);
  fs::create_directories(dir);
  ASSERT_TRUE(WriteFileAtomic(dir + "/keep.cdns", Bytes("artifact")).ok());
  // Simulate a crashed writer: temp files that never got renamed away.
  ASSERT_TRUE(
      WriteFileAtomic(dir + "/stranded.cdns.tmp", Bytes("torn")).ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/also.ctx.tmp", Bytes("torn")).ok());

  EXPECT_EQ(RemoveStrandedTmpFiles(dir), 2u);
  EXPECT_TRUE(fs::exists(dir + "/keep.cdns"));
  EXPECT_FALSE(fs::exists(dir + "/stranded.cdns.tmp"));
  EXPECT_FALSE(fs::exists(dir + "/also.ctx.tmp"));
  EXPECT_EQ(RemoveStrandedTmpFiles(dir), 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace clouddns::base::io
