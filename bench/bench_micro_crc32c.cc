// CRC32C kernel microbenchmark: software table vs the dispatched hardware
// kernel (SSE4.2 / ARMv8-CRC when the host has one), and whole-payload vs
// per-64KiB-block + Crc32cCombine fold — the exact shapes the CLDFRAM1
// block-parallel codec runs on every capture read/write. Exits non-zero
// if the kernels disagree on the payload CRC.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <vector>

#include "common.h"

using namespace clouddns;

namespace {

constexpr std::size_t kPayloadBytes = 32u * 1024 * 1024;
constexpr int kReps = 5;

/// Best-of-kReps wall seconds for one full-payload pass of `fn`.
template <typename Fn>
double BestSeconds(Fn&& fn) {
  double best = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (s < best) best = s;
  }
  return best;
}

double Gbps(double seconds) {
  return seconds > 0 ? static_cast<double>(kPayloadBytes) / seconds / 1e9
                     : 0.0;
}

/// Per-block CRC of the payload at CLDFRAM1 granularity, folded back into
/// the whole-payload value with Crc32cCombine — the associativity the
/// block-parallel frame trailer relies on.
template <typename Kernel>
std::uint32_t BlockwiseCrc(const std::vector<std::uint8_t>& payload,
                           Kernel&& kernel) {
  std::uint32_t combined = 0;
  for (std::size_t off = 0; off < payload.size();
       off += base::io::kFrameBlockSize) {
    const std::size_t len =
        std::min(base::io::kFrameBlockSize, payload.size() - off);
    combined = base::io::Crc32cCombine(combined, kernel(payload.data() + off, len),
                                   len);
  }
  return combined;
}

}  // namespace

int main() {
  std::fputs(analysis::Banner(
                 "CRC32C microbench",
                 "software vs hardware kernel, whole vs per-block")
                 .c_str(),
             stdout);

  std::vector<std::uint8_t> payload(kPayloadBytes);
  std::mt19937_64 rng(20201027);
  for (std::size_t i = 0; i < payload.size(); i += 8) {
    const std::uint64_t word = rng();
    for (std::size_t b = 0; b < 8 && i + b < payload.size(); ++b) {
      payload[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }

  const auto software = [](const std::uint8_t* data, std::size_t len) {
    return base::io::Crc32cSoftware(data, len);
  };
  const auto dispatched = [](const std::uint8_t* data, std::size_t len) {
    return base::io::Crc32c(data, len);
  };

  const std::uint32_t want = base::io::Crc32cSoftware(payload.data(),
                                                  payload.size());
  std::uint32_t got_hw = 0, got_sw_block = 0, got_hw_block = 0;
  const double sw_whole = BestSeconds(
      [&] { (void)base::io::Crc32cSoftware(payload.data(), payload.size()); });
  const double hw_whole = BestSeconds(
      [&] { got_hw = base::io::Crc32c(payload.data(), payload.size()); });
  const double sw_block =
      BestSeconds([&] { got_sw_block = BlockwiseCrc(payload, software); });
  const double hw_block =
      BestSeconds([&] { got_hw_block = BlockwiseCrc(payload, dispatched); });
  if (got_hw != want || got_sw_block != want || got_hw_block != want) {
    std::fprintf(stderr,
                 "FATAL: CRC32C kernel disagreement (sw=%08x hw=%08x "
                 "sw_block=%08x hw_block=%08x)\n",
                 want, got_hw, got_sw_block, got_hw_block);
    return 1;
  }

  analysis::TextTable table({"kernel", "shape", "GB/s", "vs sw-whole"});
  const double base_gbps = Gbps(sw_whole);
  auto add = [&](const char* kernel, const char* shape, double seconds) {
    table.AddRow({kernel, shape, analysis::Fixed(Gbps(seconds), 2),
                  analysis::Fixed(base_gbps > 0 ? Gbps(seconds) / base_gbps
                                                : 0.0,
                                  2) +
                      "x"});
  };
  add("software", "whole-payload", sw_whole);
  add(base::io::Crc32cBackend(), "whole-payload", hw_whole);
  add("software", "per-64KiB-block", sw_block);
  add(base::io::Crc32cBackend(), "per-64KiB-block", hw_block);
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nDispatched backend: %s. All four shapes agree on the payload CRC\n"
      "(%08x), including the per-block Crc32cCombine fold the CLDFRAM1\n"
      "trailer uses.\n",
      base::io::Crc32cBackend(), want);
  return 0;
}
