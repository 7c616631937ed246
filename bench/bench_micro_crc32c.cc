// CRC32C kernel microbenchmark: software table vs the dispatched hardware
// kernel (SSE4.2 / ARMv8-CRC when the host has one) over one whole
// payload — the single pass the CLDFRAM1 frame codec runs on every
// artifact read and write. Exits non-zero if the kernels disagree on the
// payload CRC.
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

}  // namespace

int main() {
  std::fputs(analysis::Banner("CRC32C microbench",
                              "software vs hardware kernel, whole payload")
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

  const std::uint32_t want = base::io::Crc32cSoftware(payload.data(),
                                                  payload.size());
  std::uint32_t got_hw = 0;
  const double sw = BestSeconds(
      [&] { (void)base::io::Crc32cSoftware(payload.data(), payload.size()); });
  const double hw = BestSeconds(
      [&] { got_hw = base::io::Crc32c(payload.data(), payload.size()); });
  if (got_hw != want) {
    std::fprintf(stderr,
                 "FATAL: CRC32C kernel disagreement (sw=%08x hw=%08x)\n",
                 want, got_hw);
    return 1;
  }

  analysis::TextTable table({"kernel", "GB/s", "vs software"});
  const double base_gbps = Gbps(sw);
  auto add = [&](const char* kernel, double seconds) {
    table.AddRow({kernel, analysis::Fixed(Gbps(seconds), 2),
                  analysis::Fixed(base_gbps > 0 ? Gbps(seconds) / base_gbps
                                                : 0.0,
                                  2) +
                      "x"});
  };
  add("software", sw);
  add(base::io::Crc32cBackend(), hw);
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nDispatched backend: %s. Both kernels agree on the payload CRC\n"
      "(%08x) the CLDFRAM1 trailer carries.\n",
      base::io::Crc32cBackend(), want);
  return 0;
}
