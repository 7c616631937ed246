// Response Rate Limiting (Vixie, CACM 2014): a per-source token bucket.
// When a source exceeds its budget the server "slips" — answers with a
// minimal truncated response — forcing legitimate resolvers to retry over
// TCP (spoofed sources cannot). This is one of the mechanisms behind the
// small-but-nonzero TCP shares in the paper's Table 5.
#pragma once

#include <cstdint>
#include <vector>

#include "base/open_table.h"
#include "net/ip.h"
#include "sim/clock.h"

namespace clouddns::server {

struct RrlConfig {
  double responses_per_second = 1000.0;  ///< Token refill rate per source.
  double burst = 2000.0;                 ///< Bucket capacity.
  bool enabled = false;
};

class ResponseRateLimiter {
 public:
  explicit ResponseRateLimiter(RrlConfig config) : config_(config) {}

  /// True when a full response may be sent; false means "slip" (respond
  /// with TC=1 and no data). Always true when disabled.
  [[nodiscard]] bool Allow(const net::IpAddress& src, sim::TimeUs now);

  [[nodiscard]] const RrlConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t slip_count() const { return slips_; }

 private:
  struct Bucket {
    net::IpAddress source;
    double tokens = 0;
    sim::TimeUs last_refill = 0;
  };

  RrlConfig config_;
  /// One bucket per source ever seen, indexed by the address hash.
  std::vector<Bucket> buckets_;
  base::OpenTable index_;
  std::uint64_t slips_ = 0;
};

}  // namespace clouddns::server
