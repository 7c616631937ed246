#include "server/rrl.h"

#include <algorithm>

namespace clouddns::server {

bool ResponseRateLimiter::Allow(const net::IpAddress& src, sim::TimeUs now) {
  if (!config_.enabled) return true;
  const std::uint64_t hash = net::IpAddressHash{}(src);
  std::uint32_t index = index_.Find(
      hash, [&](std::uint32_t i) { return buckets_[i].source == src; });
  if (index == base::OpenTable::kNil) {
    // A new source starts with a full bucket.
    index = static_cast<std::uint32_t>(buckets_.size());
    buckets_.push_back(Bucket{src, config_.burst, now});
    index_.Insert(hash, index);
  }
  Bucket& bucket = buckets_[index];
  if (now > bucket.last_refill) {
    double elapsed_s = static_cast<double>(now - bucket.last_refill) /
                       static_cast<double>(sim::kMicrosPerSecond);
    bucket.tokens = std::min(config_.burst,
                             bucket.tokens +
                                 elapsed_s * config_.responses_per_second);
    bucket.last_refill = now;
  }
  if (bucket.tokens >= 1.0) {
    bucket.tokens -= 1.0;
    return true;
  }
  ++slips_;
  return false;
}

}  // namespace clouddns::server
