#include "analysis/context_cache.h"

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace clouddns::analysis {
namespace {

constexpr std::string_view kMagic = "CLOUDDNSCTX";
// v2: adds the "robust" line (fleet-wide retry/timeout/failover totals).
// v3: the "robust" line drops its fifth (served-stale) field.
// v4: the config replaces the context it determines.
constexpr std::string_view kVersion = "v4";

/// Calls fn(key, field) for every stored field of `result`: each config
/// field CacheKey hashes, in its order (never `threads`), then the run
/// totals but the per-provider counts.
template <typename Result, typename Fn>
void ForEachStoredField(Result& result, Fn fn) {
  auto& config = result.config;
  fn("shards", config.shards);
  fn("vantage", config.vantage);
  fn("year", config.year);
  fn("client_queries", config.client_queries);
  fn("zone_scale", config.zone_scale);
  fn("seed", config.seed);
  fn("warmup_fraction", config.warmup_fraction);
  fn("diurnal_amplitude", config.diurnal_amplitude);
  fn("consolidation_factor", config.consolidation_factor);
  fn("window_start", config.window_start);
  fn("window_end", config.window_end);
  fn("google_only", config.google_only);
  fn("inject_cyclic_event", config.inject_cyclic_event);
  fn("qmin_override_off", config.qmin_override_off);
  fn("rrl_override_off", config.rrl_override_off);
  fn("fault_preset", config.fault_preset);
  fn("issued", result.client_queries_issued);
  fn("leaf", result.leaf_queries);
  fn("upstream", result.robustness.upstream_queries);
  fn("retransmits", result.robustness.retransmits);
  fn("timeouts", result.robustness.timeouts);
  fn("failovers", result.robustness.failovers);
}

template <typename T>
struct IsOptional : std::false_type {};
template <typename T>
struct IsOptional<std::optional<T>> : std::true_type {};

/// A field as text: bools and enums as integers, an empty optional as
/// "none", and doubles in to_chars' shortest form, which parses back to
/// the same value.
template <typename T>
std::string ToText(const T& value) {
  if constexpr (IsOptional<T>::value) {
    return value ? ToText(*value) : "none";
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    return std::to_string(static_cast<int>(value));
  } else {
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, end);
  }
}

/// Parses ToText's form of a field; false unless all of `text` is used.
template <typename T>
bool FromText(std::string_view text, T& out) {
  if constexpr (std::is_same_v<T, std::string_view>) {
    out = text;
    return true;
  } else if constexpr (IsOptional<T>::value) {
    typename T::value_type value{};
    if (text == "none") {
      out.reset();
    } else if (FromText(text, value)) {
      out = value;
    } else {
      return false;
    }
    return true;
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    int value = 0;
    const int max = std::is_same_v<T, bool> ? 1 : 255;
    if (!FromText(text, value) || value < 0 || value > max) return false;
    out = static_cast<T>(value);
    return true;
  } else {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end;
  }
}

/// Consumes the first line of `rest` when it reads "<key> <value>" and
/// the value parses into `out`.
template <typename T>
bool ReadLine(std::string_view& rest, std::string_view key, T& out) {
  const std::size_t eol = rest.find('\n');
  if (eol == std::string_view::npos || eol <= key.size() ||
      !rest.starts_with(key) || rest[key.size()] != ' ' ||
      !FromText(rest.substr(key.size() + 1, eol - key.size() - 1), out)) {
    return false;
  }
  rest.remove_prefix(eol + 1);
  return true;
}

/// The config comes from a file, so what BuildScenarioContext cannot take
/// is rejected: enums out of range, a year outside the study, and scales
/// that are negative, not finite or (zone_scale) above the paper's zones.
bool Accepted(const cloud::ScenarioConfig& config) {
  for (double scale : {config.zone_scale, config.warmup_fraction,
                       config.diurnal_amplitude,
                       config.consolidation_factor}) {
    if (!std::isfinite(scale) || scale < 0) return false;
  }
  return config.vantage <= cloud::Vantage::kRoot &&
         config.fault_preset <= cloud::FaultPreset::kNzEventLoss &&
         config.year >= 2018 && config.year <= 2020 &&
         config.zone_scale <= 1;
}

}  // namespace

base::io::IoStatus SaveScenarioContextStatus(
    const std::string& path, const cloud::ScenarioResult& result) {
  std::string text = std::string(kMagic) + " " + std::string(kVersion) + "\n";
  ForEachStoredField(result, [&text](std::string_view key, const auto& value) {
    text.append(key).append(" ").append(ToText(value)).append("\n");
  });
  text.append("perprov ")
      .append(ToText(result.client_queries_per_provider.size()))
      .append("\n");
  for (const auto& [provider, count] : result.client_queries_per_provider) {
    text.append("q ").append(ToText(count)).append(" ").append(provider);
    text.append("\n");
  }
  std::vector<std::uint8_t> payload(text.begin(), text.end());
  return base::io::WriteFramedFile(path, base::io::kTagContext, payload);
}

base::io::IoStatus LoadScenarioContextStatus(const std::string& path,
                                             cloud::ScenarioResult& result) {
  std::vector<std::uint8_t> payload;
  base::io::IoStatus status =
      base::io::ReadFramedFile(path, base::io::kTagContext, payload);
  if (!status.ok()) return status;

  std::string_view in(reinterpret_cast<const char*>(payload.data()),
                      payload.size());
  cloud::ScenarioResult stored;
  std::string_view version;
  bool ok = ReadLine(in, kMagic, version) && version == kVersion;
  ForEachStoredField(stored, [&](std::string_view key, auto& value) {
    ok = ok && ReadLine(in, key, value);
  });
  std::size_t providers = 0;
  ok = ok && ReadLine(in, "perprov", providers);
  for (std::size_t i = 0; ok && i < providers; ++i) {
    std::string_view entry;  // "<count> <provider>"
    std::uint64_t count = 0;
    const std::size_t space =
        ReadLine(in, "q", entry) ? entry.find(' ') : std::string_view::npos;
    ok = space != std::string_view::npos &&
         FromText(entry.substr(0, space), count);
    if (ok) {
      stored.client_queries_per_provider[std::string(entry.substr(space + 1))] =
          count;
    }
  }
  if (!ok || !in.empty() || !Accepted(stored.config)) {
    return base::io::IoStatus::Error(
        base::io::IoCode::kPayloadCorrupt,
        "context sidecar text malformed or version-mismatched");
  }

  cloud::ScenarioResult context = cloud::BuildScenarioContext(stored.config);
  context.config = std::move(result.config);
  context.records = std::move(result.records);
  context.storage = result.storage;
  context.client_queries_issued = stored.client_queries_issued;
  context.leaf_queries = stored.leaf_queries;
  context.robustness = stored.robustness;
  context.client_queries_per_provider =
      std::move(stored.client_queries_per_provider);
  result = std::move(context);
  return base::io::IoStatus::Ok();
}

}  // namespace clouddns::analysis
