#include "cloud/workload.h"

#include <iterator>
#include <stdexcept>
#include <utility>

#include "zone/zone_builder.h"

namespace clouddns::cloud {
namespace {

/// Zipf exponent of domain popularity under every suffix.
constexpr double kZipfExponent = 0.95;

/// Client qtype mix for ordinary lookups (A/AAAA dominate; the rest is
/// mail/infrastructure). Fig. 2's 2018 panels reflect this directly.
constexpr std::pair<dns::RrType, double> kQtypeMix[] = {
    {dns::RrType::kA, 0.58},   {dns::RrType::kAaaa, 0.27},
    {dns::RrType::kMx, 0.06},  {dns::RrType::kTxt, 0.06},
    {dns::RrType::kNs, 0.015}, {dns::RrType::kSoa, 0.015}};

std::vector<double> SuffixWeights(const WorkloadSpec& spec) {
  std::vector<double> weights;
  weights.reserve(spec.suffixes.size());
  for (const auto& suffix : spec.suffixes) weights.push_back(suffix.weight);
  return weights;
}

std::vector<double> QtypeWeights() {
  std::vector<double> weights;
  weights.reserve(std::size(kQtypeMix));
  for (const auto& [type, weight] : kQtypeMix) weights.push_back(weight);
  return weights;
}

}  // namespace

WorkloadModel::WorkloadModel(WorkloadSpec spec_in)
    : spec(std::move(spec_in)),
      suffix_sampler(SuffixWeights(spec)),
      qtype_sampler(QtypeWeights()) {
  if (spec.suffixes.empty()) {
    throw std::invalid_argument("WorkloadModel: no suffixes");
  }
  for (const auto& suffix : spec.suffixes) {
    domain_samplers.emplace_back(std::max<std::size_t>(1, suffix.domain_count),
                                 kZipfExponent);
  }
}

WorkloadGenerator::WorkloadGenerator(
    std::shared_ptr<const WorkloadModel> model, std::uint64_t seed)
    : model_(std::move(model)), rng_(seed) {}

WorkloadGenerator::WorkloadGenerator(WorkloadSpec spec, std::uint64_t seed)
    : WorkloadGenerator(std::make_shared<const WorkloadModel>(std::move(spec)),
                        seed) {}

dns::Name WorkloadGenerator::RandomLabelName(std::size_t min_len,
                                             std::size_t max_len,
                                             const dns::Name& suffix) {
  std::size_t len = min_len + rng_.NextBelow(max_len - min_len + 1);
  std::string label;
  label.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    label += static_cast<char>('a' + rng_.NextBelow(26));
  }
  return suffix.Child(label);
}

void WorkloadGenerator::InjectTargets(std::vector<dns::Name> targets,
                                      double probability) {
  injected_ = std::move(targets);
  injected_probability_ = probability;
}

void WorkloadGenerator::ClearInjection() {
  injected_.clear();
  injected_probability_ = 0.0;
}

ClientQuery WorkloadGenerator::Next() {
  const WorkloadModel& model = *model_;
  ClientQuery query;

  if (!injected_.empty() && rng_.Bernoulli(injected_probability_)) {
    query.qname =
        injected_[rng_.NextBelow(injected_.size())].Child("www");
    query.qtype =
        rng_.Bernoulli(0.5) ? dns::RrType::kA : dns::RrType::kAaaa;
    return query;
  }

  if (model.spec.chromium_fraction > 0 &&
      rng_.Bernoulli(model.spec.chromium_fraction)) {
    // Chromium's network probes: random 7-15 character single labels that
    // cannot exist, hammering the root with NXDOMAIN [19][42].
    query.qname = RandomLabelName(7, 15, dns::Name{});
    query.qtype = dns::RrType::kA;
    return query;
  }

  std::size_t suffix_index = model.suffix_sampler.Sample(rng_);
  const SuffixPopulation& population = model.spec.suffixes[suffix_index];

  if (rng_.Bernoulli(model.spec.junk_fraction)) {
    // Typos / stale names: unregistered under a real suffix -> NXDOMAIN at
    // the TLD. Random labels never collide with "<stem><i>".
    query.qname = RandomLabelName(6, 12, population.suffix);
    query.qtype = kQtypeMix[model.qtype_sampler.Sample(rng_)].first;
    return query;
  }

  std::size_t rank = model.domain_samplers[suffix_index].Sample(rng_);
  dns::Name domain = population.suffix.Child(
      zone::DomainLabel(population.stem, rank));

  // Host shape: mostly www/apex, some service hosts, a tail of arbitrary
  // labels (device names, subdomain-per-customer setups, ...).
  double roll = rng_.NextDouble();
  if (roll < 0.42) {
    query.qname = domain.Child("www");
  } else if (roll < 0.62) {
    query.qname = domain;  // apex
  } else if (roll < 0.72) {
    query.qname = domain.Child("mail");
  } else if (roll < 0.80) {
    query.qname = domain.Child("api");
  } else if (roll < 0.86) {
    query.qname = domain.Child("cdn").Child("assets");
  } else {
    query.qname = RandomLabelName(4, 10, domain);
  }
  query.qtype = kQtypeMix[model.qtype_sampler.Sample(rng_)].first;
  return query;
}

}  // namespace clouddns::cloud
