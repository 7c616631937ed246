// Microbenchmarks of the analytics substrates: longest-prefix matching
// (the per-record AS enrichment), HyperLogLog distinct counting (with an
// accuracy report vs exact counting), resolver cache operations, the
// columnar capture codec, and the AnalysisPlan aggregation scan.
#include <benchmark/benchmark.h>

#include "capture/columnar.h"
#include "entrada/hll.h"
#include "entrada/plan.h"
#include "net/prefix_trie.h"
#include "resolver/cache.h"
#include "sim/random.h"

using namespace clouddns;

namespace {

net::PrefixMap<int> BuildRoutingTable(std::size_t prefixes) {
  net::PrefixMap<int> map;
  sim::Rng rng(1);
  for (std::size_t i = 0; i < prefixes; ++i) {
    net::Ipv4Address addr(static_cast<std::uint32_t>(rng.Next()));
    int len = 8 + static_cast<int>(rng.NextBelow(17));
    map.Insert(net::Prefix(net::IpAddress(addr), len), static_cast<int>(i));
  }
  return map;
}

void BM_TrieLookup(benchmark::State& state) {
  auto map = BuildRoutingTable(static_cast<std::size_t>(state.range(0)));
  sim::Rng rng(2);
  for (auto _ : state) {
    net::IpAddress probe{net::Ipv4Address(static_cast<std::uint32_t>(rng.Next()))};
    benchmark::DoNotOptimize(map.Lookup(probe));
  }
}
BENCHMARK(BM_TrieLookup)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_HllAdd(benchmark::State& state) {
  entrada::Hll hll;
  sim::Rng rng(3);
  for (auto _ : state) {
    hll.AddHash(rng.Next());
  }
  benchmark::DoNotOptimize(hll.Estimate());
}
BENCHMARK(BM_HllAdd);

void BM_HllVsExactAccuracy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    entrada::Hll hll;
    sim::Rng rng(4);
    for (std::size_t i = 0; i < n; ++i) hll.AddHash(rng.Next());
    benchmark::DoNotOptimize(hll.Estimate());
  }
  entrada::Hll hll;
  sim::Rng rng(4);
  for (std::size_t i = 0; i < n; ++i) hll.AddHash(rng.Next());
  state.counters["relative_error"] =
      (hll.Estimate() - static_cast<double>(n)) / static_cast<double>(n);
}
BENCHMARK(BM_HllVsExactAccuracy)->Arg(10000)->Arg(1000000);

void BM_DnsCachePutGet(benchmark::State& state) {
  resolver::DnsCache cache(1u << 16);
  sim::Rng rng(5);
  dns::Name base = *dns::Name::Parse("nl");
  std::vector<dns::Name> names;
  for (int i = 0; i < 4096; ++i) {
    names.push_back(base.Child("dom" + std::to_string(i)));
  }
  resolver::CachedAnswer answer;
  answer.expires_at = ~0ull;
  for (auto _ : state) {
    const dns::Name& name = names[rng.NextBelow(names.size())];
    if (rng.Bernoulli(0.2)) {
      cache.Put(name, dns::RrType::kA, resolver::CachedAnswer(answer));
    } else {
      benchmark::DoNotOptimize(cache.Get(name, dns::RrType::kA, 1));
    }
  }
}
BENCHMARK(BM_DnsCachePutGet);

capture::CaptureBuffer MakeRecords(std::size_t count) {
  capture::CaptureBuffer records;
  sim::Rng rng(6);
  for (std::size_t i = 0; i < count; ++i) {
    capture::CaptureRecord r;
    r.time_us = 1000 * i;
    r.src = net::Ipv4Address(static_cast<std::uint32_t>(rng.NextBelow(5000)));
    r.qname = *dns::Name::Parse("dom" + std::to_string(rng.NextBelow(2000)) +
                                ".nl");
    r.qtype = rng.Bernoulli(0.5) ? dns::RrType::kA : dns::RrType::kNs;
    r.rcode = rng.Bernoulli(0.14) ? dns::Rcode::kNxDomain
                                  : dns::Rcode::kNoError;
    r.edns_udp_size = 1232;
    r.has_edns = true;
    records.push_back(std::move(r));
  }
  return records;
}

void BM_ColumnarEncode(benchmark::State& state) {
  auto records = MakeRecords(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto encoded = capture::EncodeColumnar(records);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded);
  }
  state.counters["bytes_per_record"] =
      static_cast<double>(bytes) / static_cast<double>(records.size());
}
BENCHMARK(BM_ColumnarEncode)->Arg(100000);

void BM_ColumnarDecode(benchmark::State& state) {
  auto encoded =
      capture::EncodeColumnar(MakeRecords(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(capture::DecodeColumnar(encoded));
  }
}
BENCHMARK(BM_ColumnarDecode)->Arg(100000);

void BM_AggregationScan(benchmark::State& state) {
  auto records = MakeRecords(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    entrada::AnalysisPlan plan;
    const auto qtypes =
        plan.GroupBy(entrada::FilterSpec::Valid(), entrada::KeySpec::Qtype());
    plan.Execute(records);
    benchmark::DoNotOptimize(plan.GroupResult(qtypes));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_AggregationScan)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
