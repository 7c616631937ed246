#include "sim/fault.h"

#include <gtest/gtest.h>

#include "sim/latency.h"
#include "sim/network.h"

namespace clouddns::sim {
namespace {

class EchoHandler : public PacketHandler {
 public:
  void HandlePacket(const PacketContext& /*ctx*/,
                    const dns::WireBuffer& query,
                    dns::WireBuffer& response) override {
    ++count;
    if (drop) return;
    response = query;
  }
  using PacketHandler::HandlePacket;

  int count = 0;
  bool drop = false;
};

struct Fixture {
  Fixture() {
    near = latency.AddSite({"NEAR", 0, 0, 1.0, 0.0});
    client = latency.AddSite({"CLIENT", 10, 0, 1.0, 0.0});
  }
  LatencyModel latency;
  SiteId near, client;
  net::Endpoint src{*net::IpAddress::Parse("10.0.0.1"), 5353};
  net::IpAddress service = *net::IpAddress::Parse("192.0.2.53");
};

TEST(FaultInjectorTest, EmptyPlanIsDisabledAndChangesNothing) {
  Fixture f;
  Network network(f.latency);
  EchoHandler handler;
  network.RegisterServer(f.service, f.near, handler);
  FaultInjector injector(FaultPlan{}, 42);
  EXPECT_FALSE(injector.enabled());
  network.SetFaultInjector(&injector);

  auto result = network.Query(f.src, f.client, f.service,
                              dns::Transport::kUdp, {1, 2, 3}, 1000);
  ASSERT_TRUE(result.delivered());
  EXPECT_EQ(result.status, Network::SendStatus::kDelivered);
  EXPECT_EQ(result.rtt_us, 24000u);
}

TEST(FaultInjectorTest, TotalQueryLossDropsBeforeServer) {
  Fixture f;
  Network network(f.latency);
  EchoHandler handler;
  network.RegisterServer(f.service, f.near, handler);
  FaultPlan plan;
  plan.loss.push_back({kAnySite, std::nullopt, {}, 1.0, 0.0});
  FaultInjector injector(plan, 42);
  network.SetFaultInjector(&injector);

  auto result = network.Query(f.src, f.client, f.service,
                              dns::Transport::kUdp, {1}, 1000);
  EXPECT_EQ(result.status, Network::SendStatus::kLostQuery);
  EXPECT_TRUE(result.timed_out());
  EXPECT_FALSE(result.delivered());
  EXPECT_EQ(handler.count, 0);  // no server work, no capture
  EXPECT_EQ(result.server_site, f.near);
}

TEST(FaultInjectorTest, TotalResponseLossStillCostsServerWork) {
  Fixture f;
  Network network(f.latency);
  EchoHandler handler;
  network.RegisterServer(f.service, f.near, handler);
  FaultPlan plan;
  plan.loss.push_back({kAnySite, std::nullopt, {}, 0.0, 1.0});
  FaultInjector injector(plan, 42);
  network.SetFaultInjector(&injector);

  auto result = network.Query(f.src, f.client, f.service,
                              dns::Transport::kUdp, {1}, 1000);
  EXPECT_EQ(result.status, Network::SendStatus::kLostResponse);
  EXPECT_TRUE(result.timed_out());
  EXPECT_EQ(handler.count, 1);  // the server answered; only the path lost it
  EXPECT_TRUE(result.response.empty());
}

TEST(FaultInjectorTest, TransportScopedRuleSparesOtherTransport) {
  Fixture f;
  Network network(f.latency);
  EchoHandler handler;
  network.RegisterServer(f.service, f.near, handler);
  FaultPlan plan;
  plan.loss.push_back({kAnySite, dns::Transport::kUdp, {}, 1.0, 0.0});
  FaultInjector injector(plan, 42);
  network.SetFaultInjector(&injector);

  auto udp = network.Query(f.src, f.client, f.service, dns::Transport::kUdp,
                           {1}, 1000);
  auto tcp = network.Query(f.src, f.client, f.service, dns::Transport::kTcp,
                           {1}, 1000);
  EXPECT_EQ(udp.status, Network::SendStatus::kLostQuery);
  EXPECT_EQ(tcp.status, Network::SendStatus::kDelivered);
}

TEST(FaultInjectorTest, DecisionsAreDeterministicAcrossInstances) {
  FaultPlan plan;
  plan.loss.push_back({kAnySite, std::nullopt, {}, 0.5, 0.3});
  FaultInjector a(plan, 7);
  FaultInjector b(plan, 7);
  net::Endpoint src{*net::IpAddress::Parse("10.1.2.3"), 1234};
  for (TimeUs t = 0; t < 200; ++t) {
    FaultDecision da = a.Evaluate(3, dns::Transport::kUdp, t * 1000, src);
    FaultDecision db = b.Evaluate(3, dns::Transport::kUdp, t * 1000, src);
    EXPECT_EQ(da.lose_query, db.lose_query);
    EXPECT_EQ(da.lose_response, db.lose_response);
  }
}

TEST(FaultInjectorTest, LossRateApproximatesConfiguredProbability) {
  FaultPlan plan;
  plan.loss.push_back({kAnySite, std::nullopt, {}, 0.3, 0.0});
  FaultInjector injector(plan, 99);
  net::Endpoint src{*net::IpAddress::Parse("10.1.2.3"), 1234};
  int lost = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    if (injector.Evaluate(1, dns::Transport::kUdp, i * 1000, src).lose_query) {
      ++lost;
    }
  }
  double rate = static_cast<double>(lost) / trials;
  EXPECT_NEAR(rate, 0.3, 0.03);
}

TEST(SendStatusTest, ReasonsReportedWithoutInjector) {
  Fixture f;
  Network network(f.latency);
  auto no_route = network.Query(f.src, f.client, f.service,
                                dns::Transport::kUdp, {1}, 0);
  EXPECT_EQ(no_route.status, Network::SendStatus::kNoRoute);
  EXPECT_FALSE(no_route.delivered());
  EXPECT_FALSE(no_route.timed_out());

  EchoHandler handler;
  handler.drop = true;
  network.RegisterServer(f.service, f.near, handler);
  auto dropped = network.Query(f.src, f.client, f.service,
                               dns::Transport::kUdp, {1}, 0);
  EXPECT_EQ(dropped.status, Network::SendStatus::kServerDropped);
  EXPECT_FALSE(dropped.timed_out());
}

}  // namespace
}  // namespace clouddns::sim
