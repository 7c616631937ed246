#include "net/asdb.h"

#include <gtest/gtest.h>

namespace clouddns::net {
namespace {

TEST(AsDatabaseTest, BasicOriginLookup) {
  AsDatabase db;
  db.AddAs(15169, "GOOGLE");
  db.Announce(*Prefix::Parse("8.8.8.0/24"), 15169);
  db.Announce(*Prefix::Parse("2001:4860::/32"), 15169);

  EXPECT_EQ(db.OriginAs(*IpAddress::Parse("8.8.8.8")), 15169u);
  EXPECT_EQ(db.OriginAs(*IpAddress::Parse("2001:4860::8888")), 15169u);
  EXPECT_FALSE(db.OriginAs(*IpAddress::Parse("9.9.9.9")).has_value());
}

TEST(AsDatabaseTest, MoreSpecificAnnouncementWins) {
  AsDatabase db;
  db.AddAs(100, "BIG-ISP");
  db.AddAs(200, "CUSTOMER");
  db.Announce(*Prefix::Parse("100.64.0.0/10"), 100);
  db.Announce(*Prefix::Parse("100.64.7.0/24"), 200);

  EXPECT_EQ(db.OriginAs(*IpAddress::Parse("100.64.7.1")), 200u);
  EXPECT_EQ(db.OriginAs(*IpAddress::Parse("100.64.8.1")), 100u);
}

TEST(AsDatabaseTest, AnnounceUnknownAsnThrows) {
  AsDatabase db;
  EXPECT_THROW(db.Announce(*Prefix::Parse("10.0.0.0/8"), 42),
               std::invalid_argument);
}

TEST(AsDatabaseTest, InfoAndCounts) {
  AsDatabase db;
  db.AddAs(13335, "CLOUDFLARE");
  db.AddAs(32934, "FACEBOOK");
  db.Announce(*Prefix::Parse("1.1.1.0/24"), 13335);
  db.Announce(*Prefix::Parse("1.0.0.0/24"), 13335);

  EXPECT_EQ(db.as_count(), 2u);
  ASSERT_NE(db.Info(13335), nullptr);
  EXPECT_EQ(db.Info(13335)->org, "CLOUDFLARE");
  EXPECT_EQ(db.Info(7777), nullptr);
}

TEST(AsDatabaseTest, AddAsIsIdempotent) {
  AsDatabase db;
  db.AddAs(15169, "GOOGLE");
  db.AddAs(15169, "GOOGLE-AGAIN");
  EXPECT_EQ(db.as_count(), 1u);
  EXPECT_EQ(db.Info(15169)->org, "GOOGLE");
}

}  // namespace
}  // namespace clouddns::net
