// The paper-report registry: every rendered table and figure is pinned by
// digest at a reduced budget, and Fig. 5's Location-1 claim follows the
// data it is rendered from.
#include "analysis/paper_reports.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <optional>
#include <string>

#include "../testutil.h"

namespace clouddns::analysis {
namespace {

// sha256 of each report rendered from an empty cache at
// CLOUDDNS_QUERIES=5000, in registry order. These are fixed references,
// taken from the per-report binaries that printed them before the
// registry existed: a change that moves a digest changes what a report
// says, so never edit one to make a change pass.
struct Pin {
  const char* id;
  const char* sha256;
};
constexpr Pin kPins[] = {
    {"table2",
     "07f9757a193656f85b983afbbba4012b989bb670915e652d9638eaffd91a7c21"},
    {"table3",
     "2d208174b700055b731feac37fdd4b21ae98efcbd17bbf87a2e882736b06425c"},
    {"fig1",
     "ab4810eed219ea34eef2b86a2a9c8bfdae27cd044f49f61917c9046e2da54668"},
    {"table4",
     "c8ad4434f4985e981ac9259a2105459d13d46ee83c6bad3454fe13b30da7b54a"},
    {"fig2",
     "2a15ec4e3cea3e5192a53f21dbe1037b08f3ff12dbd81fd0f7bb054a024ed289"},
    {"fig3",
     "f44dad6900bb4f9be9460a7099aef306968ab3c612134896610e66939a3f9308"},
    {"fig4",
     "d550b07732b5d017d453b8e3749e0c6942ef60aea7338cdae7e5f0384a53deb9"},
    {"table5",
     "a47a402589a404282f3513bddc18828dc37aa345f6845fd725bd5ed9281fb227"},
    {"table6",
     "9976653be0fcc8f36450adb58413aeaab0e05e910ad19d30788888610d9a3064"},
    {"fig5",
     "91bfc3dfa4dfb16ce3466220fe508e74f66ad69498ee4c2eecff0d297f65d900"},
    {"fig6",
     "c693e96b8d0fe69019e900d51532cf9c5c68782efe4ac008f46bd6e451da20da"},
    {"table7",
     "a1d1d76dddc31ff3b1236c4da66537e0cfe7a92143dac045022b8e8dc05e91da"},
    {"fig7",
     "d4760c9d8c1a51fcf0962e2539b2bbb70c10e1bde505e0542eec6e509bbb38a5"},
    {"fig8",
     "a0b7ceef39f0f8c24ae3130a4563bb87425120944f9bd9a84eb47da7600283cd"},
    {"fig3b",
     "ccd0578a3a0fbb4bb08a6b92f46a0d8bc14536510f424693d9e75e23291791a8"},
};

// Sets an environment variable for one scope, then restores it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (saved_) {
      setenv(name_, saved_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(PaperReportsTest, EveryReportMatchesPinnedDigest) {
  const std::filesystem::path cache =
      std::filesystem::temp_directory_path() /
      ("clouddns_paper_reports_" + std::to_string(getpid()));
  std::filesystem::remove_all(cache);
  {
    ScopedEnv cache_dir("CLOUDDNS_CACHE_DIR", cache.string());
    ScopedEnv queries("CLOUDDNS_QUERIES", "5000");
    const auto reports = PaperReports();
    ASSERT_EQ(reports.size(), std::size(kPins));
    for (std::size_t i = 0; i < reports.size(); ++i) {
      EXPECT_STREQ(reports[i].id, kPins[i].id);
      EXPECT_EQ(testutil::Sha256Hex(reports[i].render()), kPins[i].sha256)
          << "report " << reports[i].id << " changed";
    }
  }
  std::filesystem::remove_all(cache);
}

FacebookSiteStats Site(const char* name, std::uint64_t queries,
                       std::optional<double> rtt_v4,
                       std::optional<double> rtt_v6) {
  FacebookSiteStats site;
  site.site = name;
  site.queries = queries;
  site.v6_share = 0.5;
  site.median_rtt_v4_ms = rtt_v4;
  site.median_rtt_v6_ms = rtt_v6;
  return site;
}

TEST(PaperReportsTest, Figure5ChecksThatTheTopSiteSendsNoTcp) {
  const FacebookSiteStats tcp = Site("ams", 30, 38.2, std::nullopt);
  const FacebookSiteStats udp_only =
      Site("atn", 20, std::nullopt, std::nullopt);
  const std::string matching =
      "The top-ranked location sends no TCP, matching the paper's\n"
      "Location 1.\n";
  const std::string contrary =
      "The top-ranked location does not match the paper's Location 1,\n"
      "which sends no TCP.\n";

  const std::string tcp_first = FacebookSitesReport(0, {tcp, udp_only});
  EXPECT_NE(tcp_first.find(contrary), std::string::npos) << tcp_first;
  EXPECT_EQ(tcp_first.find(matching), std::string::npos) << tcp_first;

  const std::string udp_first = FacebookSitesReport(0, {udp_only, tcp});
  EXPECT_NE(udp_first.find(matching), std::string::npos) << udp_first;
  EXPECT_EQ(udp_first.find(contrary), std::string::npos) << udp_first;

  // Fig. 8 repeats the analysis at server B and makes no Location-1 claim.
  const std::string server_b = FacebookSitesReport(1, {tcp, udp_only});
  EXPECT_EQ(server_b.find("Location 1"), std::string::npos) << server_b;
  EXPECT_EQ(server_b.find("dual-hosts"), std::string::npos) << server_b;
}

}  // namespace
}  // namespace clouddns::analysis
