// Prints the paper's tables and figures (analysis::PaperReports), each
// under a "===== bench_paper --only <id> =====" header, as
// bench_output.txt records them. `--only <id>` prints that one report
// alone, with no header.
//
//   bench_paper [--only <id>]
#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/paper_reports.h"

using namespace clouddns;

namespace {

int Usage() {
  std::fputs("usage: bench_paper [--only <id>]\nids:", stderr);
  for (const analysis::PaperReport& report : analysis::PaperReports()) {
    std::fprintf(stderr, " %s", report.id);
  }
  std::fputs("\n", stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) {
    for (const analysis::PaperReport& report : analysis::PaperReports()) {
      std::printf("===== bench_paper --only %s =====\n\n%s\n", report.id,
                  report.render().c_str());
    }
    return 0;
  }
  if (argc != 3 || std::strcmp(argv[1], "--only") != 0) return Usage();
  for (const analysis::PaperReport& report : analysis::PaperReports()) {
    if (std::strcmp(report.id, argv[2]) == 0) {
      std::fputs(report.render().c_str(), stdout);
      return 0;
    }
  }
  return Usage();
}
