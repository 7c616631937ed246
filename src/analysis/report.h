// Plain-text report rendering: every reproduced table and figure prints in
// the same aligned paper-vs-measured format.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace clouddns::analysis {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// Renders with a header rule and right-padded columns.
  [[nodiscard]] std::string Render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// "12.3%" (one decimal).
[[nodiscard]] std::string Percent(double fraction);
/// "0.52" style ratio with two decimals, as the paper's Table 5 prints.
[[nodiscard]] std::string Ratio(double fraction);
/// Counts with thousands separators ("1,234,567").
[[nodiscard]] std::string Count(std::uint64_t value);
/// Fixed-precision double.
[[nodiscard]] std::string Fixed(double value, int decimals);

/// printf-style append to `out`.
void Appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// The section banner that opens one experiment's report.
[[nodiscard]] std::string Banner(const std::string& experiment_id,
                                 const std::string& title);

}  // namespace clouddns::analysis
