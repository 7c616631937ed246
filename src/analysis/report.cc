#include "analysis/report.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace clouddns::analysis {

std::string TextTable::Render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&widths](const std::vector<std::string>& cells) {
    std::string line;
    for (std::size_t c = 0; c < widths.size(); ++c) {
      std::string cell = c < cells.size() ? cells[c] : "";
      line += cell;
      line.append(widths[c] - cell.size() + 2, ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    line += '\n';
    return line;
  };

  std::string out = render_row(headers_);
  std::size_t rule = 0;
  for (std::size_t w : widths) rule += w + 2;
  out.append(rule - 2, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string Percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", fraction * 100.0);
  return buf;
}

std::string Ratio(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", fraction);
  return buf;
}

std::string Count(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  int since_sep = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (since_sep == 3) {
      out += ',';
      since_sep = 0;
    }
    out += *it;
    ++since_sep;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::string Fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

void Appendf(std::string& out, const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list sizing;
  va_copy(sizing, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  if (size > 0) {
    const std::size_t old_size = out.size();
    out.resize(old_size + static_cast<std::size_t>(size));
    // vsnprintf writes a terminating NUL, which lands on the string's own
    // terminator slot at out[out.size()].
    std::vsnprintf(out.data() + old_size, static_cast<std::size_t>(size) + 1,
                   fmt, args);
  }
  va_end(args);
}

std::string Banner(const std::string& experiment_id, const std::string& title) {
  std::string line(72, '=');
  std::string out;
  Appendf(out, "\n%s\n%s — %s\n%s\n", line.c_str(), experiment_id.c_str(),
          title.c_str(), line.c_str());
  return out;
}

}  // namespace clouddns::analysis
