// Empirical distributions: the CDF of EDNS(0) sizes (Fig. 6) and the
// median TCP-handshake RTTs of Fig. 5 both come from this.
#pragma once

#include <cstdint>
#include <vector>

namespace clouddns::entrada {

class Cdf {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }

  /// Adds every sample of `other`.
  void Merge(const Cdf& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }

  /// Value at quantile q in [0, 1] (nearest-rank). q=0.5 is the median.
  [[nodiscard]] double Quantile(double q);
  [[nodiscard]] double Median() { return Quantile(0.5); }

  /// Fraction of samples <= x: the y-axis of a CDF plot.
  [[nodiscard]] double FractionAtOrBelow(double x);

  /// (x, F(x)) pairs at each distinct sample value — the plotted series.
  [[nodiscard]] std::vector<std::pair<double, double>> Curve();

 private:
  void Sort();

  std::vector<double> values_;
  bool sorted_ = true;
};

}  // namespace clouddns::entrada
