#include "samples.hpp"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(),
                                         values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

Tail tail(std::vector<double> values) {
  Tail out;
  out.samples = values.size();
  if (values.size() <= kTailBeyond) {
    out.value = median(std::move(values));
    return out;
  }
  std::sort(values.begin(), values.end());
  const std::size_t rank = values.size() - kTailBeyond;  // 1-based nearest rank
  out.value = values[rank - 1];
  out.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(values.size());
  out.qualified = true;
  return out;
}

Tail pass_tail(const std::vector<std::vector<double>>& passes) {
  std::vector<double> values;
  std::vector<double> percentiles;
  std::vector<double> samples;
  bool qualified = !passes.empty();
  for (const std::vector<double>& pass : passes) {
    if (pass.empty()) continue;
    Tail t = tail(pass);
    if (!t.qualified) {
      t.value = *std::max_element(pass.begin(), pass.end());
      t.percentile = 100.0;
      qualified = false;
    }
    values.push_back(t.value);
    percentiles.push_back(t.percentile);
    samples.push_back(static_cast<double>(t.samples));
  }
  Tail out;
  out.passes = values.size();
  out.value = median(std::move(values));
  out.percentile = median(std::move(percentiles));
  out.samples = static_cast<std::size_t>(median(std::move(samples)));
  out.qualified = qualified;
  return out;
}

}  // namespace perfbench
