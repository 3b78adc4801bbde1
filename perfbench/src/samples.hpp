#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// Median (mean of the two middle values for an even count); 0 for an
/// empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// A tail statistic: the value at the highest nearest-rank percentile
/// that still has at least kTailBeyond samples above it, plus which
/// percentile that is.  Nearest rank: the p-th percentile of n sorted
/// samples is x[ceil(p * n / 100) - 1], so the highest qualifying rank
/// is n - kTailBeyond and p = 100 * (n - kTailBeyond) / n.  With fewer
/// than kTailBeyond + 1 samples no percentile qualifies; the median is
/// reported instead (percentile 50, `qualified` false).
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;  ///< per group when `passes` > 0
  bool qualified = false;
  std::size_t passes = 0;   ///< > 0: the median of this many per-group tails
};
[[nodiscard]] Tail tail(std::vector<double> values);

/// The tail of samples grouped by pass (or by any other window, such as
/// a shard write): the median over groups of each group's tail, so a
/// stall or a slow host period confined to a minority of groups does
/// not move the run's figure.  A group with more than kTailBeyond
/// samples contributes its tail(); a smaller group, where no percentile
/// qualifies, contributes its largest sample (percentile 100,
/// `qualified` false).
[[nodiscard]] Tail pass_tail(const std::vector<std::vector<double>>& passes);

}  // namespace perfbench
