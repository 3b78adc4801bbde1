#include "mw/trace.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "support/table.hpp"

namespace mw {
namespace {

/// Reconstruct per-worker busy intervals [start, end) from the chunk
/// log: a chunk issued at t to worker w occupies w until w's next chunk
/// is issued, or -- for its last chunk -- until w's share of remaining
/// compute ends.  Under the null-network analytic model the issue time
/// equals the execution start, and a worker requests again immediately
/// on completion, so "issue to next issue" equals the execution span
/// for all but the final chunk, whose end is bounded by the makespan.
std::vector<std::vector<std::pair<double, double>>> busy_intervals(const RunResult& result) {
  std::vector<std::vector<std::pair<double, double>>> intervals(result.workers.size());
  for (const dls::ChunkRecord& e : result.chunk_log) {
    auto& worker = intervals[e.pe];
    if (!worker.empty() && worker.back().second < 0.0) {
      worker.back().second = e.issued_at;  // close the previous chunk
    }
    worker.push_back({e.issued_at, -1.0});  // open until the next issue
  }
  for (std::size_t w = 0; w < intervals.size(); ++w) {
    if (!intervals[w].empty() && intervals[w].back().second < 0.0) {
      // Close the final chunk with the measured compute time.
      double known = 0.0;
      for (std::size_t i = 0; i + 1 < intervals[w].size(); ++i) {
        known += intervals[w][i].second - intervals[w][i].first;
      }
      const double last = std::max(0.0, result.workers[w].compute_time - known);
      intervals[w].back().second =
          std::min(result.makespan, intervals[w].back().first + last);
    }
  }
  return intervals;
}

}  // namespace

void write_chunk_csv(const RunResult& result, std::ostream& out) {
  if (result.chunk_log.empty() && result.chunk_count > 0) {
    throw std::invalid_argument(
        "write_chunk_csv: chunk log empty (set Config::record_chunk_log)");
  }
  out << "pe,first,size,issued_at\n";
  for (const dls::ChunkRecord& e : result.chunk_log) {
    out << e.pe << ',' << e.first << ',' << e.size << ',' << support::fmt(e.issued_at, 9)
        << '\n';
  }
}

std::vector<WorkerUtilization> utilization(const RunResult& result) {
  std::vector<WorkerUtilization> out(result.workers.size());
  for (std::size_t w = 0; w < result.workers.size(); ++w) {
    out[w].pe = w;
    out[w].chunks = result.workers[w].chunks;
    out[w].tasks = result.workers[w].tasks;
    out[w].busy_fraction =
        result.makespan > 0.0 ? result.workers[w].compute_time / result.makespan : 0.0;
  }
  return out;
}

std::string ascii_gantt(const RunResult& result, std::size_t width) {
  if (width == 0) throw std::invalid_argument("ascii_gantt: zero width");
  if (result.chunk_log.empty() && result.chunk_count > 0) {
    throw std::invalid_argument("ascii_gantt: chunk log empty (set Config::record_chunk_log)");
  }
  const auto intervals = busy_intervals(result);
  const double span = result.makespan > 0.0 ? result.makespan : 1.0;
  const double bin = span / static_cast<double>(width);

  std::ostringstream os;
  os << "t = 0 " << std::string(width > 12 ? width - 12 : 0, ' ') << "t = "
     << support::fmt(result.makespan, 1) << "\n";
  for (std::size_t w = 0; w < intervals.size(); ++w) {
    os << 'w' << w << (w < 10 ? "  |" : " |");
    for (std::size_t col = 0; col < width; ++col) {
      const double lo = static_cast<double>(col) * bin;
      const double hi = lo + bin;
      double busy = 0.0;
      for (const auto& [start, end] : intervals[w]) {
        busy += std::max(0.0, std::min(end, hi) - std::max(start, lo));
      }
      os << (busy >= 0.5 * bin ? '#' : '.');
    }
    os << "|\n";
  }
  return os.str();
}

}  // namespace mw
