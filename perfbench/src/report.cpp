#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::string format_number(double value) {
  if (!std::isfinite(value)) throw std::logic_error("perfbench: non-finite metric value");
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    const std::string& note) {
  metrics_.push_back(Metric{name, value, unit});
  line("metric " + name + " = " + format_number(value) + " " + unit +
       (note.empty() ? "" : "  [" + note + "]"));
}

void Report::tail_metric(const std::string& name, const Tail& t, const std::string& unit,
                         const std::string& what, const std::string& group) {
  std::string note =
      t.passes > 0 ? "median over " + std::to_string(t.passes) + " " + group + "s of " : "";
  if (t.passes > 0 && !t.qualified) {
    note += "the largest of " + std::to_string(t.samples) + " " + what + " per " + group +
            " (too few for a percentile with 10 beyond)";
  } else {
    note += "p";
    note += format_number(std::round(t.percentile * 100.0) / 100.0);
    note += " of " + std::to_string(t.samples) + " " + what;
    if (t.passes > 0) note += " per " + group;
    if (!t.qualified) note += "; fewer than 11 samples, so the median";
  }
  metric(name, t.value, unit, note);
}

void Report::line(const std::string& text) const {
  std::cout << "perfbench: " << text << "\n";
}

void Report::check(const std::string& what, const std::vector<std::string>& got,
                   const std::vector<std::string>& want) {
  std::size_t bad = std::max(got.size(), want.size()) - std::min(got.size(), want.size());
  const std::size_t common = std::min(got.size(), want.size());
  std::size_t first_bad = common;
  for (std::size_t i = 0; i < common; ++i) {
    if (got[i] != want[i]) {
      ++bad;
      first_bad = std::min(first_bad, i);
    }
  }
  operations(want.size(), bad, what);
  if (bad != 0) {
    line("MISMATCH " + what + ": " + std::to_string(bad) + " of " +
         std::to_string(want.size()) + " records differ (first at record " +
         std::to_string(first_bad) + ")");
  }
}

void Report::operations(std::size_t attempted, std::size_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed != 0) line("FAILED " + std::to_string(failed) + " operation(s): " + what);
}

void Report::print_result() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) out << ", ";
    out << "\"" << metrics_[i].name << "\": {\"value\": " << format_number(metrics_[i].value)
        << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

std::string records_digest(const std::vector<std::string>& records) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](unsigned char c) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  };
  for (const std::string& record : records) {
    for (const char c : record) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

std::optional<std::string> committed_digest(const std::string& workload) {
  std::ifstream in(PERFBENCH_DIGESTS);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string digest;
    if (fields >> name >> digest && name == workload) return digest;
  }
  return std::nullopt;
}

}  // namespace perfbench
