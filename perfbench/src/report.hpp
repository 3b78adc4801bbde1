#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "samples.hpp"

namespace perfbench {

/// Everything a run prints.  Report lines go to stdout as they happen
/// ("perfbench: ..."); print_result() writes the closing JSON object
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// which must stay the last line of stdout.
class Report {
 public:
  /// Record a named metric and print it with its unit and a note (the
  /// sample count, or the percentile of a tail).
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note);
  /// `group` names what pass_tail grouped the samples by.
  void tail_metric(const std::string& name, const Tail& t, const std::string& unit,
                   const std::string& what, const std::string& group = "pass");
  void line(const std::string& text) const;

  /// Compare an output with its reference record by record: every
  /// reference record is one attempted operation, every record that is
  /// missing, extra or different one failed operation.
  void check(const std::string& what, const std::vector<std::string>& got,
             const std::vector<std::string>& want);
  void operations(std::size_t attempted, std::size_t failed, const std::string& what);

  [[nodiscard]] bool correct() const { return failed_ == 0; }
  [[nodiscard]] double fail_frac() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) / static_cast<double>(attempted_);
  }
  void print_result() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Shortest round-trip text of a double.
[[nodiscard]] std::string format_number(double value);

/// FNV-1a 64 of the records joined by newlines, as 16 hex digits.
[[nodiscard]] std::string records_digest(const std::vector<std::string>& records);

/// The committed digest of `workload`'s records at the default seed
/// (digests.txt), if there is one.
[[nodiscard]] std::optional<std::string> committed_digest(const std::string& workload);

}  // namespace perfbench
