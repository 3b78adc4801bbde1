#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

/// Width of every parallel pool the benchmark drives (SweepRunner,
/// BatchRunner, pool::Executor): it fits any box with nproc >= 2.
inline constexpr unsigned kPoolWidth = 2;

/// One benchmark workload: a grid spec for sweep::parse_grid plus how
/// the grid is driven.
struct Workload {
  std::string name;
  /// Grid spec; every seed in it derives from the --seed argument.
  std::string spec;
  /// The write phase runs the grid as shards 0/k .. k-1/k into k files.
  std::size_t shards = 1;
};

/// Build the named workload for `seed`.  `smoke` shrinks every grid to
/// a tiny problem of the same shape (the benchmark's self-test).
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, std::uint64_t seed, bool smoke);

}  // namespace perfbench
