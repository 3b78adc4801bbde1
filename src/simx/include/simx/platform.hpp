#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace simx {

/// Simulated (virtual) time in seconds, as in SimGrid.
using SimTime = double;

/// A piecewise-constant host speed profile: segment i is active from
/// time_points[i] until time_points[i+1] (the last segment extends to
/// infinity).  Profiles model the systemic variability (perturbations,
/// slowdowns, stopped hosts) studied in the robustness/resilience work
/// the paper builds on.
struct SpeedProfile {
  std::vector<SimTime> time_points;  ///< ascending, first must be 0
  std::vector<double> speeds;        ///< flops/s; zero = host stopped

  /// Validates invariants; throws std::invalid_argument.
  void validate() const;

  [[nodiscard]] bool operator==(const SpeedProfile&) const = default;
};

/// Process-wide interned "<prefix><index>" name ("w0", "worker17", ...).
/// The returned reference stays valid for the process lifetime.  Star
/// platforms and mailboxes are rebuilt for every simulated run; the
/// numbered name strings are shared across all of them instead of being
/// re-concatenated per run.  Thread-safe.
[[nodiscard]] const std::string& indexed_name(std::string_view prefix, std::size_t index);

/// A processing element of the simulated platform (paper Figure 2:
/// "Hosts: Speed, Number of Cores").  A PE in this work is a single
/// computing core (paper Section II).
class Host {
 public:
  Host(std::string name, double speed_flops, std::size_t index);

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Nominal speed in flops/s (the first profile segment).
  [[nodiscard]] double speed() const;
  [[nodiscard]] std::size_t index() const { return index_; }

  /// Replace the constant speed with a piecewise profile.
  void set_speed_profile(SpeedProfile profile);
  [[nodiscard]] const SpeedProfile& profile() const { return profile_; }

  /// Virtual time at which `flops` of work started at `start` completes,
  /// integrating the speed profile.  Throws std::runtime_error if the
  /// host's remaining capacity is zero forever (work can never finish).
  ///
  /// Inline fast path for the overwhelmingly common constant-speed host
  /// (one profile segment): the per-chunk execute() call must not pay
  /// an out-of-line segment walk.
  [[nodiscard]] SimTime finish_time(SimTime start, double flops) const {
    if (profile_.time_points.size() == 1) {
      if (flops <= 0.0) return start;
      const double speed = profile_.speeds[0];
      // speed == 0 falls through to the profiled path for its
      // "cannot finish" diagnostic.
      if (speed > 0.0) return start + flops / speed;
    }
    return finish_time_profiled(start, flops);
  }

 private:
  [[nodiscard]] SimTime finish_time_profiled(SimTime start, double flops) const;

  std::string name_;
  std::size_t index_;
  SpeedProfile profile_;
};

/// The simulated system: hosts and the routes between them (paper
/// Figure 2: "Hosts: Speed, Number of Cores" and "Network: Bandwidth,
/// Latency, Topology").  Hosts are addressed by the index add_host
/// assigns; a host's name is a diagnostic label only.
///
/// Message cost model: every route is one link, and a transfer of b
/// bytes along it costs latency + b / bandwidth.  This is a documented
/// simplification of SimGrid's flow model; the reproduced experiments
/// either null out the network (BOLD study: "bandwidth to a very high
/// value and the latency to a very low value") or use a star topology
/// where the simple model is exact per message.
class Platform {
 public:
  Platform() = default;
  Platform(Platform&&) noexcept = default;
  Platform& operator=(Platform&&) noexcept = default;
  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  /// Append a host; its index() is the number of hosts added before it.
  Host& add_host(const std::string& name, double speed_flops);
  /// Register a bidirectional route between two hosts over one link
  /// with the given bandwidth (bytes/s, > 0) and latency (s, >= 0);
  /// throws std::invalid_argument otherwise.  Re-registering a pair
  /// overwrites the previous route.
  void add_route(const Host& host_a, const Host& host_b, double bandwidth, SimTime latency);

  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] Host& host_at(std::size_t index) { return *hosts_.at(index); }

  /// Time to move `bytes` from `src` to `dst`.  Same-host transfers are
  /// free.  Throws std::runtime_error if no route is registered.
  [[nodiscard]] SimTime comm_time(const Host& src, const Host& dst, std::size_t bytes) const;

 private:
  struct RouteCost {
    SimTime latency = 0.0;
    double bandwidth = 0.0;  ///< > 0 for a registered route (add_route validates)
  };
  /// Dense per-host route row with a base offset: costs[j] is the route
  /// to peer index base + j, bandwidth == 0 meaning "no route".  A star
  /// topology stores O(hosts) total (the hub's row is contiguous, each
  /// leaf's row is one entry), and comm_time is two loads and a range
  /// check -- no tree walk, no pair hashing.
  struct RouteRow {
    std::size_t base = 0;
    std::vector<RouteCost> costs;
  };

  void set_route_cost(std::size_t from, std::size_t to, RouteCost cost);

  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<RouteRow> routes_;  ///< indexed by host index
};

}  // namespace simx
