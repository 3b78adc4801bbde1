#include "simx/platform.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>

namespace simx {

namespace {

/// Lock-free interner storage for one prefix: geometrically sized
/// blocks of eagerly built "<prefix><i>" strings.  Block b holds
/// 64 << b entries starting at index (2^b - 1) * 64; blocks are never
/// moved or freed while the process lives, so returned references are
/// stable.  Readers take no lock at all: `published` is stored with
/// release order after a whole block of strings is constructed, and an
/// acquire load of it makes those strings (and the block pointer)
/// visible.  Writers serialize on `grow_mutex`.
struct PrefixTable {
  static constexpr std::size_t kBlockShift = 6;  // block 0 holds 64 strings
  static constexpr std::size_t kBlocks = 48;

  std::atomic<std::size_t> published{0};
  std::array<std::atomic<std::string*>, kBlocks> blocks{};
  std::mutex grow_mutex;
  std::string prefix;

  static std::pair<std::size_t, std::size_t> locate(std::size_t index) {
    const std::size_t slot = (index >> kBlockShift) + 1;
    const std::size_t block = static_cast<std::size_t>(std::bit_width(slot)) - 1;
    const std::size_t block_start = ((std::size_t{1} << block) - 1) << kBlockShift;
    return {block, index - block_start};
  }

  const std::string& get(std::size_t index) {
    if (index >= published.load(std::memory_order_acquire)) grow_to(index);
    const auto [block, offset] = locate(index);
    return blocks[block].load(std::memory_order_relaxed)[offset];
  }

  void grow_to(std::size_t index) {
    std::lock_guard<std::mutex> lock(grow_mutex);
    std::size_t count = published.load(std::memory_order_relaxed);
    while (count <= index) {
      const auto [block, offset] = locate(count);
      static_cast<void>(offset);
      const std::size_t block_size = std::size_t{1} << (kBlockShift + block);
      std::string* strings = new std::string[block_size];
      for (std::size_t i = 0; i < block_size; ++i) {
        strings[i] = prefix + std::to_string(count + i);
      }
      blocks[block].store(strings, std::memory_order_relaxed);
      count += block_size;
    }
    // Publish whole blocks at once; the release pairs with the acquire
    // in get() to make the block pointers and string contents visible.
    published.store(count, std::memory_order_release);
  }

  ~PrefixTable() {
    for (std::atomic<std::string*>& block : blocks) {
      delete[] block.load(std::memory_order_relaxed);
    }
  }
};

PrefixTable& prefix_table(std::string_view prefix) {
  // Thread-local cache of resolved prefixes: the steady-state lookup
  // ("w", "worker") is a short linear scan with zero shared state.
  struct CacheEntry {
    std::string prefix;
    PrefixTable* table;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& entry : cache) {
    if (entry.prefix == prefix) return *entry.table;
  }
  static std::mutex registry_mutex;
  static std::vector<std::unique_ptr<PrefixTable>>* registry =
      new std::vector<std::unique_ptr<PrefixTable>>();  // leaked: references outlive statics
  std::lock_guard<std::mutex> lock(registry_mutex);
  PrefixTable* table = nullptr;
  for (const std::unique_ptr<PrefixTable>& t : *registry) {
    if (t->prefix == prefix) {
      table = t.get();
      break;
    }
  }
  if (table == nullptr) {
    registry->push_back(std::make_unique<PrefixTable>());
    table = registry->back().get();
    table->prefix = std::string(prefix);
  }
  cache.push_back(CacheEntry{std::string(prefix), table});
  return *table;
}

}  // namespace

const std::string& indexed_name(std::string_view prefix, std::size_t index) {
  return prefix_table(prefix).get(index);
}

void SpeedProfile::validate() const {
  if (time_points.empty() || time_points.size() != speeds.size()) {
    throw std::invalid_argument("SpeedProfile: need equally many time points and speeds (>= 1)");
  }
  if (time_points.front() != 0.0) {
    throw std::invalid_argument("SpeedProfile: first time point must be 0");
  }
  for (std::size_t i = 1; i < time_points.size(); ++i) {
    if (!(time_points[i] > time_points[i - 1])) {
      throw std::invalid_argument("SpeedProfile: time points must be strictly ascending");
    }
  }
  for (double s : speeds) {
    if (s < 0.0 || !std::isfinite(s)) {
      throw std::invalid_argument("SpeedProfile: speeds must be finite and >= 0");
    }
  }
}

Host::Host(std::string name, double speed_flops, std::size_t index)
    : name_(std::move(name)), index_(index) {
  if (!(speed_flops > 0.0)) throw std::invalid_argument("Host: speed must be > 0");
  profile_.time_points = {0.0};
  profile_.speeds = {speed_flops};
}

double Host::speed() const { return profile_.speeds.front(); }

void Host::set_speed_profile(SpeedProfile profile) {
  profile.validate();
  profile_ = std::move(profile);
}

SimTime Host::finish_time_profiled(SimTime start, double flops) const {
  if (flops <= 0.0) return start;
  // Locate the active segment, then consume capacity segment by segment.
  std::size_t seg = 0;
  while (seg + 1 < profile_.time_points.size() && profile_.time_points[seg + 1] <= start) ++seg;
  SimTime t = start;
  double remaining = flops;
  for (;;) {
    const double speed = profile_.speeds[seg];
    const bool last = seg + 1 == profile_.time_points.size();
    const SimTime seg_end = last ? std::numeric_limits<SimTime>::infinity()
                                 : profile_.time_points[seg + 1];
    if (speed > 0.0) {
      const SimTime need = remaining / speed;
      if (t + need <= seg_end) return t + need;
      remaining -= speed * (seg_end - t);
    }
    if (last) {
      throw std::runtime_error("Host '" + name_ +
                               "': work cannot finish (zero speed to infinity)");
    }
    t = seg_end;
    ++seg;
  }
}

Host& Platform::add_host(const std::string& name, double speed_flops) {
  hosts_.push_back(std::make_unique<Host>(name, speed_flops, hosts_.size()));
  routes_.emplace_back();
  return *hosts_.back();
}

void Platform::set_route_cost(std::size_t from, std::size_t to, RouteCost cost) {
  RouteRow& row = routes_[from];
  if (row.costs.empty()) {
    row.base = to;
    row.costs.push_back(cost);
    return;
  }
  if (to < row.base) {
    row.costs.insert(row.costs.begin(), row.base - to, RouteCost{});
    row.base = to;
  } else if (to - row.base >= row.costs.size()) {
    row.costs.resize(to - row.base + 1);
  }
  row.costs[to - row.base] = cost;
}

void Platform::add_route(const Host& host_a, const Host& host_b, double bandwidth,
                         SimTime latency) {
  if (!(bandwidth > 0.0)) throw std::invalid_argument("link bandwidth must be > 0");
  if (latency < 0.0) throw std::invalid_argument("link latency must be >= 0");
  const RouteCost cost{latency, bandwidth};
  set_route_cost(host_a.index(), host_b.index(), cost);
  set_route_cost(host_b.index(), host_a.index(), cost);
}

SimTime Platform::comm_time(const Host& src, const Host& dst, std::size_t bytes) const {
  if (src.index() == dst.index()) return 0.0;
  const RouteRow& row = routes_[src.index()];
  const std::size_t peer = dst.index();
  if (peer < row.base || peer - row.base >= row.costs.size() ||
      !(row.costs[peer - row.base].bandwidth > 0.0)) {
    throw std::runtime_error("no route between '" + src.name() + "' and '" + dst.name() + "'");
  }
  const RouteCost& cost = row.costs[peer - row.base];
  return cost.latency + static_cast<double>(bytes) / cost.bandwidth;
}

}  // namespace simx
