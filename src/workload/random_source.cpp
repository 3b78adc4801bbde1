#include "workload/random_source.hpp"

namespace workload {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97f4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

XoshiroSource::XoshiroSource(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
  // A state of all zeros would be a fixed point; splitmix64 cannot
  // produce four zero words from any seed, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::unique_ptr<RandomSource> XoshiroSource::split(std::uint64_t index) const {
  // Derive an independent stream by hashing (seed, index); splitmix64 in
  // the constructor decorrelates nearby indices.
  return std::make_unique<XoshiroSource>(seed_ ^ (0x9E3779B97f4A7C15ull * (index + 1)));
}

std::unique_ptr<RandomSource> make_source(std::uint64_t seed, bool use_rand48) {
  if (use_rand48) return std::make_unique<Rand48Source>(static_cast<std::uint32_t>(seed));
  return std::make_unique<XoshiroSource>(seed);
}

}  // namespace workload
