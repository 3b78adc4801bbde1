#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "workload/rand48.hpp"

namespace workload {

/// Uniform random source abstraction.
///
/// Two implementations are provided: Rand48Source replicates the
/// generator used by the BOLD publication's simulator; XoshiroSource is
/// a high-quality modern generator used everywhere faithfulness to the
/// 1997 experiments is not required.  All distribution code draws
/// through this interface so an experiment can switch generator without
/// touching its workload definition.
class RandomSource {
 public:
  virtual ~RandomSource() = default;
  RandomSource() = default;
  RandomSource(const RandomSource&) = delete;
  RandomSource& operator=(const RandomSource&) = delete;

  /// Uniformly distributed double in [0, 1).
  virtual double uniform01() = 0;
  /// out[0..n) = the next n uniform01() values, in order, through one
  /// virtual call instead of n; the source ends where n uniform01()
  /// calls would leave it.  The task-time draw's block fill.
  virtual void fill_uniform01(double* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = uniform01();
  }
  /// Uniformly distributed 64-bit value.
  virtual std::uint64_t next_u64() = 0;
  /// Independent stream for run `index`; deterministic in (seed, index).
  [[nodiscard]] virtual std::unique_ptr<RandomSource> split(std::uint64_t index) const = 0;
};

/// RandomSource view over the POSIX rand48 recurrence.
class Rand48Source final : public RandomSource {
 public:
  explicit Rand48Source(std::uint32_t seed) : gen_(seed), seed_(seed) {}

  double uniform01() override { return gen_.drand48(); }
  void fill_uniform01(double* out, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) out[i] = gen_.drand48();
  }
  std::uint64_t next_u64() override {
    // Two 31-bit draws + one 2-bit draw would be wasteful; compose two
    // mrand48 words, which exercise the full 32 high bits of the state.
    const auto hi = static_cast<std::uint32_t>(gen_.mrand48());
    const auto lo = static_cast<std::uint32_t>(gen_.mrand48());
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
  }
  [[nodiscard]] std::unique_ptr<RandomSource> split(std::uint64_t index) const override {
    return std::make_unique<Rand48Source>(
        static_cast<std::uint32_t>(seed_ + 0x9E3779B9u * (index + 1)));
  }

 private:
  Rand48 gen_;
  std::uint32_t seed_;
};

/// xoshiro256** by Blackman & Vigna, seeded via splitmix64.
class XoshiroSource final : public RandomSource {
 public:
  explicit XoshiroSource(std::uint64_t seed);

  double uniform01() override {
    // 53 high-quality bits -> [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1p-53;
  }
  void fill_uniform01(double* out, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) out[i] = XoshiroSource::uniform01();
  }
  // Inline: one virtual dispatch per draw is unavoidable through the
  // interface, but the xoshiro step itself must not cost a second call
  // (the per-task draw is on the simulation hot path).
  std::uint64_t next_u64() override {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  [[nodiscard]] std::unique_ptr<RandomSource> split(std::uint64_t index) const override;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  std::uint64_t seed_;
};

/// The source a simulation draws its task times from: the replicated
/// rand48 family (seeded with the low 32 bits of `seed`) or xoshiro.
/// Every vehicle and checker builds its source here, so equal
/// (seed, use_rand48) always means an equal stream.
[[nodiscard]] std::unique_ptr<RandomSource> make_source(std::uint64_t seed, bool use_rand48);

}  // namespace workload
