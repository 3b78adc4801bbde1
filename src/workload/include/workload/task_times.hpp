#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "workload/random_source.hpp"

namespace workload {

/// The parts of a TaskDraw one draw fills (bit flags; combine with |).
/// Each vehicle reads its own: mw serves chunks from the running sums,
/// hagerup sums its chunks from the times and reports the total.
enum class DrawParts : unsigned {
  kNone = 0,
  kTimes = 1u << 0,   ///< TaskDraw::times
  kPrefix = 1u << 1,  ///< TaskDraw::prefix
  kTotal = 1u << 2,   ///< TaskDraw::total
};

[[nodiscard]] constexpr DrawParts operator|(DrawParts a, DrawParts b) {
  return static_cast<DrawParts>(static_cast<unsigned>(a) | static_cast<unsigned>(b));
}

/// Whether `parts` includes every part of `wanted`.
[[nodiscard]] constexpr bool includes(DrawParts parts, DrawParts wanted) {
  return (static_cast<unsigned>(parts) & static_cast<unsigned>(wanted)) ==
         static_cast<unsigned>(wanted);
}

/// One step's n task times and the sums taken over them, filled in a
/// single pass by TaskTimeGenerator::draw.  A part the draw was not
/// asked for is left empty (0 for the total); vectors keep their
/// capacity across draws.
struct TaskDraw {
  DrawParts parts = DrawParts::kNone;  ///< what the last draw filled
  std::vector<double> times;   ///< times[i]: task i's execution time (n entries)
  /// Left-to-right running sums: prefix[0] = 0 and
  /// prefix[i + 1] = prefix[i] + times[i] (n + 1 entries).
  std::vector<double> prefix;
  /// total_in + times[0] + ... + times[n - 1], added left to right, where
  /// total_in is the draw's carried-in total (0 for a fresh draw, so
  /// the total then equals prefix[n] bit for bit).
  double total = 0.0;
};

/// Tasks per block of a draw: a generator that consumes a fixed number
/// of uniforms per task fills one block's uniforms through one
/// RandomSource::fill_uniform01 call.
inline constexpr std::size_t kDrawBlock = 256;

/// Where one draw writes (TaskTimeGenerator::do_draw); a null pointer
/// skips that part.  `total` holds the carried-in total on entry and
/// the new total on return.
struct DrawTarget {
  double* times = nullptr;   ///< n entries
  double* prefix = nullptr;  ///< n + 1 entries, prefix[0] included
  double* total = nullptr;
};

/// Generator of task (loop-iteration) execution times, the central
/// application input of a DLS simulation (paper Figure 2: "Task
/// Execution Times" + "Distribution").
///
/// Implementations cover both kinds of workloads used by the reproduced
/// publications: position-dependent deterministic patterns (constant,
/// increasing, decreasing — TSS publication) and i.i.d. draws from a
/// probability distribution (exponential — BOLD publication; plus the
/// wider family used in the robustness/resilience follow-up studies).
class TaskTimeGenerator {
 public:
  virtual ~TaskTimeGenerator() = default;
  TaskTimeGenerator() = default;
  TaskTimeGenerator(const TaskTimeGenerator&) = delete;
  TaskTimeGenerator& operator=(const TaskTimeGenerator&) = delete;

  /// Execution time (seconds) of task `index` out of `n`.
  [[nodiscard]] virtual double sample(std::size_t index, std::size_t n, RandomSource& rng) const = 0;

  /// Nominal mean of the task times (the µ of paper Table I).
  [[nodiscard]] virtual double mean() const = 0;
  /// Nominal standard deviation (the σ of paper Table I; the paper's
  /// Table I calls it "variance" but uses it in units of time).
  [[nodiscard]] virtual double stddev() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Canonical `from_spec` text that reconstructs this generator, e.g.
  /// "exponential:1".  Numbers use shortest round-trip formatting, so
  /// from_spec(spec()) samples identically.  Generators with no spec
  /// form (trace) fall back to name(), which from_spec rejects.
  [[nodiscard]] virtual std::string spec() const { return name(); }

  /// Materialize all n task times (the per-run workload vector).
  [[nodiscard]] std::vector<double> generate(std::size_t n, RandomSource& rng) const;

  /// Fill `out` (resized to n) with the same values generate() would
  /// produce, reusing out's capacity: the times-only case of draw().
  void generate_into(std::vector<double>& out, std::size_t n, RandomSource& rng) const;

  /// Draw n task times and fill the requested `parts` of `out` in one
  /// pass, reusing its capacity; parts not requested are cleared.  The
  /// times equal generate()'s, and the source ends where generate()
  /// leaves it, whatever the parts.  `total_in` starts the total, so a
  /// run's total over several steps stays one left-to-right sum.  This
  /// is the simulation hot path: vehicles read the sums off the draw
  /// instead of walking the times again, and a time-stepping run
  /// redraws every step without allocating in steady state.
  void draw(TaskDraw& out, std::size_t n, RandomSource& rng, DrawParts parts,
            double total_in = 0.0) const;

 protected:
  /// The draw loop: times[i] = sample(i, n, rng) for i in [0, n), with
  /// the running sums and the total taken in the same loop.  Generators
  /// that use a fixed number of uniforms per task override it with a
  /// devirtualized loop on block-filled uniforms whose values are
  /// bit-identical to per-sample generation.
  virtual void do_draw(const DrawTarget& target, std::size_t n, RandomSource& rng) const;
};

/// Every task takes exactly `value` seconds (TSS experiments 1 and 2).
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> constant(double value);

/// Uniform in [lo, hi).
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> uniform(double lo, double hi);

/// Exponential with mean mu (BOLD experiments: mu = 1 s, sigma = 1 s).
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> exponential(double mu);

/// Normal(mu, sigma) truncated below at `floor` (task times must stay
/// positive; the floor is re-sampled, not clamped, to avoid an atom).
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> normal(double mu, double sigma,
                                                        double floor = 1e-9);

/// Gamma with shape k and scale theta (mean k*theta).
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> gamma(double shape, double scale);

/// Lognormal such that the *resulting* distribution has the given mean
/// and standard deviation.
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> lognormal(double mean, double stddev);

/// Weibull with shape k and scale lambda.
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> weibull(double shape, double scale);

/// Mixture: with probability `weight_hi` a task costs `hi`, else `lo`
/// (models the bimodal kernels of irregular scientific codes).
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> bimodal(double lo, double hi, double weight_hi);

/// Deterministic linear ramp from `first` (task 0) to `last` (task n-1):
/// the TSS publication's "increasing"/"decreasing" workloads.
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> linear_ramp(double first, double last);

/// Replay a recorded trace of task times (paper Section III: "a trace
/// file or similar information describing the behavior of the measured
/// application").  Index i uses trace[i % trace.size()].
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> trace(std::vector<double> values);

/// Build a generator from a textual spec, e.g. "constant:0.00011",
/// "exponential:1.0", "uniform:0.5,1.5", "normal:1.0,0.2",
/// "gamma:2.0,0.5", "ramp:2.0,0.1", "bimodal:0.1,1.0,0.25".
/// Throws std::invalid_argument on malformed specs.
[[nodiscard]] std::unique_ptr<TaskTimeGenerator> from_spec(const std::string& spec);

}  // namespace workload
