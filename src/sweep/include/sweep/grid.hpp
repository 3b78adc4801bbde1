#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/batch.hpp"
#include "repro/experiment_file.hpp"

namespace sweep {

/// One swept dimension of a grid: `sweep <key> <v1> <v2> ...` in an
/// experiment file.  `key` is any key of the experiment-file format
/// (repro/experiment_file.hpp); the values are its raw value texts.
struct Axis {
  std::string key;
  std::vector<std::string> values;
  std::size_t line_no = 0;  ///< 1-based line of the sweep directive
};

/// A declarative experiment grid: a base experiment description plus
/// the cartesian product of all sweep axes -- the factorial designs of
/// the paper (techniques x problem sizes x worker counts x perturbation
/// profiles, ~1000 replicas per cell) as one text file:
///
///   workload  exponential:1.0
///   tasks     65536
///   h         0.5
///   seed      1000003
///   replicas  1000
///   sweep technique SS GSS TSS FAC2 BOLD
///   sweep workers   64 256
///   sweep backend   mw hagerup
///
/// Cell indices enumerate the product with the FIRST axis outermost
/// (slowest-varying) and the last axis fastest, i.e. row-major over the
/// axes in declaration order.
///
/// The `backend` axis is special: it is the paper's execution-vehicle
/// dimension, not a scientific parameter.  parse_grid canonicalizes it
/// (moved innermost, values sorted by name), the *scientific* cell
/// index (the index with the backend digit removed) drives per-cell
/// seed derivation -- so every backend replays a cell on identical
/// seeds, and the mw slice of a backend grid is bitwise identical to
/// the same grid without the backend axis -- and records key on
/// (scientific cell, backend name).
struct Grid {
  /// The spec text with the sweep directives removed; every cell is
  /// this text plus one `key value` override line per axis (the
  /// experiment parser takes the last assignment of a key).
  std::string base_text;
  std::vector<Axis> axes;
  /// Resolved backend of a grid without a `backend` axis (from the
  /// base text's `backend` key; "mw" when absent).  Empty when a
  /// backend axis exists -- use cell_backend() instead.
  std::string fixed_backend;

  /// Number of cells: the product of the axis sizes (1 for no axes).
  /// With a backend axis this counts (scientific cell, backend) runs.
  [[nodiscard]] std::size_t cells() const;

  /// The canonicalized `backend` axis, or nullptr.
  [[nodiscard]] const Axis* backend_axis() const;
  /// Size of the backend dimension (1 without a backend axis).
  [[nodiscard]] std::size_t backend_count() const;
  /// Number of scientific cells: cells() / backend_count().
  [[nodiscard]] std::size_t science_cells() const;
  /// Number of scientific (non-backend) axes.
  [[nodiscard]] std::size_t science_axes() const;
};

/// One expanded cell of a grid.
struct Cell {
  std::size_t index = 0;
  /// Index of the cell with the backend axis removed: what the sweep
  /// records call "cell", and what seed derivation runs on.  Equals
  /// `index` for grids without a backend axis.
  std::size_t science_index = 0;
  /// (axis key, chosen value) in axis order, backend included.
  std::vector<std::pair<std::string, std::string>> assignment;
  /// The cell's parsed experiment.  The seed is the *base* seed as
  /// written in the spec; batch_job() applies the per-cell derivation.
  repro::ExperimentSpec spec;
};

/// Parse a grid spec: `sweep` directives become axes, every other line
/// is passed through to the per-cell experiment text.  Validates the
/// directives (duplicate or empty axes are errors) and fully parses
/// cell 0 plus one cell per axis value, so a typo in a swept key fails
/// here and not an hour into a 10k-cell sweep.  A `backend` axis is
/// canonicalized (moved innermost, values name-sorted) so that record
/// order, sharding and merges are independent of how the axis was
/// declared.  Throws std::invalid_argument naming the offending line.
[[nodiscard]] Grid parse_grid(std::string_view text);

/// The experiment text of cell `index`: base_text plus one override
/// line per axis.  Parseable by repro::parse_experiment_spec.
[[nodiscard]] std::string cell_text(const Grid& grid, std::size_t index);

/// Expand cell `index` (lazily -- a 10k-cell grid never materializes
/// more than the cells actually run).
[[nodiscard]] Cell cell(const Grid& grid, std::size_t index);

/// Resolved backend name of cell `index` without expanding the cell
/// (the sharded runner's skip path must not pay a parse per skip).
[[nodiscard]] std::string_view cell_backend(const Grid& grid, std::size_t index);

/// The exec::BatchJob of a cell.  For a grid with at least one
/// *scientific* axis the cell's base seed is decorrelated through
/// mw::derive_cell_seed (splitmix64 over the scientific cell index, so
/// all backends of a cell share seeds); a plain experiment file without
/// scientific sweep directives keeps its seed verbatim, so `dls_sweep -`
/// runs a single experiment exactly as written, and a record's
/// experiment echo replays that cell's measured values.
[[nodiscard]] exec::BatchJob batch_job(const Grid& grid, const Cell& cell);

}  // namespace sweep
