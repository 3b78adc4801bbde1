// sweep::SweepRunner: the kill/resume/shard contract.  A sweep that is
// interrupted and resumed, or split across shards and merged, must
// produce records byte-identical to one uninterrupted run.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/record.hpp"
#include "sweep/runner.hpp"

namespace {

sweep::RecordKey key(std::size_t cell, const char* backend = "mw") {
  return sweep::RecordKey{cell, backend};
}

sweep::Grid test_grid() {
  return sweep::parse_grid(
      "workload exponential:1.0\ntasks 128\nh 0.5\nseed 42\nreplicas 4\n"
      "sweep technique SS GSS TSS\nsweep workers 2 4\n");
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

TEST(SweepRunner, StreamsOneRecordPerCell) {
  const sweep::Grid grid = test_grid();
  std::ostringstream out;
  const std::size_t computed = sweep::SweepRunner().run(grid, {}, out);
  EXPECT_EQ(computed, 6u);
  const std::vector<std::string> lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(sweep::record_cell_index(lines[i]), i);
}

TEST(SweepRunner, InterruptedThenResumedMatchesUninterrupted) {
  const sweep::Grid grid = test_grid();
  std::ostringstream uninterrupted;
  (void)sweep::SweepRunner().run(grid, {}, uninterrupted);

  // "Kill" the sweep after 2 cells (the deterministic stand-in for a
  // mid-sweep crash), then resume from what the output file holds.
  sweep::SweepRunner::Options first_options;
  first_options.max_cells = 2;
  std::ostringstream first;
  EXPECT_EQ(sweep::SweepRunner(first_options).run(grid, {}, first), 2u);

  std::istringstream scan_input(first.str());
  const sweep::ScanResult scanned = sweep::scan_records(scan_input);
  EXPECT_EQ(scanned.done.size(), 2u);

  std::ostringstream resumed;
  for (const std::string& line : scanned.lines) resumed << line << '\n';
  EXPECT_EQ(sweep::SweepRunner().run(grid, scanned.done, resumed), 4u);

  EXPECT_EQ(resumed.str(), uninterrupted.str());  // byte-identical
}

TEST(SweepRunner, ResumeAfterTruncatedTailRecomputesOnlyThatCell) {
  const sweep::Grid grid = test_grid();
  std::ostringstream uninterrupted;
  (void)sweep::SweepRunner().run(grid, {}, uninterrupted);
  const std::vector<std::string> full = lines_of(uninterrupted.str());

  // A killed process left 2 complete records and half of a third.
  std::stringstream damaged;
  damaged << full[0] << '\n' << full[1] << '\n' << full[2].substr(0, full[2].size() / 2);
  const sweep::ScanResult scanned = sweep::scan_records(damaged);
  EXPECT_TRUE(scanned.dropped_partial_tail);
  EXPECT_EQ(scanned.done, (std::set<sweep::RecordKey>{key(0), key(1)}));

  std::ostringstream resumed;
  for (const std::string& line : scanned.lines) resumed << line << '\n';
  EXPECT_EQ(sweep::SweepRunner().run(grid, scanned.done, resumed), 4u);
  EXPECT_EQ(resumed.str(), uninterrupted.str());
}

TEST(SweepRunner, ShardsPartitionTheGridAndMergeToTheFullSweep) {
  const sweep::Grid grid = test_grid();
  std::ostringstream uninterrupted;
  (void)sweep::SweepRunner().run(grid, {}, uninterrupted);

  std::vector<std::vector<std::string>> shards;
  std::size_t total = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    sweep::SweepRunner::Options options;
    options.shard_index = s;
    options.shard_count = 3;
    std::ostringstream out;
    total += sweep::SweepRunner(options).run(grid, {}, out);
    shards.push_back(lines_of(out.str()));
  }
  EXPECT_EQ(total, grid.cells());  // a partition: no cell twice, none missing

  const std::vector<std::string> merged = sweep::merge_records(shards);
  std::string merged_text;
  for (const std::string& line : merged) merged_text += line + '\n';
  EXPECT_EQ(merged_text, uninterrupted.str());  // byte-identical modulo order
}

TEST(SweepRunner, RecordsAreIndependentOfThreadCount) {
  const sweep::Grid grid = test_grid();
  auto run_with = [&](unsigned threads) {
    sweep::SweepRunner::Options options;
    options.threads = threads;
    std::ostringstream out;
    (void)sweep::SweepRunner(options).run(grid, {}, out);
    return out.str();
  };
  EXPECT_EQ(run_with(1), run_with(4));
}

TEST(SweepRunner, ObserverSeesSkipsAndCompletions) {
  const sweep::Grid grid = test_grid();
  std::size_t skipped = 0, completed = 0;
  std::ostringstream out;
  (void)sweep::SweepRunner().run(grid, {key(1), key(4)}, out,
                                 [&](const sweep::SweepRunner::CellEvent& event) {
                                   (event.skipped ? skipped : completed) += 1;
                                   EXPECT_EQ(event.cells_total, 6u);
                                 });
  EXPECT_EQ(skipped, 2u);
  EXPECT_EQ(completed, 4u);
}

TEST(SweepRunner, MaxCellsTruncationResumesAtTheFirstUncomputedCell) {
  // The max_cells x shard_index x resume interplay: a shard truncated
  // by max_cells must, on resume, *continue* at its first uncomputed
  // cell -- skipped already-done cells must not be counted against the
  // budget (or the shard would recompute nothing and never finish).
  const sweep::Grid grid = test_grid();  // 6 cells
  sweep::SweepRunner::Options shard_options;
  shard_options.shard_index = 0;
  shard_options.shard_count = 2;  // owns cells 0, 2, 4

  std::ostringstream full;
  EXPECT_EQ(sweep::SweepRunner(shard_options).run(grid, {}, full), 3u);

  // Three truncated passes of max_cells = 1 must walk 0 -> 2 -> 4.
  sweep::SweepRunner::Options truncated = shard_options;
  truncated.max_cells = 1;
  std::ostringstream out;
  std::set<sweep::RecordKey> done;
  for (const std::size_t expected_cell : {0u, 2u, 4u}) {
    std::vector<std::size_t> computed_cells;
    const std::size_t computed = sweep::SweepRunner(truncated).run(
        grid, done, out, [&](const sweep::SweepRunner::CellEvent& event) {
          if (!event.skipped) computed_cells.push_back(event.cell);
        });
    EXPECT_EQ(computed, 1u);
    ASSERT_EQ(computed_cells.size(), 1u);
    EXPECT_EQ(computed_cells.front(), expected_cell);
    std::istringstream scan_input(out.str());
    done = sweep::scan_records(scan_input).done;
  }
  EXPECT_EQ(done.size(), 3u);
  // A fourth truncated pass has nothing left to compute.
  EXPECT_EQ(sweep::SweepRunner(truncated).run(grid, done, out), 0u);
  EXPECT_EQ(out.str(), full.str());  // byte-identical to the untruncated shard
}

TEST(SweepRunner, OwnedCellsCountsTheShardsShare) {
  const sweep::Grid grid = test_grid();  // 6 cells
  sweep::SweepRunner::Options options;
  options.shard_count = 4;
  options.shard_index = 1;  // owns cells 1, 5
  EXPECT_EQ(sweep::SweepRunner(options).owned_cells(grid), 2u);
  options.shard_index = 3;  // owns cell 3
  EXPECT_EQ(sweep::SweepRunner(options).owned_cells(grid), 1u);
  EXPECT_EQ(sweep::SweepRunner().owned_cells(grid), 6u);
}

TEST(SweepRunner, WriteFailureIsAnErrorNotASilentTruncation) {
  // A full disk must not let the sweep report success: the first
  // failed record write throws instead of counting the cell computed.
  const sweep::Grid grid = test_grid();
  std::ostringstream out;
  out.setstate(std::ios::badbit);
  EXPECT_THROW((void)sweep::SweepRunner().run(grid, {}, out), std::runtime_error);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs the real `dls_sweep` binary; returns its exit code.
int run_tool(const std::string& args) {
  const std::string command = std::string(DLS_SWEEP_BIN) + " " + args + " 2>/dev/null";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(SweepTool, ResumeAfterTornTailMatchesUninterruptedByteForByte) {
  // The CLI path: `--out` is rewritten atomically (temp + fsync +
  // rename) before appending, so a resumed run leaves no temp file and
  // ends byte-identical to one uninterrupted run.
  std::string tmpl = "/tmp/dls_sweep_tool_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  const std::string dir = tmpl;
  const std::string spec = dir + "/grid.sweep";
  {
    std::ofstream out(spec);
    out << "workload exponential:1.0\ntasks 128\nh 0.5\nseed 42\nreplicas 4\n"
           "sweep technique SS GSS TSS\nsweep workers 2 4\n";
  }
  const std::string reference = dir + "/reference.jsonl";
  const std::string out = dir + "/out.jsonl";
  ASSERT_EQ(run_tool(spec + " --out " + reference + " --quiet"), 0);
  ASSERT_EQ(run_tool(spec + " --out " + out + " --quiet --max-cells 2"), 0);

  // Cut the last record in half, as a kill mid-write would.
  const std::vector<std::string> first = lines_of(read_file(out));
  ASSERT_EQ(first.size(), 2u);
  {
    std::ofstream torn(out, std::ios::trunc);
    torn << first[0] << '\n' << first[1].substr(0, first[1].size() / 2);
  }

  ASSERT_EQ(run_tool(spec + " --out " + out + " --resume --quiet"), 0);
  EXPECT_EQ(read_file(out), read_file(reference));
  EXPECT_FALSE(std::ifstream(out + ".tmp").good());
  // An existing output is never silently discarded.
  EXPECT_EQ(run_tool(spec + " --out " + out + " --quiet"), 2);
  EXPECT_EQ(read_file(out), read_file(reference));

  EXPECT_EQ(std::system(("rm -rf " + dir).c_str()), 0);
}

TEST(SweepRunner, RejectsBadShardOptions) {
  sweep::SweepRunner::Options options;
  options.shard_count = 0;
  EXPECT_THROW(sweep::SweepRunner{options}, std::invalid_argument);
  options.shard_count = 2;
  options.shard_index = 2;
  EXPECT_THROW(sweep::SweepRunner{options}, std::invalid_argument);
}

}  // namespace
