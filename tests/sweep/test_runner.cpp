// sweep::SweepRunner: the kill/resume/shard contract.  A sweep that is
// interrupted and resumed, or split across shards and merged, must
// produce records byte-identical to one uninterrupted run.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "repro/experiment_file.hpp"
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

TEST(SweepTool, CountsJustAboveTheirCapsAreParseErrors) {
  // Rejected while parsing, so neither count is ever allocated and no
  // cell (or thread) starts.
  std::string tmpl = "/tmp/dls_sweep_tool_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  const std::string dir = tmpl;
  const std::string out = dir + "/out.jsonl";
  const std::string base = "technique SS\nworkload constant:1\n";
  const std::vector<std::string> specs = {
      base + "tasks 16\nworkers " + std::to_string(repro::kMaxWorkers + 1) + "\n",
      base + "workers 2\ntasks " + std::to_string(repro::kMaxTasks + 1) + "\n"};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string spec = dir + "/over" + std::to_string(i) + ".txt";
    std::ofstream(spec) << specs[i];
    EXPECT_EQ(run_tool(spec + " --out " + out + " --quiet"), 2) << specs[i];
  }
  EXPECT_FALSE(std::ifstream(out).good());
  EXPECT_EQ(std::system(("rm -rf " + dir).c_str()), 0);
}

TEST(SweepTool, MalformedShardAndCountFlagsAreUsageErrors) {
  // "1x/4" is a typo, not shard 1/4; a negative count must not wrap to
  // a huge unsigned one.  Both exit 2 before any cell runs.
  std::string tmpl = "/tmp/dls_sweep_tool_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  const std::string dir = tmpl;
  const std::string spec = dir + "/grid.sweep";
  {
    std::ofstream out(spec);
    out << "workload constant:1.0\ntasks 16\nworkers 2\nh 0.5\nreplicas 1\n"
           "sweep technique SS GSS\n";
  }
  const std::string out = dir + "/out.jsonl";
  for (const char* shard : {"1x/4", "1/4x", "/4", "1/", "-1/4", "1/+4", "0x1/4"}) {
    EXPECT_EQ(run_tool(spec + " --out " + out + " --quiet --shard " + shard), 2) << shard;
  }
  EXPECT_EQ(run_tool(spec + " --out " + out + " --quiet --max-cells -1"), 2);
  EXPECT_FALSE(std::ifstream(out).good());
  ASSERT_EQ(run_tool(spec + " --out " + out + " --quiet --shard 1/2"), 0);
  EXPECT_EQ(lines_of(read_file(out)).size(), 1u);

  EXPECT_EQ(std::system(("rm -rf " + dir).c_str()), 0);
}

TEST(SweepTool, PlainExperimentRunsAsOneReplayableRecord) {
  // A file without sweep lines is a one-cell grid: `dls_sweep -` is the
  // front end for single experiments, dls_check replays included.
  std::string tmpl = "/tmp/dls_sweep_tool_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  const std::string dir = tmpl;
  // Runs `text` on stdin; returns the exit code, output in `records`.
  auto run_stdin = [&](const std::string& text, const std::string& flags,
                       std::vector<std::string>& records) {
    {
      std::ofstream in(dir + "/in.txt");
      in << text;
    }
    const int code = run_tool("- --quiet " + flags + " < " + dir + "/in.txt > " + dir +
                              "/out.jsonl");
    records = lines_of(read_file(dir + "/out.jsonl"));
    return code;
  };
  std::vector<std::string> records;

  // 100 tasks of 1 s under STAT on 4 workers: one record, seed verbatim
  // (no derivation for a plain file), makespan 25.
  ASSERT_EQ(run_stdin("technique STAT\ntasks 100\nworkers 4\nworkload constant:1.0\n"
                      "h 0.5\nseed 7\n",
                      "", records),
            0);
  ASSERT_EQ(records.size(), 1u);
  const std::string stat = records[0];
  EXPECT_NE(stat.find("\"cell\":0,\"of\":1,\"backend\":\"mw\""), std::string::npos) << stat;
  EXPECT_NE(stat.find("\"seed\":7,"), std::string::npos) << stat;
  const std::size_t makespan = stat.find("\"makespan\":{");
  ASSERT_NE(makespan, std::string::npos) << stat;
  const std::size_t mean = stat.find("\"mean\":", makespan);
  ASSERT_NE(mean, std::string::npos) << stat;
  EXPECT_NEAR(std::strtod(stat.c_str() + mean + 7, nullptr), 25.0, 1e-9) << stat;

  // The record's experiment echo replays it byte for byte.
  const std::optional<std::string> echo = sweep::record_experiment(stat);
  ASSERT_TRUE(echo.has_value()) << stat;
  ASSERT_EQ(run_stdin(*echo, "", records), 0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], stat);

  // --backend picks the vehicle.
  ASSERT_EQ(run_stdin(*echo, "--backend hagerup", records), 0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0].find("\"backend\":\"hagerup\""), std::string::npos) << records[0];

  // Batched replicas render the same bytes at any pool width.
  const std::string replicated =
      "technique FAC2\ntasks 256\nworkers 4\nworkload exponential:1.0\nh 0.5\nseed 5\n"
      "replicas 8\n";
  ASSERT_EQ(run_stdin(replicated, "--threads 1", records), 0);
  ASSERT_EQ(records.size(), 1u);
  const std::string serial = records[0];
  EXPECT_NE(serial.find("\"replicas\":8,"), std::string::npos) << serial;
  ASSERT_EQ(run_stdin(replicated, "--threads 2", records), 0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], serial);

  // A parse error is exit 2 and runs nothing.
  EXPECT_EQ(run_stdin("technique STAT\ntasks 100\nworkers 4\nworkload constant:1.0\n"
                      "worklod constant:1.0\n",
                      "", records),
            2);
  EXPECT_TRUE(records.empty());

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
