// Seeded parser fuzz: valid experiment files and sweep grids, mangled
// by byte flips, deleted spans and hostile tokens (inserted, or put in
// place of a value or a number), pushed
// through repro::parse_experiment_spec and sweep::parse_grid.  The
// contract is narrow: std::invalid_argument is the only exception
// either parser may throw, and every experiment that parses survives
// serialize -> parse -> serialize byte for byte (so a parsed file can
// always be replayed).  Every worker parses wire-delivered SPEC text
// with these parsers.
//
// Parse only: no cell runs, and the corpus keeps every count small, so
// no mutation can ask a parse for a large allocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "repro/experiment_file.hpp"
#include "sweep/grid.hpp"

namespace {

constexpr std::size_t kSeededMutations = 12000;

// splitmix64, as in the protocol fuzz: a failure replays from its seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::size_t below(std::size_t bound) { return bound == 0 ? 0 : next() % bound; }

 private:
  std::uint64_t state_;
};

// Valid inputs covering every key; grids (with `sweep` lines) go to
// parse_grid, plain files to parse_experiment_spec.
constexpr std::array<std::string_view, 7> kCorpus = {
    "technique FAC2\ntasks 64\nworkers 4\nworkload exponential:1.0\nh 0.5\nseed 7\n",
    "technique BOLD\ntasks 96\nworkers 3\nworkload gamma:2.0,0.5\nh 0.25\nmu 1.5\n"
    "sigma 0.5\ntimesteps 2\nseed 9\noverhead simulated\nlatency 2e-6\nbandwidth 1e8\n"
    "rand48 true\nreplicas 3\nseed_stride 5\nthreads 2\n",
    "technique CSS\ntasks 50\nworkers 2\nworkload uniform:0.5,1.5\ncss_chunk 4\ngss_min 2\n"
    "host_speed 2e9\nrequest_bytes 32\nreply_bytes 16\nbackend hagerup\n",
    "technique WF\ntasks 40\nworkers 3\nworkload constant:0.25\nspeeds 1,0.5,2\n"
    "weights 1,1,2\nfailures inf,3.5,inf\nprofile1 0:1e9,5:0,10:1e9\n",
    "technique TSS\ntasks 80\nworkers 2\nworkload bimodal:0.1,1.0,0.25  # comment\n"
    "h 0.1\nbackend runtime\n",
    "workload exponential:1.0\ntasks 64\nh 0.5\nseed 42\nreplicas 4\n"
    "sweep technique SS GSS TSS FAC2\nsweep workers 2 4\n",
    "technique GSS\nworkload ramp:2.0,0.1\ntasks 32\nworkers 2\nlatency 0\nbandwidth inf\n"
    "sweep backend mw hagerup\nsweep h 0.1 0.5\n",
};

constexpr std::array<std::string_view, 14> kTokens = {
    "1e999", "nan", "-1", "18446744073709551616", "1,,2", "exponential:-1", "inf",
    "-0", "0", " ", "\n", "#", "sweep workers 2 3\n", ":",
};

std::string mutate(std::string text, Rng& rng) {
  for (std::size_t edits = rng.below(4) == 0 ? 2 : 1; edits > 0; --edits) {
    switch (rng.below(5)) {
      case 0:  // flip a byte
        if (!text.empty()) text[rng.below(text.size())] = static_cast<char>(rng.below(256));
        break;
      case 1:  // delete a short span
        if (!text.empty()) {
          const std::size_t at = rng.below(text.size());
          text.erase(at, 1 + rng.below(std::min<std::size_t>(8, text.size() - at)));
        }
        break;
      case 2: {  // replace a value (the word after some space) with a token
        const std::size_t space = text.find(' ', rng.below(text.size() + 1));
        if (space == std::string::npos) break;
        const std::size_t end = text.find_first_of(" \n", space + 1);
        text.replace(space + 1, (end == std::string::npos ? text.size() : end) - space - 1,
                     kTokens[rng.below(kTokens.size())]);
        break;
      }
      case 3: {  // replace one number (a list item, say) with a token
        constexpr std::string_view kNumberChars = "0123456789.eE+-";
        const std::size_t digit = text.find_first_of("0123456789", rng.below(text.size() + 1));
        if (digit == std::string::npos) break;
        const std::size_t before = text.find_last_not_of(kNumberChars, digit);
        const std::size_t start = before == std::string::npos ? 0 : before + 1;
        const std::size_t end = text.find_first_not_of(kNumberChars, digit);
        text.replace(start, (end == std::string::npos ? text.size() : end) - start,
                     kTokens[rng.below(kTokens.size())]);
        break;
      }
      default:  // insert a token anywhere
        text.insert(rng.below(text.size() + 1), kTokens[rng.below(kTokens.size())]);
        break;
    }
  }
  return text;
}

// The replay contract for one parsed experiment.
void expect_round_trip(const repro::ExperimentSpec& spec, const std::string& input) {
  try {
    const std::string first = repro::serialize_experiment_spec(spec);
    const std::string second =
        repro::serialize_experiment_spec(repro::parse_experiment_spec(first));
    EXPECT_EQ(first, second) << "input:\n" << input;
  } catch (const std::invalid_argument& e) {
    ADD_FAILURE() << "a parsed experiment did not replay (" << e.what() << "); input:\n"
                  << input;
  }
}

TEST(ParserFuzz, OnlyInvalidArgumentAndEveryParsedExperimentReplays) {
  std::size_t parsed = 0;
  for (std::uint64_t seed = 0; seed < kSeededMutations; ++seed) {
    Rng rng(seed);
    const std::string_view valid = kCorpus[rng.below(kCorpus.size())];
    const std::string text = mutate(std::string(valid), rng);
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Any exception but std::invalid_argument escapes and fails here.
    if (valid.find("sweep ") == std::string_view::npos) {
      try {
        expect_round_trip(repro::parse_experiment_spec(text), text);
        ++parsed;
      } catch (const std::invalid_argument&) {
      }
      continue;
    }
    try {
      const sweep::Grid grid = sweep::parse_grid(text);
      expect_round_trip(sweep::cell(grid, 0).spec, text);
      expect_round_trip(sweep::cell(grid, grid.cells() - 1).spec, text);
      ++parsed;
    } catch (const std::invalid_argument&) {
    }
  }
  // The mutations must leave a real share parseable, or the replay
  // contract is never exercised (789 of the 12000 parse today).
  EXPECT_GT(parsed, kSeededMutations / 20);
}

TEST(ParserFuzz, TheUnmutatedCorpusParsesAndReplays) {
  for (const std::string_view valid : kCorpus) {
    const std::string text(valid);
    if (valid.find("sweep ") == std::string_view::npos) {
      expect_round_trip(repro::parse_experiment_spec(text), text);
    } else {
      const sweep::Grid grid = sweep::parse_grid(text);
      for (std::size_t i = 0; i < grid.cells(); ++i) {
        expect_round_trip(sweep::cell(grid, i).spec, text);
      }
    }
  }
}

}  // namespace
