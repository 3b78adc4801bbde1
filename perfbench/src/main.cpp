// perfbench: the repository benchmark program (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --dir <scratch>
//             [--smoke] [--git-sha <sha>] [--source-digest <hex>]
//
// --trace 0 runs the end-to-end metrics at pool width 2; --trace 1 runs
// the traced serial decomposition and prints the per-layer metrics.
// Both check every output and print, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}.  Exit
// status: 0 = all outputs correct, 1 = an output mismatch or a failed
// run, 2 = a usage error.
#include <sys/personality.h>

#include <charconv>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "runs.hpp"

namespace {

constexpr int kExitFailed = 1;
constexpr int kExitUsage = 2;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw std::invalid_argument(std::string(flag) + " expects a number, got '" +
                                std::string(text) + "'");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  try {
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
      const std::string_view flag = argv[i];
      if (flag == "--smoke") {
        options.smoke = true;
        continue;
      }
      if (i + 1 >= argc) throw std::invalid_argument(std::string(flag) + " needs a value");
      const std::string_view value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = parse_number<std::uint64_t>(flag, value);
      } else if (flag == "--seconds") {
        options.seconds = parse_number<double>(flag, value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--dir") {
        options.dir = value;
      } else if (flag == "--git-sha") {
        git_sha = value;
      } else if (flag == "--source-digest") {
        source_digest = value;
      } else {
        throw std::invalid_argument("unknown flag " + std::string(flag));
      }
    }
    if (!have_workload || options.dir.empty()) {
      throw std::invalid_argument("--workload and --dir are required");
    }
    (void)perfbench::make_workload(options.workload, options.seed, options.smoke);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return kExitUsage;
  }

  perfbench::Report report;
  try {
    std::filesystem::create_directories(options.dir);
    report.line("machine nproc=" + std::to_string(std::thread::hardware_concurrency()) +
                " cpu=\"" + cpu_model() + "\" compiler=\"" + PERFBENCH_COMPILER +
                "\" flags=\"" + PERFBENCH_FLAGS + "\" git_sha=" + git_sha +
                " source_digest=" + source_digest +
                " pool_width=" + std::to_string(perfbench::kPoolWidth) + " aslr=" +
                ((::personality(0xffffffff) & ADDR_NO_RANDOMIZE) != 0 ? "off" : "on"));
    report.line("run workload=" + options.workload + " seed=" + std::to_string(options.seed) +
                " seconds=" + perfbench::format_number(options.seconds) +
                " trace=" + (options.trace ? "1" : "0") + (options.smoke ? " smoke" : ""));
    if (options.trace) {
      perfbench::run_traced(options, report);
    } else {
      perfbench::run_end_to_end(options, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what() << "\n";
    return kExitFailed;
  }
  report.print_result();
  return report.correct() ? 0 : kExitFailed;
}
