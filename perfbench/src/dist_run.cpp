#include "dist_run.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <system_error>

#include "dist/coordinator.hpp"
#include "trace.hpp"

extern char** environ;

namespace perfbench {
namespace {

double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

/// The spawned worker processes; the destructor kills and reaps any
/// still running, so no path out of run_distributed leaves one behind.
class WorkerProcesses {
 public:
  WorkerProcesses() = default;
  WorkerProcesses(const WorkerProcesses&) = delete;
  WorkerProcesses& operator=(const WorkerProcesses&) = delete;
  ~WorkerProcesses() {
    for (const pid_t pid : pids_) ::kill(pid, SIGKILL);
    (void)wait_all();
  }

  void spawn(const std::vector<std::string>& args, const std::string& log_path) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    std::vector<char*> argv;
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw std::system_error(rc, std::generic_category(), "perfbench: spawning " + args[0]);
    }
    pids_.push_back(pid);
  }

  /// Reap every worker; returns the largest peak RSS in MB.
  double wait_all() {
    double peak_mb = 0.0;
    for (const pid_t pid : pids_) {
      int status = 0;
      struct rusage usage {};
      while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
      }
      peak_mb = std::max(peak_mb, static_cast<double>(usage.ru_maxrss) / 1024.0);
    }
    pids_.clear();
    return peak_mb;
  }

 private:
  std::vector<pid_t> pids_;
};

}  // namespace

DistRun run_distributed(const Workload& workload, const std::string& dir) {
  // A fresh directory: the coordinator adopts stripe files it finds.
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  std::filesystem::create_directories(dir + "/work");
  const std::string spec_path = dir + "/grid.sweep";
  {
    std::ofstream spec(spec_path, std::ios::trunc);
    spec << workload.spec;
    spec.flush();
    if (!spec) throw std::runtime_error("perfbench: cannot write " + spec_path);
  }

  dist::CoordinatorOptions options;
  options.spec_path = spec_path;
  options.out_path = dir + "/merged.jsonl";
  options.workdir = dir + "/work";
  options.workers = kDistWorkers;
  options.stripes = kDistStripes;
  options.worker_threads = 1;
  options.listen = "127.0.0.1:0";
  options.accept_grace = std::chrono::milliseconds(20000);

  DistRun run;
  WorkerProcesses workers;
  std::int64_t spawn_ns = 0;
  std::int64_t last_done_ns = 0;
  std::int64_t complete_ns = 0;
  std::map<std::size_t, std::int64_t> lease_ns;  // by stripe
  std::map<std::size_t, std::int64_t> fetch_ns;  // by stripe

  options.on_listening = [&](std::uint16_t port) {
    spawn_ns = now_ns();
    for (std::size_t w = 0; w < kDistWorkers; ++w) {
      const std::string scratch = dir + "/worker-" + std::to_string(w);
      workers.spawn({PERFBENCH_DLS_SWEEP, "work", "--connect",
                     "127.0.0.1:" + std::to_string(port), "--dir", scratch, "--threads", "1",
                     "--idle-ms", "20000"},
                    scratch + ".log");
    }
  };
  options.on_event = [&](const dist::LeaseEvent& event) {
    const std::int64_t t = now_ns();
    if (event.kind == "ready") {
      run.ready_ms.push_back(ms_between(spawn_ns, t));
    } else if (event.kind == "lease") {
      lease_ns[event.stripe] = t;
      ++run.leases;
    } else if (event.kind == "fetch") {
      fetch_ns[event.stripe] = t;
    } else if (event.kind == "done") {
      run.lease_ms.push_back(ms_between(lease_ns[event.stripe], t));
      if (const auto it = fetch_ns.find(event.stripe); it != fetch_ns.end()) {
        run.fetch_ms.push_back(ms_between(it->second, t));
      }
      last_done_ns = t;
    } else if (event.kind == "complete") {
      complete_ns = t;
    }
  };

  dist::Coordinator coordinator(options);
  const dist::CoordinatorReport report = coordinator.run();
  run.worker_peak_rss_mb = workers.wait_all();
  run.merge_ms = ms_between(last_done_ns, complete_ns);
  run.reclaims = report.reclaims;
  run.retries = report.retries;
  run.workers_lost = report.workers_lost;

  run.out_path = options.out_path;
  run.merged_bytes = static_cast<std::size_t>(std::filesystem::file_size(run.out_path));
  return run;
}

}  // namespace perfbench
