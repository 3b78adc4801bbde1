// Process-level tests of `dls_sweep coordinate` / `work` (the real
// binary, via DLS_SWEEP_BIN): a sweep that loses workers mid-run --
// clean kills, torn-record kills, or silent hangs -- must exit 0 with
// a merged output byte-identical to a serial run, and its lease-event
// log must satisfy the exclusivity and hello-before-lease invariants.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/dist.hpp"
#include "check/net.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"

extern char** environ;

namespace {

constexpr const char* kSpec =
    "workload exponential:1.0\ntasks 128\nh 0.5\nseed 42\nreplicas 4\n"
    "sweep technique SS GSS TSS FAC2\nsweep workers 2 4\n";  // 8 cells

class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/dls_coord_XXXXXX";
    path_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::system(("rm -rf " + path_).c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

int run_tool(const std::string& args) {
  const std::string command = std::string(DLS_SWEEP_BIN) + " " + args + " 2>/dev/null";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string serial_reference() {
  std::ostringstream out;
  (void)sweep::SweepRunner().run(sweep::parse_grid(kSpec), {}, out);
  return out.str();
}

std::string write_spec(const TempDir& dir) {
  const std::string path = dir.path() + "/grid.sweep";
  std::ofstream out(path);
  out << kSpec;
  return path;
}

std::vector<dist::LeaseEvent> read_events(const std::string& path) {
  std::vector<dist::LeaseEvent> events;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (auto event = dist::parse_lease_event(line)) events.push_back(std::move(*event));
  }
  return events;
}

TEST(CoordinateTool, CleanFourWorkerRunMatchesSerialByteForByte) {
  const TempDir dir;
  const std::string spec = write_spec(dir);
  const std::string out = dir.path() + "/merged.jsonl";
  ASSERT_EQ(run_tool("coordinate " + spec + " --out " + out + " --workdir " + dir.path() +
                     "/wd --workers 4 --threads 1 --quiet"),
            0);
  EXPECT_EQ(read_file(out), serial_reference());
  EXPECT_EQ(check::check_lease_exclusivity(read_events(dir.path() + "/wd/events.jsonl")),
            std::nullopt);
}

TEST(CoordinateTool, LosingTwoOfFourWorkersStillMatchesSerial) {
  // The tentpole acceptance scenario: worker 0 SIGKILLed between
  // records, worker 1 killed mid-record write (torn tail).  Their
  // leases must be reclaimed and retried, and the merged output must
  // be bitwise identical to the uninterrupted serial run.
  const TempDir dir;
  const std::string spec = write_spec(dir);
  const std::string out = dir.path() + "/merged.jsonl";
  ASSERT_EQ(run_tool("coordinate " + spec + " --out " + out + " --workdir " + dir.path() +
                     "/wd --workers 4 --threads 1 --quiet --chaos 0:1:kill,1:1:truncate "
                     "--backoff-ms 10"),
            0);
  EXPECT_EQ(read_file(out), serial_reference());

  const std::vector<dist::LeaseEvent> events = read_events(dir.path() + "/wd/events.jsonl");
  EXPECT_EQ(check::check_lease_exclusivity(events), std::nullopt);
  // Every local worker introduced itself before its first lease.
  EXPECT_EQ(check::check_hello_before_lease(events), std::nullopt);
  std::size_t reclaims = 0;
  std::size_t dead = 0;
  for (const dist::LeaseEvent& event : events) {
    if (event.kind == "reclaim") ++reclaims;
    if (event.kind == "dead") {
      ++dead;
      // A kill is a death, never a garbled stream -- even when the
      // victim leaves unread bytes behind and its link resets.
      EXPECT_EQ(event.detail, "exit");
    }
  }
  EXPECT_GE(dead, 2u);     // both chaos victims died
  EXPECT_GE(reclaims, 2u);  // and their leases were taken back
}

TEST(CoordinateTool, HungWorkerIsReclaimedByDeadline) {
  // A hung worker (alive, link open, heartbeat silenced) is invisible
  // to EOF detection -- only the lease deadline can reclaim it.
  const TempDir dir;
  const std::string spec = write_spec(dir);
  const std::string out = dir.path() + "/merged.jsonl";
  ASSERT_EQ(run_tool("coordinate " + spec + " --out " + out + " --workdir " + dir.path() +
                     "/wd --workers 2 --threads 1 --quiet --chaos 1:1:hang "
                     "--heartbeat-ms 30 --deadline-ms 300 --backoff-ms 10"),
            0);
  EXPECT_EQ(read_file(out), serial_reference());

  bool deadline_reclaim = false;
  for (const dist::LeaseEvent& event : read_events(dir.path() + "/wd/events.jsonl")) {
    deadline_reclaim |= event.kind == "dead" && event.detail == "deadline";
  }
  EXPECT_TRUE(deadline_reclaim);
}

TEST(CoordinateTool, SeededChaosMatchesSerial) {
  // The CI chaos job's form: victims and kill points derived from a
  // seed, 2 of 4 workers lost.
  const TempDir dir;
  const std::string spec = write_spec(dir);
  const std::string out = dir.path() + "/merged.jsonl";
  ASSERT_EQ(run_tool("coordinate " + spec + " --out " + out + " --workdir " + dir.path() +
                     "/wd --workers 4 --threads 1 --quiet --chaos-seed 20170529 "
                     "--chaos-kills 2 --backoff-ms 10"),
            0);
  EXPECT_EQ(read_file(out), serial_reference());
}

TEST(CoordinateTool, RestartedCoordinatorAdoptsAndResumesPriorWork) {
  // Kill the whole first run early (chaos takes out the only worker ->
  // the coordinator fails loudly), then re-run with the same workdir:
  // published stripes are adopted, partial attempts resumed, and the
  // final output is still byte-identical.
  const TempDir dir;
  const std::string spec = write_spec(dir);
  const std::string out = dir.path() + "/merged.jsonl";
  // Stripe count pinned across the two runs: lease identity is shard
  // identity, so a restart must re-stripe the grid the same way.
  EXPECT_EQ(run_tool("coordinate " + spec + " --out " + out + " --workdir " + dir.path() +
                     "/wd --workers 1 --stripes 4 --threads 1 --quiet --chaos 0:3:kill "
                     "--backoff-ms 10"),
            1);
  ASSERT_EQ(run_tool("coordinate " + spec + " --out " + out + " --workdir " + dir.path() +
                     "/wd --workers 2 --stripes 4 --threads 1 --quiet --backoff-ms 10"),
            0);
  EXPECT_EQ(read_file(out), serial_reference());
  // The appended two-run log must still replay cleanly (seq resets).
  EXPECT_EQ(check::check_lease_exclusivity(read_events(dir.path() + "/wd/events.jsonl")),
            std::nullopt);
}

TEST(CoordinateTool, UsageAndSpecErrorsExitTwo) {
  const TempDir dir;
  const std::string spec = write_spec(dir);
  // Missing --out / --workdir.
  EXPECT_EQ(run_tool("coordinate " + spec), 2);
  // Unreadable spec.
  EXPECT_EQ(run_tool("coordinate " + dir.path() + "/nope.sweep --out o --workdir " + dir.path() +
                     "/wd"),
            2);
  // Malformed spec.
  std::ofstream(dir.path() + "/bad.sweep") << "sweep technique\n";
  EXPECT_EQ(run_tool("coordinate " + dir.path() + "/bad.sweep --out o --workdir " + dir.path() +
                     "/wd"),
            2);
  // Conflicting chaos forms.
  EXPECT_EQ(run_tool("coordinate " + spec + " --out o --workdir w --chaos 0:1 --chaos-kills 1"),
            2);
}

TEST(CoordinatorSetup, SpecFrameOverTheCapIsRefusedBeforeAnyWorkerStarts) {
  // SPEC travels as one frame, and every worker's decoder refuses a
  // frame past net::kMaxFramePayload.  A grid text one byte over must
  // fail at setup, by name -- before a worker is spawned or the
  // listener is up -- instead of losing every worker at its handshake.
  const TempDir dir;
  const std::string spec_path = dir.path() + "/big.sweep";
  const std::string head = std::string(kSpec) + "# ";
  const std::size_t message_bytes = net::kMaxFramePayload + 1;  // "SPEC " + text
  const std::size_t pad = message_bytes - std::string("SPEC ").size() - head.size() - 1;
  std::ofstream(spec_path) << head << std::string(pad, 'x') << "\n";

  for (const bool serve : {false, true}) {
    SCOPED_TRACE(serve ? "serve" : "coordinate");
    dist::CoordinatorOptions options;
    options.spec_path = spec_path;
    options.out_path = dir.path() + "/merged.jsonl";
    options.workdir = dir.path() + "/wd";
    options.worker_command = {DLS_SWEEP_BIN};
    if (serve) options.listen = "127.0.0.1:0";
    bool listening = false;
    std::vector<std::string> kinds;
    options.on_listening = [&listening](std::uint16_t) { listening = true; };
    options.on_event = [&kinds](const dist::LeaseEvent& event) { kinds.push_back(event.kind); };
    try {
      (void)dist::Coordinator(options).run();
      ADD_FAILURE() << "an oversize SPEC was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(message_bytes) + " bytes"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("frame cap"), std::string::npos) << e.what();
    }
    EXPECT_FALSE(listening);
    EXPECT_TRUE(kinds.empty());  // not even a spawn
  }
}

TEST(WorkTool, RejectsMissingDirAndBadSpec) {
  const TempDir dir;
  const std::string spec = write_spec(dir);
  // The spec arrives as SPEC; a spec file argument is a usage error.
  EXPECT_EQ(run_tool("work " + spec + " --dir " + dir.path() + " </dev/null"), 2);
  EXPECT_EQ(run_tool("work --dir " + dir.path() + " --backend mw </dev/null"), 2);
  // --connect gets past the stdin check; the --dir check fails before
  // the worker dials.
  EXPECT_EQ(run_tool("work --connect 127.0.0.1:1 </dev/null"), 2);  // no --dir
  // Without --connect the worker serves the socket on stdin.
  EXPECT_EQ(run_tool("work --dir " + dir.path() + " </dev/null"), 2);
}

/// A `dls_sweep work` process on one end of an AF_UNIX socketpair as
/// its stdin -- the link `coordinate` hands each worker -- driven by
/// hand from the other end.
class HandDrivenWorker {
 public:
  explicit HandDrivenWorker(const std::string& workdir) {
    int link[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, link) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, link[1], STDIN_FILENO);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null", O_WRONLY, 0);
    std::vector<std::string> args = {DLS_SWEEP_BIN, "work", "--dir", workdir, "--threads", "1"};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(link[1]);
    link_ = std::make_unique<net::SocketTransport>(link[0]);
    if (rc != 0) throw std::runtime_error("posix_spawn failed");
  }
  ~HandDrivenWorker() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)wait();
    }
  }

  [[nodiscard]] bool send(const dist::CoordinatorMsg& msg) { return link_->send(dist::encode(msg)); }

  /// The next message that is not a heartbeat ("" on timeout or EOF).
  [[nodiscard]] std::string next() {
    std::string message;
    while (link_->recv(message, std::chrono::seconds(10)) == net::Transport::RecvStatus::ok) {
      if (message.rfind("HB ", 0) != 0) return message;
    }
    return "";
  }

  /// Reap the process; its exit code (-1 if it did not exit).
  int wait() {
    int status = 0;
    const pid_t reaped = ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return reaped > 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  std::unique_ptr<net::SocketTransport> link_;
};

TEST(WorkTool, ServesALeaseOverStdinAndPublishesTheStripe) {
  // Drive one worker by hand the way `coordinate` does: HELLO in,
  // SPEC out, READY in, then LEASE stripe 0 of 2 and QUIT.  The stripe
  // file must appear (published atomically) and hold exactly the
  // records of shard 0/2.
  const TempDir dir;
  const std::string wd = dir.path() + "/wd";
  ASSERT_EQ(std::system(("mkdir -p " + wd).c_str()), 0);
  HandDrivenWorker worker(wd);

  EXPECT_EQ(worker.next(), "HELLO " + std::to_string(dist::kProtocolVersion) + " -");
  ASSERT_TRUE(worker.send(dist::SpecMsg{kSpec}));
  EXPECT_EQ(worker.next(), "READY");
  ASSERT_TRUE(worker.send(dist::LeaseMsg{0, 2, 0, {}}));
  EXPECT_EQ(worker.next().rfind("DONE 0 0 ", 0), 0u);
  ASSERT_TRUE(worker.send(dist::QuitMsg{}));
  EXPECT_EQ(worker.wait(), 0);

  sweep::SweepRunner::Options options;
  options.shard_index = 0;
  options.shard_count = 2;
  std::ostringstream expected;
  (void)sweep::SweepRunner(options).run(sweep::parse_grid(kSpec), {}, expected);
  EXPECT_EQ(read_file(dist::stripe_final_path(wd, 0)), expected.str());
}

}  // namespace
