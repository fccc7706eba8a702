#include "src/harness/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <system_error>

#ifndef _WIN32
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define ODHARNESS_HAS_FORK 1
#endif

#include "src/harness/job_budget.h"

namespace odharness {

namespace {

// Streams `path` to stdout and deletes it.  Used to replay a finished
// child's captured output in registry order.
void ReplayLog(const std::string& path) {
  if (std::FILE* log = std::fopen(path.c_str(), "r")) {
    char buffer[1 << 14];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), log)) > 0) {
      std::fwrite(buffer, 1, n, stdout);
    }
    std::fclose(log);
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

int SerialLoop(const std::vector<const Experiment*>& experiments,
               const RunOptions& options) {
  int worst = 0;
  for (const Experiment* experiment : experiments) {
    worst = std::max(worst, RunExperiment(*experiment, options));
  }
  return worst;
}

}  // namespace

int RunExperiment(const Experiment& experiment, const RunOptions& options) {
  std::printf("=== %s: %s ===\n", experiment.name.c_str(),
              experiment.description.c_str());
  RunContext ctx(experiment.name, options);
  const auto start = std::chrono::steady_clock::now();
  int rc = experiment.run(ctx);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  ctx.artifact().exit_code = rc;
  std::printf("--- %s: rc=%d wall=%.0f ms", experiment.name.c_str(), rc,
              wall_ms);
  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/" + experiment.name + ".json";
    if (ctx.artifact().WriteFile(path, options.compact_artifacts)) {
      std::printf(" artifact=%s", path.c_str());
    } else {
      std::fprintf(stderr, "odbench: could not write %s\n", path.c_str());
      rc = std::max(rc, 74);  // EX_IOERR: a missing artifact must fail CI.
    }
    // Auxiliary documents (power traces) land next to the scalar artifact
    // under the same atomic-write and must-exist-for-CI rules.
    for (const auto& [filename, document] : ctx.aux_documents()) {
      const std::string aux_path = options.out_dir + "/" + filename;
      if (WriteJsonFile(aux_path, document, options.compact_artifacts)) {
        std::printf(" %s", aux_path.c_str());
      } else {
        std::fprintf(stderr, "odbench: could not write %s\n",
                     aux_path.c_str());
        rc = std::max(rc, 74);
      }
    }
  }
  std::printf(" ---\n\n");
  return rc;
}

#ifdef ODHARNESS_HAS_FORK

int RunExperiments(const std::vector<const Experiment*>& experiments,
                   const RunOptions& options) {
  const size_t n = experiments.size();
  if (options.jobs <= 1 || n <= 1) {
    return SerialLoop(experiments, options);
  }

  // Captured per-experiment logs; replayed to stdout in list order.
  std::error_code ec;
  std::string log_dir =
      (options.out_dir.empty()
           ? std::filesystem::temp_directory_path(ec).string()
           : options.out_dir) +
      "/.odbench-logs-" + std::to_string(::getpid());
  std::filesystem::create_directories(log_dir, ec);
  if (ec) {
    return SerialLoop(experiments, options);
  }
  auto log_path = [&](size_t i) {
    return log_dir + "/" + experiments[i]->name + ".log";
  };

  // The jobserver pipe: one byte per worker slot.  The read end is
  // non-blocking — every layer acquires tokens opportunistically.
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    return SerialLoop(experiments, options);
  }
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  for (int i = 0; i < options.jobs; ++i) {
    char token = '+';
    if (::write(fds[1], &token, 1) != 1) {
      ::close(fds[0]);
      ::close(fds[1]);
      return SerialLoop(experiments, options);
    }
  }
  JobBudget::Global().ConfigurePipe(fds[0], fds[1]);

  std::vector<int> rcs(n, 0);
  std::vector<bool> done(n, false);
  std::map<pid_t, size_t> running;
  size_t next_to_start = 0;
  size_t next_to_print = 0;
  int worst = 0;

  // Per-child watchdog (--experiment-timeout).  Each forked child gets a
  // wall-clock deadline; overdue ones are SIGKILLed and reported as rc 124
  // (the `timeout(1)` convention) in the registry-order replay.  A killed
  // child takes any helper tokens it held with it, so once no children
  // remain the jobserver pipe is reprimed to the full budget.
  using Clock = std::chrono::steady_clock;
  const bool watchdog = options.experiment_timeout_seconds > 0;
  const auto timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options.experiment_timeout_seconds));
  std::map<pid_t, Clock::time_point> deadlines;
  std::set<size_t> timed_out;
  bool tokens_may_be_lost = false;

  auto flush_done = [&] {
    while (next_to_print < n && done[next_to_print]) {
      ReplayLog(log_path(next_to_print));
      ++next_to_print;
    }
  };

  // Runs one experiment in the parent, output still captured to its log so
  // the replay order holds.  Fallback for fork failure / lost tokens.
  auto run_inline = [&](size_t index) {
    int saved_out = ::dup(1);
    int saved_err = ::dup(2);
    std::fflush(nullptr);
    std::FILE* log = std::fopen(log_path(index).c_str(), "w");
    if (log != nullptr) {
      ::dup2(::fileno(log), 1);
      ::dup2(::fileno(log), 2);
    }
    rcs[index] = RunExperiment(*experiments[index], options);
    std::fflush(nullptr);
    if (log != nullptr) {
      std::fclose(log);
    }
    ::dup2(saved_out, 1);
    ::dup2(saved_err, 2);
    ::close(saved_out);
    ::close(saved_err);
    worst = std::max(worst, rcs[index]);
    done[index] = true;
    flush_done();
  };

  while (next_to_start < n || !running.empty()) {
    bool progressed = false;

    // Reap any finished children, returning their main-thread tokens.
    while (!running.empty()) {
      int status = 0;
      pid_t pid = ::waitpid(-1, &status, WNOHANG);
      if (pid <= 0) {
        break;
      }
      auto it = running.find(pid);
      if (it == running.end()) {
        continue;
      }
      const size_t index = it->second;
      running.erase(it);
      deadlines.erase(pid);
      rcs[index] = timed_out.count(index) != 0
                       ? 124
                       : (WIFEXITED(status) ? WEXITSTATUS(status)
                                            : 128 + WTERMSIG(status));
      worst = std::max(worst, rcs[index]);
      done[index] = true;
      JobBudget::Global().Release();
      flush_done();
      progressed = true;
    }

    // Kill children past their wall-clock budget.  They stay in `running`
    // until waitpid reaps the SIGKILL above.
    if (watchdog && !deadlines.empty()) {
      const auto now = Clock::now();
      for (auto it = deadlines.begin(); it != deadlines.end();) {
        if (now < it->second) {
          ++it;
          continue;
        }
        const size_t index = running.at(it->first);
        ::kill(it->first, SIGKILL);
        timed_out.insert(index);
        tokens_may_be_lost = true;
        // Appended to the child's captured log so the note shows up in
        // its slot of the registry-order replay.
        if (std::FILE* log = std::fopen(log_path(index).c_str(), "a")) {
          std::fprintf(log,
                       "odbench: %s exceeded --experiment-timeout (%g s); "
                       "killed\n",
                       experiments[index]->name.c_str(),
                       options.experiment_timeout_seconds);
          std::fclose(log);
        }
        it = deadlines.erase(it);
      }
    }

    // A killed child never returned the helper tokens it had acquired.
    // Once no children hold tokens, every live token is back in the pipe:
    // drain it and rewrite the full budget.
    if (tokens_may_be_lost && running.empty()) {
      while (JobBudget::Global().TryAcquire()) {
      }
      for (int i = 0; i < options.jobs; ++i) {
        JobBudget::Global().Release();
      }
      tokens_may_be_lost = false;
    }

    // Launch further experiments while worker tokens are free.
    while (next_to_start < n && JobBudget::Global().TryAcquire()) {
      const size_t index = next_to_start++;
      progressed = true;
      // Flush before forking: the child inherits stdio buffers and shares
      // our file offsets, so any pending bytes would be written twice.
      std::fflush(nullptr);
      pid_t pid = ::fork();
      if (pid == 0) {
        // Child: capture all output, run the one experiment, exit raw.
        std::FILE* log = std::freopen(log_path(index).c_str(), "w", stdout);
        if (log != nullptr) {
          ::dup2(::fileno(stdout), 2);
        }
        int rc = RunExperiment(*experiments[index], options);
        std::fflush(nullptr);
        ::_exit(rc < 0 || rc > 125 ? 125 : rc);
      }
      if (pid > 0) {
        running.emplace(pid, index);
        if (watchdog) {
          deadlines.emplace(pid, Clock::now() + timeout);
        }
        continue;
      }
      run_inline(index);  // Fork failed; degrade gracefully.
      JobBudget::Global().Release();
    }

    if (!progressed) {
      if (running.empty() && next_to_start < n) {
        // No child is running and no token surfaced — tokens were lost
        // (a crashed child takes its helpers' tokens with it).  Degrade to
        // inline execution rather than spinning forever.
        run_inline(next_to_start++);
        continue;
      }
      // Tokens are all in flight inside children; wait for movement.
      ::usleep(2000);
    }
  }

  flush_done();
  JobBudget::Global().Reset();
  ::close(fds[0]);
  ::close(fds[1]);
  std::filesystem::remove(log_dir, ec);
  return worst;
}

#else  // !ODHARNESS_HAS_FORK

int RunExperiments(const std::vector<const Experiment*>& experiments,
                   const RunOptions& options) {
  return SerialLoop(experiments, options);
}

#endif

}  // namespace odharness
