// Task-attempt lifecycle (the JobTracker's view of one try at a task).
//
// Every execution of a map or reduce task — the original assignment, a
// failure-injected retry, a recovery re-execution, or a speculative
// backup — is a TaskAttempt with a job-wide id, the host it runs on,
// and a progress fraction reported at task checkpoints. Attempts move
// RUNNING -> SUCCEEDED | KILLED | FAILED exactly once:
//
//   SUCCEEDED  the attempt's output was committed (maps: registered by
//              record_map_output; reduces: won the commit race and
//              renamed its attempt file over the final part file).
//   KILLED     the attempt lost a speculation race. The winner requests
//              the kill; the loser observes it at its next checkpoint
//              (or when its commit is refused), unwinds — cancelling
//              in-flight shuffle fetches and releasing spill/arena
//              resources by scope exit — and is counted in
//              `speculation.kills`.
//   FAILED     fault injection killed the attempt partway
//              (mapred.fault.map.failure.prob); the JobTracker
//              reschedules the task.
//
// Speculative execution (LATE, Zaharia et al. OSDI'08): idle worker
// slots poll JobRuntime::try_claim_backup, which estimates each running
// original attempt's total duration from its progress rate, flags
// attempts projected to run `mapred.speculative.slow.factor` times
// longer than the reference (mean completed-task duration, or the mean
// running estimate before anything completes), and claims the flagged
// task with the *longest estimated time to completion* for a backup on
// a different host. Whichever attempt finishes first commits; output is
// byte-identical to a no-speculation run by construction, because only
// one attempt's output is ever committed (the simfuzz
// speculation.result_identity oracle replays with speculation disabled
// and compares digests).
#pragma once

#include <algorithm>
#include <string>

#include "mapred/types.h"
#include "sim/sync.h"

namespace hmr::mapred {

enum class TaskKind { kMap, kReduce };
enum class AttemptState { kRunning, kSucceeded, kKilled, kFailed };

struct TaskAttempt {
  explicit TaskAttempt(sim::Engine& engine) : wake(engine) {}
  TaskAttempt(const TaskAttempt&) = delete;
  TaskAttempt& operator=(const TaskAttempt&) = delete;

  int attempt_id = 0;  // job-wide, assignment order
  TaskKind kind = TaskKind::kMap;
  int task_id = -1;  // map_id or reduce_id
  int host_id = -1;
  bool speculative = false;  // backup launched by try_claim_backup
  bool rerun = false;        // ensure_fetchable recovery re-execution
  AttemptState state = AttemptState::kRunning;
  double started_at = 0.0;
  double progress = 0.0;     // [0, 1], monotone per attempt
  double progress_at = 0.0;  // sim time of the last report
  bool kill_requested = false;
  // Set on the kill request and again on the terminal transition (and
  // never reset), so a watcher parked on it always wakes: engines use
  // this to unblock fetch coroutines parked on demand/completion events.
  sim::Event wake;

  bool running() const { return state == AttemptState::kRunning; }

  // "m3/2": task m3, third attempt overall would be attempt_id 2. Built
  // piecewise: GCC 12 -O3 reports a false -Wrestrict on char* + string.
  std::string name() const {
    std::string out = kind == TaskKind::kMap ? "m" : "r";
    return out.append(std::to_string(task_id))
        .append("/")
        .append(std::to_string(attempt_id));
  }
};

// Resolved mapred.speculative.* knobs, one decode per job.
struct SpeculationPolicy {
  bool maps = false;     // mapred.map.tasks.speculative.execution
  bool reduces = false;  // mapred.reduce.tasks.speculative.execution
  // Lifetime budget: backups per kind capped at cap * tasks-of-kind
  // (at least 1 when speculation is on).
  double cap = 0.25;
  // Concurrency budget: live backups per job, charged to the tenant's
  // fair-share by the JobTracker at completion.
  int slots = 2;
  double interval = 0.5;     // idle-slot poll cadence, seconds
  double min_runtime = 3.0;  // attempt age before it can be flagged
  // An attempt is slow when its estimated total duration exceeds
  // slow_factor times the reference duration.
  double slow_factor = 1.5;

  int cap_count(int tasks) const {
    return std::max(1, static_cast<int>(cap * double(tasks)));
  }

  static SpeculationPolicy from_conf(const Conf& conf) {
    SpeculationPolicy p;
    p.maps = conf.get_bool(kSpeculativeExecution, p.maps);
    p.reduces = conf.get_bool(kReduceSpeculativeExecution, p.reduces);
    p.cap = conf.get_double(kSpeculativeCap, p.cap);
    p.slots = int(conf.get_int(kSpeculativeSlots, p.slots));
    p.interval = conf.get_double(kSpeculativeIntervalSec, p.interval);
    p.min_runtime = conf.get_double(kSpeculativeMinRuntimeSec, p.min_runtime);
    p.slow_factor = conf.get_double(kSpeculativeSlowFactor, p.slow_factor);
    HMR_CHECK_MSG(p.cap > 0 && p.cap <= 1.0,
                  "mapred.speculative.cap out of (0, 1]");
    HMR_CHECK_MSG(p.slots >= 1, "mapred.speculative.slots must be >= 1");
    HMR_CHECK_MSG(p.interval > 0, "mapred.speculative.interval.sec must be > 0");
    HMR_CHECK_MSG(p.slow_factor >= 1.0,
                  "mapred.speculative.slow.factor must be >= 1");
    return p;
  }
};

}  // namespace hmr::mapred
