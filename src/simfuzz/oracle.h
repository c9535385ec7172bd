// The fuzzer's oracle battery. A Scenario is run through each shuffle
// engine by a non-aborting twin of workloads::run_experiment (validation
// failures become recorded Violations instead of HMR_CHECK aborts, so
// the fuzz loop can shrink and report), then checked against:
//
//  * per engine (check_engine_run): output.*, shape.*, phase.* sanity,
//    conservation.* laws over the metrics registry, and residue.* (no
//    local files outlive the job).
//  * across engines (check_cross_engine): cross.* — identical input,
//    output digest, record and task counts.
//  * multi-tenant (check_multi_job, concurrent_jobs >= 2): multijob.*
//    starvation, scheduler books, and per-job serial identity.
//  * the replay oracles (replay_oracles()): replay osu-ib with one thing
//    changed and compare.
//      engine.parallel_identity     always: opposite pool width, whole
//                                   JobResult
//      speculation.result_identity  speculative: speculation off, output
//                                   content
//      determinism.job_result       check_determinism: unchanged re-run,
//                                   whole JobResult
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "mapred/types.h"
#include "simfuzz/scenario.h"
#include "workloads/jobs.h"

namespace hmr::simfuzz {

// Everything one engine run exposes to the oracles.
struct EngineRun {
  std::string engine;  // "vanilla" | "osu-ib" | "hadoop-a"
  mapred::JobResult job;
  workloads::DatasetDigest input_digest;
  bool output_present = false;
  workloads::ValidationReport validation;
  // The engine registry AFTER run_job returned (the engine has run dry,
  // so in-flight transfers that straddled the job-end snapshot in
  // job.metrics have finished) — conservation laws hold only here.
  MetricsSnapshot end_metrics;
  // "<host>:<path>" of every LocalFS file left after the job that is not
  // an HDFS block: a finished job must leave no map outputs or shuffle
  // spills behind on the persistent TaskTrackers.
  std::vector<std::string> residue_local_files;
  // Canonical serialization, compared whole by the replay oracles.
  std::string result_json;
};

struct Violation {
  std::string oracle;  // dotted id, e.g. "conservation.net_bytes"
  std::string engine;  // empty for cross-engine oracles
  std::string detail;

  Json to_json() const;
};

struct Verdict {
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  Json to_json() const;
  // "ok" or "3 violations: conservation.net_bytes[osu-ib], ..."
  std::string summary() const;
};

// Canonical JobResult serialization: every timestamp, counter, and the
// metrics snapshot, insertion-ordered. Byte-equal strings <=> equal runs.
std::string job_result_json(const mapred::JobResult& job);

// Builds a fresh Testbed, generates input, runs the job under this
// scenario's fault plan, and collects the oracle inputs. Never aborts on
// wrong *output*; it still HMR_CHECKs on harness bugs (generation
// failure), and scenarios whose faults make completion impossible abort
// in the runtime by design (the generator never emits those).
EngineRun run_engine(const Scenario& scenario, const std::string& engine);

// Appends per-engine violations for one run.
void check_engine_run(const Scenario& scenario, const EngineRun& run,
                      Verdict* verdict);
// Appends cross-engine equivalence violations over all runs.
void check_cross_engine(const std::vector<EngineRun>& runs, Verdict* verdict);
// Multi-tenant oracle (no-op when scenario.concurrent_jobs < 2): runs
// the job list concurrently through a JobTracker and serially on a twin
// testbed, then demands every job completed (starvation-freedom), the
// scheduler's books balance, and each job's output is byte-identical to
// both the input digest and its serial twin.
void check_multi_job(const Scenario& scenario, Verdict* verdict);

// What a replay oracle's twin must reproduce of the reference run.
enum class ReplayMatch {
  kResultJson,     // the whole serialized JobResult, byte for byte
  kOutputContent,  // output presence, digest, sort order, record count
};

// One replay oracle: when it `applies`, the twin runs `twin(scenario)`
// and must reproduce `match` of the reference run.
// `describe` gives the violation detail (kResultJson), or the knob the
// twin turns off (kOutputContent: "with <knob> ... without").
struct ReplayOracle {
  const char* id;
  bool (*applies)(const Scenario&);
  Scenario (*twin)(Scenario);
  ReplayMatch match;
  std::string (*describe)(const Scenario&);
};

// The table, in the order check_scenario runs it.
std::span<const ReplayOracle> replay_oracles();

// Appends a violation under `oracle.id` for each compared field in
// which `twin` differs from `ref`.
void compare_replay(const ReplayOracle& oracle, const Scenario& scenario,
                    const EngineRun& ref, const EngineRun& twin,
                    Verdict* verdict);

// The full battery: all three engines, per-engine + cross-engine checks,
// the multi-tenant oracle, and every applicable replay oracle.
Verdict check_scenario(const Scenario& scenario);

}  // namespace hmr::simfuzz
