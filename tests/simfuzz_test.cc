// Tests for the deterministic simulation fuzzer (src/simfuzz): scenario
// generation invariants, JSON round-trips, the greedy shrinker, the
// oracle battery, golden determinism per engine, and the committed
// corpus under tests/fuzz_corpus/.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "mapred/types.h"
#include "oracle_lookup.h"
#include "simfuzz/fuzzer.h"
#include "simfuzz/oracle.h"
#include "simfuzz/scenario.h"
#include "workloads/jobs.h"
#include "workloads/testbed.h"

namespace hmr::simfuzz {
namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;

// A scenario small enough that a full three-engine oracle pass stays
// well under a second.
Scenario small_scenario() {
  Scenario s;
  s.seed = 7;
  s.nodes = 3;
  s.workload = "terasort";
  s.modeled_bytes = 64 * kMiB;
  s.block_bytes = 16 * kMiB;
  s.target_real_bytes = 512 * 1024;
  return s;
}

// Hosts carrying a fault that can starve fetches (kill/drop/stall).
// NIC degradation and disk faults only slow a host or trigger
// per-operation recovery, so they never take a tracker out of rotation.
std::set<int> starving_hosts(const Scenario& s) {
  std::set<int> hosts;
  for (const auto& fault : s.faults) {
    if (fault.kind == FaultSite::Kind::kKillTracker ||
        fault.kind == FaultSite::Kind::kDropResponses ||
        fault.kind == FaultSite::Kind::kStallResponses) {
      hosts.insert(fault.host);
    }
  }
  return hosts;
}

TEST(ScenarioTest, GenerateIsPureFunctionOfSeed) {
  for (std::uint64_t seed : {1, 42, 103, 9999}) {
    EXPECT_EQ(Scenario::generate(seed), Scenario::generate(seed));
  }
  EXPECT_NE(Scenario::generate(1), Scenario::generate(2));
}

TEST(ScenarioTest, GeneratedScenariosKeepCompletableInvariants) {
  for (std::uint64_t seed = 1; seed <= 128; ++seed) {
    const Scenario s = Scenario::generate(seed);
    EXPECT_GE(s.nodes, 1) << s.summary();
    EXPECT_LE(s.num_maps(), 32) << s.summary();
    EXPECT_TRUE(s.workload == "terasort" || s.workload == "sort")
        << s.summary();
    for (const auto& fault : s.faults) {
      EXPECT_GE(fault.host, 1) << s.summary();
      EXPECT_LE(fault.host, s.nodes) << s.summary();
    }
    // Recovery relocates fetches to a healthy tracker; the generator
    // must always leave one.
    EXPECT_LT(int(starving_hosts(s).size()), s.nodes) << s.summary();
    if (s.nodes == 1) {
      EXPECT_TRUE(s.faults.empty()) << s.summary();
    }
  }
}

TEST(ScenarioTest, ForcedDiskFaultsAlwaysPresentAndPure) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const Scenario s = Scenario::generate_with_disk_faults(seed);
    EXPECT_TRUE(s.has_disk_faults()) << s.summary();
    EXPECT_GE(s.nodes, 2) << s.summary();
    EXPECT_EQ(s, Scenario::generate_with_disk_faults(seed));
    // The forced site lands on a host inside the cluster and leaves the
    // rest of the scenario untouched relative to plain generation.
    for (const auto& fault : s.faults) {
      EXPECT_GE(fault.host, 1) << s.summary();
      EXPECT_LE(fault.host, s.nodes) << s.summary();
    }
  }
}

TEST(ScenarioTest, DiskFaultSitesRoundTripAndBuildPlan) {
  Scenario s = small_scenario();
  s.faults.push_back({FaultSite::Kind::kDiskIoErrors, 1, 0.0, 0.1, 0.0, 1.0});
  s.faults.push_back({FaultSite::Kind::kDiskCorrupt, 2, 0.0, 0.05, 0.0, 1.0});
  s.faults.push_back({FaultSite::Kind::kDiskFull, 1, 5.0, 0.0, 4.0, 1.0});
  s.faults.push_back({FaultSite::Kind::kDiskSlow, 2, 3.0, 0.0, 0.0, 0.5});
  EXPECT_TRUE(s.has_disk_faults());
  EXPECT_FALSE(s.has_shuffle_faults());

  auto back = Scenario::from_json(s.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, s);

  const sim::FaultPlan plan = s.build_fault_plan();
  ASSERT_EQ(plan.disk_faults().size(), 2u);
  const auto& h1 = plan.disk_faults().at(1);
  EXPECT_DOUBLE_EQ(h1.io_error_prob, 0.1);
  EXPECT_DOUBLE_EQ(h1.full_at, 5.0);
  EXPECT_DOUBLE_EQ(h1.full_duration, 4.0);
  const auto& h2 = plan.disk_faults().at(2);
  EXPECT_DOUBLE_EQ(h2.read_corrupt_prob, 0.05);
  EXPECT_DOUBLE_EQ(h2.write_corrupt_prob, 0.05);
  EXPECT_DOUBLE_EQ(h2.slow_at, 3.0);
  EXPECT_DOUBLE_EQ(h2.slow_factor, 0.5);
}

TEST(ScenarioTest, JsonRoundTripsExactly) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const Scenario s = Scenario::generate(seed);
    auto back = Scenario::from_json(s.to_json());
    ASSERT_TRUE(back.ok()) << s.summary();
    EXPECT_EQ(*back, s) << s.summary();
  }
}

TEST(ScenarioTest, FromJsonRejectsInvalidScenarios) {
  auto mutate = [](const char* key, Json value) {
    Json j = small_scenario().to_json();
    j.set(key, std::move(value));
    return Scenario::from_json(j);
  };
  EXPECT_FALSE(mutate("nodes", Json(std::int64_t(0))).ok());
  EXPECT_FALSE(mutate("disks", Json(std::int64_t(3))).ok());
  EXPECT_FALSE(mutate("workload", Json("wordcount")).ok());
  EXPECT_FALSE(mutate("vanilla_profile", Json("myrinet")).ok());
  EXPECT_FALSE(mutate("block_bytes", Json(std::int64_t(0))).ok());

  Json bad_fault = Json::object();
  bad_fault.set("kind", Json("set_on_fire"));
  Json sites = Json::array();
  sites.push_back(std::move(bad_fault));
  EXPECT_FALSE(mutate("faults", std::move(sites)).ok());

  Json out_of_range = Json::object();
  out_of_range.set("kind", Json("kill_tracker"));
  out_of_range.set("host", Json(std::int64_t(99)));
  Json sites2 = Json::array();
  sites2.push_back(std::move(out_of_range));
  EXPECT_FALSE(mutate("faults", std::move(sites2)).ok());
}

TEST(ScenarioTest, ShrinkCandidatesAreSimplerAndStayValid) {
  // Pick a generated scenario with faults and engine knobs so most
  // shrink dimensions are exercised.
  Scenario complex;
  for (std::uint64_t seed = 1;; ++seed) {
    ASSERT_LT(seed, 10000u) << "no faulted scenario in seed range";
    complex = Scenario::generate(seed);
    if (!complex.faults.empty() && complex.nodes > 2) break;
  }
  const auto candidates = complex.shrink_candidates();
  EXPECT_FALSE(candidates.empty());
  for (const Scenario& candidate : candidates) {
    EXPECT_NE(candidate, complex);
    // Every candidate survives a JSON round-trip, so a shrunk repro
    // record is always replayable.
    auto back = Scenario::from_json(candidate.to_json());
    ASSERT_TRUE(back.ok()) << candidate.summary();
    EXPECT_EQ(*back, candidate);
    EXPECT_LT(int(starving_hosts(candidate).size()), candidate.nodes)
        << candidate.summary();
  }
}

TEST(OracleTest, HealthyScenarioPassesAllOracles) {
  const Verdict verdict = check_scenario(small_scenario());
  EXPECT_TRUE(verdict.ok()) << verdict.summary();
}

// Satellite regression: the same seed must reproduce a byte-identical
// serialized JobResult on every engine — any divergence is unkeyed
// randomness or iteration-order nondeterminism in the simulation.
TEST(OracleTest, GoldenDeterminismPerEngine) {
  const Scenario s = small_scenario();
  for (const char* engine : {"vanilla", "osu-ib", "hadoop-a"}) {
    const EngineRun first = run_engine(s, engine);
    const EngineRun second = run_engine(s, engine);
    ASSERT_FALSE(first.result_json.empty()) << engine;
    EXPECT_EQ(first.result_json, second.result_json) << engine;
  }
}

// A 256-node osu-ib terasort completes in CI-budget wall time with
// validated output, and its engine.parallel_identity twin at workers=2
// reproduces the whole serialized JobResult byte for byte at that scale.
TEST(OracleTest, Terasort256NodesByteIdenticalParallelTwin) {
  constexpr double kScale = 8192.0;  // ~512 KiB real bytes carried
  const auto run_with = [&](int workers) {
    workloads::TestbedSpec spec;
    spec.nodes = 256;
    spec.hdfs.block_size = 32 * kMiB;
    spec.parallel_workers = workers;
    workloads::Testbed bed(spec);

    workloads::DataGenSpec gen;
    gen.dir = "/in";
    gen.modeled_total = 4096 * kMiB;  // 128 map tasks at 32 MiB blocks
    gen.part_modeled = 32 * kMiB;
    gen.scale = kScale;
    gen.seed = 9;
    EXPECT_TRUE(bed.generate("teragen", gen).ok());

    Conf conf;
    conf.set(mapred::kShuffleEngine, "osu-ib");
    conf.set_int(mapred::kNumReduces, 256);  // one reducer per node
    conf.set_double(mapred::kKvInflation, kScale);
    conf.set_bytes(mapred::kMaxRecordBytes,
                   std::uint64_t(102.0 * kScale));
    const auto result =
        bed.run_job(workloads::terasort_job(bed.dfs(), "/in", "/out", conf));
    EXPECT_EQ(result.num_maps, 128);
    EXPECT_EQ(result.num_reduces, 256);
    const auto report = workloads::validate_output(bed.dfs(), "/out");
    EXPECT_TRUE(report.ok());
    if (report.ok()) {
      EXPECT_TRUE(report->per_part_sorted);
      EXPECT_TRUE(report->globally_sorted);
    }
    return job_result_json(result);
  };
  const ReplayOracle& oracle = replay_oracle("engine.parallel_identity");
  Scenario serial;
  serial.parallel_workers = 1;
  ASSERT_EQ(oracle.twin(serial).parallel_workers, 2);
  EngineRun ref;
  ref.engine = "osu-ib";
  ref.result_json = run_with(serial.parallel_workers);
  ASSERT_FALSE(ref.result_json.empty());
  EngineRun twin = ref;
  twin.result_json = run_with(oracle.twin(serial).parallel_workers);
  Verdict verdict;
  compare_replay(oracle, serial, ref, twin, &verdict);
  EXPECT_TRUE(verdict.ok()) << verdict.summary();
}

TEST(OracleTest, StallFaultTeardownRaceStaysFixed) {
  // Fuzz seed 103: a fault-stalled responder whose RTS raced the
  // copier's connection teardown deadlocked hadoop-a in the UCR close
  // handshake (the FIN landed in a dead recv loop). Keep the exact
  // generated scenario as a regression.
  const Scenario s = Scenario::generate(103);
  ASSERT_FALSE(s.faults.empty());
  const Verdict verdict = check_scenario(s);
  EXPECT_TRUE(verdict.ok()) << verdict.summary();
}

TEST(FuzzerTest, PassingSeedLeavesNoRecord) {
  const auto dir =
      std::filesystem::temp_directory_path() / "hmr_simfuzz_pass";
  std::filesystem::remove_all(dir);
  FuzzOptions options;
  options.out_dir = dir.string();
  const FuzzReport report = check_and_report(small_scenario(), options);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.record_path.empty());
  EXPECT_FALSE(std::filesystem::exists(dir / "FUZZ_7.json"));
  std::filesystem::remove_all(dir);
}

TEST(FuzzerTest, ReproRecordRoundTripsThroughLoader) {
  const auto dir =
      std::filesystem::temp_directory_path() / "hmr_simfuzz_records";
  std::filesystem::create_directories(dir);

  FuzzReport report;
  report.scenario = Scenario::generate(9);
  report.shrunk = report.scenario;
  const auto record_file = dir / "FUZZ_9.json";
  {
    std::ofstream out(record_file);
    out << repro_record(report, "failed").dump() << "\n";
  }
  auto loaded = load_scenario_file(record_file.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, report.scenario);

  // A record with a shrunk scenario replays the shrunk form.
  report.shrunk = report.scenario;
  report.shrunk.faults.clear();
  report.shrunk.check_determinism = false;
  {
    std::ofstream out(record_file);
    out << repro_record(report, "failed").dump() << "\n";
  }
  loaded = load_scenario_file(record_file.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, report.shrunk);

  // Bare scenario JSON (no record wrapper) loads too.
  const auto bare_file = dir / "bare.json";
  {
    std::ofstream out(bare_file);
    out << Scenario::generate(11).to_json().dump() << "\n";
  }
  loaded = load_scenario_file(bare_file.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, Scenario::generate(11));

  EXPECT_FALSE(load_scenario_file((dir / "missing.json").string()).ok());
  std::filesystem::remove_all(dir);
}

// The committed corpus pins down scenario classes the generator only
// rarely emits; each file must load and pass the full oracle battery.
// ISSUE 10 acceptance: with speculation enabled under cpu.degrade and
// task.hang chaos, job output is byte-identical to the
// speculation-disabled replay, across all three engines and parallel
// workers {1, 4}. The oracle itself runs the spec-off twin.
TEST(OracleTest, SpeculationIdentityUnderComputeChaos) {
  Scenario s = small_scenario();
  s.nodes = 4;
  s.speculative = true;
  s.faults.push_back({FaultSite::Kind::kCpuDegrade, /*host=*/2,
                      /*at=*/1.0, /*prob=*/0.0, /*seconds=*/0.0,
                      /*factor=*/0.25});
  s.faults.push_back({FaultSite::Kind::kTaskHang, /*host=*/3,
                      /*at=*/2.0, /*prob=*/0.0, /*seconds=*/4.0,
                      /*factor=*/1.0});
  for (int workers : {1, 4}) {
    s.parallel_workers = workers;
    for (const char* engine : {"vanilla", "osu-ib", "hadoop-a"}) {
      const EngineRun run = run_engine(s, engine);
      ASSERT_FALSE(run.result_json.empty()) << engine;
      const ReplayOracle& oracle =
          replay_oracle("speculation.result_identity");
      ASSERT_TRUE(oracle.applies(s));
      const EngineRun off = run_engine(oracle.twin(s), engine);
      EXPECT_EQ(off.job.speculative_attempts, 0u) << engine;
      Verdict verdict;
      compare_replay(oracle, s, run, off, &verdict);
      EXPECT_TRUE(verdict.ok())
          << engine << " workers=" << workers << ": " << verdict.summary();
    }
  }
}

// The replay-oracle table: each comparator checks exactly the fields its
// row names, and files every divergence under its own oracle id.
TEST(OracleTableTest, EachComparatorFlagsOnlyItsOwnOracle) {
  Scenario s = small_scenario();
  s.speculative = true;
  s.check_determinism = true;
  const EngineRun ref = run_engine(s, "osu-ib");
  ASSERT_TRUE(ref.output_present);
  std::set<std::string> ids;
  for (const ReplayOracle& oracle : replay_oracles()) {
    ids.insert(oracle.id);
    EXPECT_TRUE(oracle.applies(s)) << oracle.id;

    Verdict same;
    compare_replay(oracle, s, ref, ref, &same);
    EXPECT_TRUE(same.ok()) << oracle.id << ": " << same.summary();

    EngineRun twin = ref;
    if (oracle.match == ReplayMatch::kResultJson) {
      twin.result_json += " ";
    } else {
      twin.validation.digest.checksum ^= 1;
    }
    Verdict verdict;
    compare_replay(oracle, s, ref, twin, &verdict);
    ASSERT_FALSE(verdict.ok()) << oracle.id;
    for (const Violation& violation : verdict.violations) {
      EXPECT_EQ(violation.oracle, oracle.id);
      EXPECT_EQ(violation.engine, "osu-ib");
      EXPECT_FALSE(violation.detail.empty());
    }
  }
  EXPECT_EQ(ids, (std::set<std::string>{"engine.parallel_identity",
                                         "speculation.result_identity",
                                         "determinism.job_result"}));
  EXPECT_THROW(replay_oracle("queue.result_identity"), std::out_of_range);
}

// Output-content rows ignore timings and counters but catch every
// output field: presence, digest, sort order and record count.
TEST(OracleTableTest, OutputContentComparatorCoversEveryOutputField) {
  const Scenario s = small_scenario();
  const ReplayOracle& oracle = replay_oracle("speculation.result_identity");
  ASSERT_EQ(oracle.match, ReplayMatch::kOutputContent);
  EngineRun ref;
  ref.engine = "osu-ib";
  ref.output_present = true;
  ref.validation.digest.records = 10;
  ref.validation.digest.checksum = 0xabc;
  ref.validation.per_part_sorted = true;
  ref.validation.globally_sorted = true;
  ref.job.output_records = 10;
  ref.result_json = "{}";

  const auto violations = [&](const EngineRun& twin) {
    Verdict verdict;
    compare_replay(oracle, s, ref, twin, &verdict);
    return verdict.violations;
  };
  EngineRun timing = ref;
  timing.result_json = "{\"finish_time\":2}";
  EXPECT_TRUE(violations(timing).empty());

  EngineRun missing = ref;
  missing.output_present = false;
  ASSERT_EQ(violations(missing).size(), 1u);
  EXPECT_EQ(violations(missing)[0].detail,
            "output present with speculation, missing without");

  EngineRun unsorted = ref;
  unsorted.validation.globally_sorted = false;
  ASSERT_EQ(violations(unsorted).size(), 1u);
  EXPECT_EQ(violations(unsorted)[0].detail,
            "sort-order validation diverged between speculation on and off");

  EngineRun short_output = ref;
  short_output.job.output_records = 9;
  ASSERT_EQ(violations(short_output).size(), 1u);
  EXPECT_EQ(violations(short_output)[0].detail,
            "JobResult output_records 10 with speculation vs 9 without");
}

TEST(CorpusTest, CommittedScenariosPassAllOracles) {
  const std::filesystem::path corpus(HMR_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(corpus)) << corpus;
  int checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.path().extension() != ".json") continue;
    auto scenario = load_scenario_file(entry.path().string());
    ASSERT_TRUE(scenario.ok()) << entry.path();
    const Verdict verdict = check_scenario(*scenario);
    EXPECT_TRUE(verdict.ok())
        << entry.path() << ": " << verdict.summary();
    ++checked;
  }
  EXPECT_GE(checked, 3);
}

}  // namespace
}  // namespace hmr::simfuzz
