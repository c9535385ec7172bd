// Tests for conservative parallel event execution (sim/parallel.h,
// DESIGN.md §6.4): host-partition batching, staging-buffer drain order,
// exception propagation, the WorkerPool itself, and the serial-vs-
// parallel byte-identity contract — a worker-pool width sweep over
// simfuzz scenarios plus the 256-node terasort, asserting that
// workers > 1 reproduces the serial engine's serialized JobResult byte
// for byte. This suite is also the TSan CI tier's main workload: every
// width > 1 runs real threads.

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/conf.h"
#include "mapred/types.h"
#include "oracle_lookup.h"
#include "sim/engine.h"
#include "sim/parallel.h"
#include "simfuzz/oracle.h"
#include "simfuzz/scenario.h"
#include "workloads/jobs.h"
#include "workloads/testbed.h"

namespace hmr::sim {
namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;
constexpr int kWidths[] = {1, 2, 4, 8};

// --- host-partition batching ------------------------------------------

// Twelve same-timestamp work events on four hosts must form ONE batch of
// four chains at every width, and works sharing a host must execute in
// seq (spawn) order even when other chains run concurrently.
TEST(BatchPartitionTest, SameTimestampWorksGroupIntoHostChains) {
  for (int workers : kWidths) {
    Engine engine(1);
    engine.set_parallel_workers(workers);
    std::vector<std::vector<int>> per_host(4);
    for (int i = 0; i < 12; ++i) {
      engine.spawn([](Engine& e, int host, int i,
                      std::vector<int>* order) -> Task<> {
        co_await e.parallel(host, [order, i](ParallelEffects&) {
          // Chain-confined: only this host's chain touches *order, and a
          // chain runs on exactly one worker.
          order->push_back(i);
        });
      }(engine, i / 3, i, &per_host[std::size_t(i / 3)]));
    }
    engine.run();
    for (int h = 0; h < 4; ++h) {
      EXPECT_EQ(per_host[std::size_t(h)],
                (std::vector<int>{3 * h, 3 * h + 1, 3 * h + 2}))
          << "workers=" << workers << " host=" << h;
    }
    const auto& m = engine.metrics();
    EXPECT_EQ(m.counter_value("engine.parallel.batches"), 1)
        << "workers=" << workers;
    EXPECT_EQ(m.counter_value("engine.parallel.batch_events"), 12);
    EXPECT_EQ(m.counter_value("engine.parallel.chains"), 4);
  }
}

// Work events at different timestamps must land in different batches —
// batching never reaches across simulated time.
TEST(BatchPartitionTest, DistinctTimestampsFormDistinctBatches) {
  Engine engine(1);
  engine.set_parallel_workers(4);
  for (int i = 0; i < 3; ++i) {
    engine.spawn([](Engine& e, int i) -> Task<> {
      co_await e.delay(0.001 * i);
      co_await e.parallel(i, [](ParallelEffects&) {});
    }(engine, i));
  }
  engine.run();
  EXPECT_EQ(engine.metrics().counter_value("engine.parallel.batches"), 3);
  EXPECT_EQ(engine.metrics().counter_value("engine.parallel.chains"), 3);
}

// --- staging-buffer drain order ---------------------------------------

// Deferred callbacks and counter deltas staged by concurrent chains must
// drain in (timestamp, seq) order on the engine thread, regardless of
// which worker finished first.
TEST(StagingDrainTest, EffectsDrainInSeqOrderAcrossChains) {
  for (int workers : kWidths) {
    Engine engine(1);
    engine.set_parallel_workers(workers);
    Counter& staged = engine.metrics().counter("test.staged");
    std::vector<int> order;  // engine-thread only: appended during drains
    for (int i = 0; i < 8; ++i) {
      engine.spawn([](Engine& e, int i, Counter* staged,
                      std::vector<int>* order) -> Task<> {
        co_await e.parallel(i % 4, [=](ParallelEffects& fx) {
          fx.add(*staged, i + 1);
          fx.defer([order, i] { order->push_back(i); });
        });
      }(engine, i, &staged, &order));
    }
    engine.run();
    std::vector<int> want(8);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(order, want) << "workers=" << workers;
    EXPECT_EQ(staged.value(), 36) << "workers=" << workers;
  }
}

// A deferred callback runs before its own continuation resumes.
TEST(StagingDrainTest, DeferRunsBeforeContinuation) {
  for (int workers : {1, 4}) {
    Engine engine(1);
    engine.set_parallel_workers(workers);
    bool deferred_ran = false;
    bool resumed_after_defer = false;
    engine.spawn([](Engine& e, bool* deferred_ran,
                    bool* resumed_after_defer) -> Task<> {
      co_await e.parallel(0, [deferred_ran](ParallelEffects& fx) {
        fx.defer([deferred_ran] { *deferred_ran = true; });
      });
      *resumed_after_defer = *deferred_ran;
    }(engine, &deferred_ran, &resumed_after_defer));
    engine.run();
    EXPECT_TRUE(deferred_ran) << "workers=" << workers;
    EXPECT_TRUE(resumed_after_defer) << "workers=" << workers;
  }
}

// --- error propagation ------------------------------------------------

// A throwing fn fails only the awaiting task, on the engine thread, even
// when the batch genuinely ran on the pool alongside a healthy chain.
TEST(ParallelEngineTest, ExceptionResurfacesInAwaitingTask) {
  for (int workers : {1, 2}) {
    Engine engine(1);
    engine.set_parallel_workers(workers);
    bool caught = false;
    bool healthy_ran = false;
    engine.spawn([](Engine& e, bool* caught) -> Task<> {
      try {
        co_await e.parallel(0, [](ParallelEffects&) {
          throw std::runtime_error("boom");
        });
      } catch (const std::runtime_error&) {
        *caught = true;
      }
    }(engine, &caught));
    engine.spawn([](Engine& e, bool* healthy_ran) -> Task<> {
      co_await e.parallel(1, [](ParallelEffects&) {});
      *healthy_ran = true;
    }(engine, &healthy_ran));
    engine.run();
    EXPECT_TRUE(caught) << "workers=" << workers;
    EXPECT_TRUE(healthy_ran) << "workers=" << workers;
    EXPECT_EQ(engine.live_processes(), 0) << "workers=" << workers;
  }
}

// --- WorkerPool -------------------------------------------------------

// The pool runs every chain exactly once, preserves in-chain order, and
// survives reuse across batches (generations).
TEST(WorkerPoolTest, RunsEveryChainInOrderAndReuses) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.workers(), 4);
  for (int batch = 0; batch < 3; ++batch) {
    constexpr int kChains = 5;
    std::vector<std::vector<ParallelWork>> works(kChains);
    std::vector<std::vector<int>> executed(kChains);
    std::vector<std::vector<ParallelWork*>> chains(kChains);
    for (int c = 0; c < kChains; ++c) {
      const int len = c + 1;  // uneven chains exercise work stealing
      works[std::size_t(c)].resize(std::size_t(len));
      for (int i = 0; i < len; ++i) {
        ParallelWork& w = works[std::size_t(c)][std::size_t(i)];
        std::vector<int>* log = &executed[std::size_t(c)];
        w.fn = [log, i](ParallelEffects&) { log->push_back(i); };
        chains[std::size_t(c)].push_back(&w);
      }
    }
    pool.run(chains);
    for (int c = 0; c < kChains; ++c) {
      std::vector<int> want(std::size_t(c + 1));
      std::iota(want.begin(), want.end(), 0);
      EXPECT_EQ(executed[std::size_t(c)], want)
          << "batch=" << batch << " chain=" << c;
    }
  }
}

// More chains than workers: all still complete (excess chains queue).
TEST(WorkerPoolTest, MoreChainsThanWorkers) {
  WorkerPool pool(2);
  constexpr int kChains = 16;
  std::vector<ParallelWork> works(kChains);
  std::vector<int> done(kChains, 0);
  std::vector<std::vector<ParallelWork*>> chains(kChains);
  for (int c = 0; c < kChains; ++c) {
    int* slot = &done[std::size_t(c)];
    works[std::size_t(c)].fn = [slot](ParallelEffects&) { *slot = 1; };
    chains[std::size_t(c)].push_back(&works[std::size_t(c)]);
  }
  pool.run(chains);
  EXPECT_EQ(std::accumulate(done.begin(), done.end(), 0), kChains);
}

// --- serial-vs-parallel identity at the engine level ------------------

// A mixed workload (delays, staged counters, deferred callbacks, plain
// metrics between awaits) must leave identical time, event counts, and
// metric snapshots at every width.
TEST(ParallelEngineTest, MixedWorkloadIdenticalAcrossWidths) {
  const auto run_once = [](int workers) {
    Engine engine(7);
    engine.set_parallel_workers(workers);
    Counter& compute = engine.metrics().counter("test.compute");
    for (int i = 0; i < 8; ++i) {
      engine.spawn([](Engine& e, int i, Counter* compute) -> Task<> {
        for (int round = 0; round < 5; ++round) {
          co_await e.parallel(i % 3, [=](ParallelEffects& fx) {
            fx.add(*compute, i + round);
          });
          e.metrics().counter("test.rounds").add(1);
          co_await e.delay(0.001 * double((i * 7 + round) % 5 + 1));
        }
      }(engine, i, &compute));
    }
    const Time end = engine.run();
    return std::tuple(end, engine.events_dispatched(),
                      engine.metrics().snapshot().to_json());
  };
  const auto ref = run_once(1);
  for (int workers : {2, 4, 8}) {
    EXPECT_EQ(run_once(workers), ref) << "workers=" << workers;
  }
}

// The max-events safety valve counts batched work events one by one, so
// it trips at the same point — same dispatch count, same simulated time
// — at every width.
TEST(ParallelEngineTest, MaxEventsValveTripsIdenticallyAcrossWidths) {
  const auto run_once = [](int workers) {
    Engine engine(1);
    engine.set_parallel_workers(workers);
    engine.set_max_events(64);
    for (int i = 0; i < 8; ++i) {
      engine.spawn([](Engine& e, int i) -> Task<> {
        for (int round = 0; round < 100; ++round) {
          co_await e.parallel(i, [](ParallelEffects&) {});
          co_await e.delay(0.001);
        }
      }(engine, i));
    }
    engine.run();
    return std::tuple(engine.overrun(), engine.events_dispatched(),
                      engine.now());
  };
  const auto ref = run_once(1);
  EXPECT_TRUE(std::get<0>(ref));
  for (int workers : {2, 4}) {
    EXPECT_EQ(run_once(workers), ref) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace hmr::sim

namespace hmr::simfuzz {
namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;

// Bound a generated scenario's data volume so the 16-seed × 4-width
// sweep stays inside the CI budget; shape, knobs, and fault plan are
// untouched (smaller data is strictly easier to complete).
Scenario capped(std::uint64_t seed) {
  Scenario s = Scenario::generate(seed);
  if (s.modeled_bytes > 96 * kMiB) s.modeled_bytes = 96 * kMiB;
  if (s.target_real_bytes > 512 * 1024) s.target_real_bytes = 512 * 1024;
  return s;
}

// ISSUE 8 success metric, fuzz half: sixteen generated scenarios —
// faults, concurrent knobs, every workload — replayed at workers
// {2, 4, 8} must serialize byte-identically to the workers=1 run.
// Each width's run is the reference and the serial run its
// engine.parallel_identity twin.
TEST(ParallelStressTest, SimfuzzSeedsByteIdenticalAcrossWidths) {
  const ReplayOracle& oracle = replay_oracle("engine.parallel_identity");
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Scenario s = capped(seed);
    s.parallel_workers = 1;
    const EngineRun serial = run_engine(s, "osu-ib");
    ASSERT_FALSE(serial.result_json.empty()) << s.summary();
    for (int workers : {2, 4, 8}) {
      s.parallel_workers = workers;
      ASSERT_EQ(oracle.twin(s).parallel_workers, 1);
      const EngineRun parallel = run_engine(s, "osu-ib");
      Verdict verdict;
      compare_replay(oracle, s, parallel, serial, &verdict);
      EXPECT_TRUE(verdict.ok())
          << s.summary() << " workers=" << workers << ": "
          << verdict.summary();
    }
  }
}

// ISSUE 8 success metric, scale half: the 256-node terasort (the ISSUE 7
// benchmark scenario) is byte-identical between the serial engine and
// real worker pools of 2, 4, and 8 threads.
TEST(ParallelStressTest, Terasort256NodesByteIdenticalAcrossWidths) {
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
    conf.set_bytes(mapred::kMaxRecordBytes, std::uint64_t(102.0 * kScale));
    const auto result =
        bed.run_job(workloads::terasort_job(bed.dfs(), "/in", "/out", conf));
    EXPECT_EQ(result.num_maps, 128);
    EXPECT_EQ(result.num_reduces, 256);
    if (workers == 1) {
      const auto report = workloads::validate_output(bed.dfs(), "/out");
      EXPECT_TRUE(report.ok());
      if (report.ok()) {
        EXPECT_TRUE(report->per_part_sorted);
        EXPECT_TRUE(report->globally_sorted);
      }
    }
    return job_result_json(result);
  };
  const std::string serial = run_with(1);
  ASSERT_FALSE(serial.empty());
  for (int workers : {2, 4, 8}) {
    EXPECT_EQ(run_with(workers), serial) << "workers=" << workers;
  }
}

// The vanilla engine's parallelized kernels — the servlet/copier
// checksum scans and the in-memory + merge-pass k-way merge drains —
// serialize byte-identically across worker widths on the 256-node
// terasort. A small shuffle buffer and io.sort.factor force both merge
// kernels to run; integrity checks exercise the CRC scans end to end.
TEST(ParallelStressTest, Terasort256VanillaKernelsByteIdenticalAcrossWidths) {
  constexpr double kScale = 8192.0;
  const auto run_with = [&](int workers) {
    workloads::TestbedSpec spec;
    spec.nodes = 256;
    spec.hdfs.block_size = 32 * kMiB;
    spec.parallel_workers = workers;
    workloads::Testbed bed(spec);

    workloads::DataGenSpec gen;
    gen.dir = "/in";
    gen.modeled_total = 2048 * kMiB;  // 64 map tasks at 32 MiB blocks
    gen.part_modeled = 32 * kMiB;
    gen.scale = kScale;
    gen.seed = 11;
    EXPECT_TRUE(bed.generate("teragen", gen).ok());

    Conf conf;
    conf.set(mapred::kShuffleEngine, "vanilla");
    conf.set_int(mapred::kNumReduces, 64);
    conf.set_double(mapred::kKvInflation, kScale);
    conf.set_bytes(mapred::kMaxRecordBytes, std::uint64_t(102.0 * kScale));
    conf.set_bool(mapred::kIntegrityEnabled, true);
    conf.set_bytes(mapred::kShuffleBufferBytes, 4 * kMiB);
    conf.set_int(mapred::kIoSortFactor, 3);
    const auto result =
        bed.run_job(workloads::terasort_job(bed.dfs(), "/in", "/out", conf));
    EXPECT_EQ(result.num_maps, 64);
    EXPECT_EQ(result.num_reduces, 64);
    return job_result_json(result);
  };
  const std::string serial = run_with(1);
  ASSERT_FALSE(serial.empty());
  for (int workers : {2, 4, 8}) {
    EXPECT_EQ(run_with(workers), serial) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace hmr::simfuzz
