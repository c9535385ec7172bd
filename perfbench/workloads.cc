#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include "common/units.h"
#include "mapred/jobtracker.h"
#include "mapred/types.h"
#include "sim/trace.h"
#include "workloads/jobs.h"
#include "workloads/multitenant.h"
#include "workloads/testbed.h"

namespace perfbench {
namespace {

using hmr::Conf;
using hmr::kGiB;
using hmr::kMiB;
using hmr::mapred::JobResult;
using hmr::mapred::SchedulerConfig;
using hmr::mapred::SubmittedJob;
using hmr::workloads::DatasetDigest;
using hmr::workloads::Testbed;

// Runaway valve: far above any workload's event count, so only a
// simulation that never drains trips it (counted as failed jobs).
constexpr std::uint64_t kMaxEvents = 2'000'000'000ull;
// Per-engine Perfetto event cap in traced runs; keeps the written trace
// around 30 MB.
constexpr std::uint64_t kTraceMaxEvents = 250'000;
// Fig 4(a): OSU-IB beats IPoIB by 35% on a 30 GB TeraSort, 4 DataNodes.
constexpr double kPaperGainPct = 35.0;

struct TerasortSpec {
  int nodes = 4;
  int workers = 1;               // sim.parallel.workers
  std::uint64_t block = 256 * kMiB;
  std::uint64_t modeled = 0;     // sort size
  std::uint64_t real = 0;        // real payload carried
};

struct ChurnSpec {
  TerasortSpec job;
  int jobs = 0;
  double jobs_per_min = 0;  // Poisson arrival rate, below saturation
  // Input datasets the jobs cycle through. With one dataset every job
  // would sort the same keys, and the seed's key skew would shift every
  // job time alike; several datasets average it out.
  int datasets = 0;
};

TerasortSpec wide_spec(Size size) {
  if (size == Size::kSmall) return {16, 2, 256 * kMiB, 4 * kGiB, 2 * kMiB};
  return {128, 2, 256 * kMiB, 32 * kGiB, 16 * kMiB};
}

// IPoIB instances behind terasort-wide's job_sim_s.ipoib.
constexpr int kWideIpoibInstances = 3;

TerasortSpec deep_spec(Size size) {
  if (size == Size::kSmall) return {4, 1, 256 * kMiB, 2 * kGiB, 4 * kMiB};
  return {4, 1, 256 * kMiB, 30 * kGiB, 128 * kMiB};
}

ChurnSpec churn_spec(Size size) {
  const TerasortSpec job{8, 1, 16 * kMiB, 128 * kMiB, 2 * kMiB};
  if (size == Size::kSmall) return {job, 24, 4.0, 4};
  return {job, 200, 4.0, 8};
}

double real_scale(const TerasortSpec& spec) {
  return std::max(1.0, double(spec.modeled) / double(spec.real));
}

double current_rss_kb() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return double(resident) * double(sysconf(_SC_PAGESIZE)) / 1024.0;
}

std::string input_dir(int dataset) { return "/in" + std::to_string(dataset); }

// Seed of dataset or instance k of a run seeded `seed`; k = 0 keeps it.
std::uint64_t derived_seed(std::uint64_t seed, int k) {
  return seed + std::uint64_t(k) * 1'000'003ull;
}

// One testbed with its generated input datasets (/in0, /in1, ...). The
// tracer is declared after the testbed so it detaches before the engine
// goes away.
struct Bed {
  std::unique_ptr<Testbed> testbed;
  std::unique_ptr<hmr::sim::Tracer> tracer;
  std::vector<DatasetDigest> inputs;
  bool inputs_ok = true;
  double scale = 1.0;

  hmr::sim::Engine& engine() { return testbed->engine(); }
};

Bed make_bed(const TerasortSpec& spec, bool osu, const RunContext& ctx,
             Outcome& out, int datasets = 1,
             const SchedulerConfig* sched = nullptr) {
  const auto start = Clock::now();
  Bed bed;
  {
    SpanLog::Scope span(*ctx.spans, "workloads.testbed");
    hmr::workloads::TestbedSpec tb;
    tb.nodes = spec.nodes;
    tb.profile = osu ? hmr::net::NetProfile::verbs_qdr()
                     : hmr::net::NetProfile::ipoib_qdr();
    tb.hdfs.block_size = spec.block;
    tb.seed = ctx.seed;
    tb.parallel_workers = spec.workers;
    bed.testbed = std::make_unique<Testbed>(tb);
    bed.engine().set_max_events(kMaxEvents);
    if (sched != nullptr) bed.testbed->set_scheduler(*sched);
  }
  bed.scale = real_scale(spec);
  for (int d = 0; d < datasets; ++d) {
    SpanLog::Scope span(*ctx.spans, "hdfs.generate");
    hmr::workloads::DataGenSpec gen;
    gen.dir = input_dir(d);
    gen.modeled_total = spec.modeled;
    gen.part_modeled = spec.block;
    gen.scale = bed.scale;
    gen.seed = derived_seed(ctx.seed, d);
    auto digest = bed.testbed->generate("teragen", gen);
    bed.inputs_ok = bed.inputs_ok && digest.ok();
    bed.inputs.push_back(digest.ok() ? *digest : DatasetDigest{});
  }
  out.setup_s += seconds_since(start);
  if (ctx.trace_engine) {
    bed.tracer =
        std::make_unique<hmr::sim::Tracer>(bed.engine(), kTraceMaxEvents);
    bed.engine().set_tracer(bed.tracer.get());
  }
  return bed;
}

Conf terasort_conf(bool osu, double scale) {
  Conf conf;
  conf.set(hmr::mapred::kShuffleEngine, osu ? "osu-ib" : "vanilla");
  conf.set_double(hmr::mapred::kKvInflation, scale);
  conf.set_bytes(hmr::mapred::kMaxRecordBytes,
                 std::uint64_t(102.0 * scale));
  return conf;
}

bool engine_clean(hmr::sim::Engine& engine) {
  return !engine.overrun() && engine.live_processes() == 0;
}

struct JobRun {
  JobResult result;
  bool completed = false;
};

// Testbed::run_job aborts on a stuck job; the benchmark counts it.
JobRun run_one(Testbed& bed, hmr::mapred::JobSpec job) {
  auto out = std::make_shared<JobRun>();
  bed.engine().spawn([](Testbed& bed, hmr::mapred::JobSpec job,
                        std::shared_ptr<JobRun> out) -> hmr::sim::Task<> {
    out->result = co_await bed.runner().run(std::move(job));
    out->completed = true;
  }(bed, std::move(job), out));
  bed.engine().run();
  return std::move(*out);
}

// TeraValidate plus the output digest against the input's digest.
bool validate(Bed& bed, const std::string& dir, int dataset,
              const RunContext& ctx, DatasetDigest* digest) {
  SpanLog::Scope span(*ctx.spans, "workloads.validate");
  auto report = hmr::workloads::validate_output(bed.testbed->dfs(), dir);
  if (!report.ok()) return false;
  *digest = report->digest;
  return bed.inputs_ok &&
         report->valid_terasort(bed.inputs.at(size_t(dataset)));
}

// Layer counters of the workload's primary OSU-IB engine, read from the
// registry after the engine drained.
void collect_registry(hmr::sim::Engine& engine, Metrics& layer) {
  const auto& m = engine.metrics();
  const auto count = [&](const char* name) {
    return double(m.counter_value(name));
  };
  // A histogram the engine never registered yields no metric, so the
  // run reports it missing instead of a p95 of 0.
  const auto p95 = [&](const char* layer_name, const char* name) {
    if (const auto* h = m.find_fixed_histogram(name)) {
      layer[layer_name] = h->quantile(0.95);
    }
  };
  const double batches = count("engine.parallel.batches");
  layer["sim.parallel.chains_per_batch"] =
      batches > 0 ? count("engine.parallel.chains") / batches : 0.0;
  layer["net.messages"] = count("net.messages");
  layer["net.bytes"] = count("net.bytes");
  layer["hdfs.read.retries"] = count("hdfs.read.retries");
  layer["hdfs.replica.failovers"] = count("hdfs.replica.failovers");

  const double requests = count("shuffle.fetch.requests");
  const double retries = count("shuffle.fetch.retries");
  layer["mapred.fetch.requests"] = requests;
  layer["mapred.fetch.retries"] = retries;
  layer["mapred.fetch.timeouts"] = count("shuffle.fetch.timeouts");
  layer["mapred.fetch.useful_ratio"] =
      requests > 0 ? (requests - retries) / requests : 1.0;
  const double spec_attempts = count("speculation.attempts");
  const double spec_wins = count("speculation.wins");
  layer["mapred.speculation.attempts"] = spec_attempts;
  layer["mapred.speculation.wins"] = spec_wins;
  layer["mapred.speculation.win_ratio"] =
      spec_attempts > 0 ? spec_wins / spec_attempts : 0.0;
  layer["mapred.integrity.mismatches"] =
      count("integrity.checksum.mismatches");
  layer["mapred.recovery.io_retries"] = count("storage.io.retries");
  layer["mapred.recovery.corrupt_rereads"] = count("storage.corrupt.rereads");
  layer["mapred.recovery.cache_evictions"] =
      count("cache.integrity.evictions");
  layer["mapred.recovery.map_reruns"] = count("shuffle.refetch.reruns");
  layer["mapred.scheduler.queue_depth_max"] =
      m.snapshot().gauge_max("scheduler.queue.depth");

  p95("rdmashuffle.fetch_rtt_p95_sim_s", "osu.fetch.rtt");
  p95("rdmashuffle.chunk_wait_p95_sim_s", "osu.merge.chunk_wait");
  p95("rdmashuffle.responder_queue_wait_p95_sim_s",
      "osu.responder.queue_wait");
  p95("rdmashuffle.respond_disk_p95_sim_s", "osu.respond.disk");
}

// Modelled phase breakdown of the primary OSU-IB jobs (median over jobs).
void collect_phases(const std::vector<const JobResult*>& jobs,
                    Metrics& layer) {
  std::vector<double> map, shuffle, merge, reduce, overlap;
  double spills = 0, hits = 0, lookups = 0;
  for (const JobResult* job : jobs) {
    const auto phases = job->phases();
    map.push_back(phases.map);
    shuffle.push_back(phases.shuffle);
    merge.push_back(phases.merge);
    reduce.push_back(phases.reduce);
    overlap.push_back(job->overlap_fraction());
    spills += double(job->spills);
    hits += double(job->cache_hits);
    lookups += double(job->cache_hits + job->cache_misses);
  }
  layer["mapred.map_sim_s"] = median_of(map);
  layer["mapred.shuffle_sim_s"] = median_of(shuffle);
  layer["mapred.merge_sim_s"] = median_of(merge);
  layer["mapred.reduce_sim_s"] = median_of(reduce);
  layer["mapred.overlap_fraction"] = median_of(overlap);
  layer["mapred.spills"] = spills;
  layer["dataplane.cache.hit_rate"] = lookups > 0 ? hits / lookups : 0.0;
}

void finish_trace(Bed& bed, const RunContext& ctx, bool primary,
                  Metrics& layer) {
  if (bed.tracer == nullptr) return;
  bed.engine().set_tracer(nullptr);
  layer["trace.events"] += double(bed.tracer->size());
  layer["trace.dropped_events"] += double(bed.tracer->dropped_events());
  if (primary && !ctx.trace_path.empty()) {
    std::ofstream(ctx.trace_path) << bed.tracer->to_chrome_json();
  }
}

struct Reference {
  double sim_s = 0;                    // median over the instances
  std::vector<DatasetDigest> digests;  // output digest per instance
  bool ok = true;
};

// `instances` TeraSorts, each alone on its own fresh testbed whose seed
// (HDFS placement and input keys) derives from the run's seed, so the
// median time averages out what one seed's placement and key skew do.
// With `collect`, the first run's registry and phases feed the per-layer
// metrics; an IPoIB run's first instance supplies the socket-CPU figure.
Reference run_alone(const TerasortSpec& spec, bool osu, bool collect,
                    int instances, const RunContext& ctx, Outcome& out) {
  Reference ref;
  std::vector<double> times;
  for (int k = 0; k < instances; ++k) {
    RunContext instance = ctx;
    instance.seed = derived_seed(ctx.seed, k);
    Bed bed = make_bed(spec, osu, instance, out);
    const double rss_before = current_rss_kb();
    const std::uint64_t events_before = bed.engine().events_dispatched();
    const auto start = Clock::now();
    JobRun run;
    {
      SpanLog::Scope span(*ctx.spans, osu ? "mapred.run_job.osu_ib"
                                          : "mapred.run_job.ipoib");
      run = run_one(*bed.testbed,
                    hmr::workloads::terasort_job(
                        bed.testbed->dfs(), input_dir(0), "/out",
                        terasort_conf(osu, bed.scale)));
    }
    const double rss_after = peak_rss_kb();
    DatasetDigest digest;
    const bool ok = run.completed && engine_clean(bed.engine()) &&
                    validate(bed, "/out", 0, ctx, &digest);
    out.wall_s += seconds_since(start);
    ref.ok = ref.ok && ok;
    out.attempted += 1;
    out.failed += ok ? 0 : 1;
    ref.digests.push_back(digest);
    times.push_back(run.result.elapsed());
    out.layer["sim.events"] +=
        double(bed.engine().events_dispatched() - events_before);
    const bool primary = osu && collect && k == 0;
    if (primary) {
      collect_registry(bed.engine(), out.layer);
      collect_phases({&run.result}, out.layer);
      const double pairs =
          double(run.result.num_maps) * double(run.result.num_reduces);
      if (pairs > 0) {
        out.layer["rdmashuffle.rss_kb_per_pair"] =
            std::max(0.0, rss_after - rss_before) / pairs;
      }
    }
    if (!osu && k == 0) {
      out.layer["net.cpu_s"] =
          bed.engine().metrics().gauge_value("net.cpu_seconds");
    }
    finish_trace(bed, ctx, primary, out.layer);
  }
  ref.sim_s = median_of(times);
  return ref;
}

// Wide and deep run one job through runner().run: no arrival stream and
// no scheduler queue, so those figures are 0 by construction.
void set_no_stream(Metrics& layer) {
  layer["churn.jobs"] = 0;
  layer["churn.offered_jobs_per_min"] = 0;
  layer["churn.p50_first_half_sim_s"] = 0;
  layer["churn.p50_second_half_sim_s"] = 0;
  layer["churn.generator_lateness_s"] = 0;
  layer["mapred.scheduler.queue_wait_p95_sim_s"] = 0;
}

// The single OSU-IB job's latency stands for the p50 and p95.
void set_single_job(double osu_s, Metrics& modelled) {
  modelled["job_sim_s.osu_ib"] = osu_s;
  modelled["job_p50_sim_s"] = osu_s;
  modelled["job_p95_sim_s"] = osu_s;
}

// terasort-wide's timed part: the OSU-IB job alone.
Outcome run_wide(const TerasortSpec& spec, const RunContext& ctx) {
  Outcome out;
  const Reference osu = run_alone(spec, true, true, 1, ctx, out);
  set_single_job(osu.sim_s, out.modelled);
  set_no_stream(out.layer);
  return out;
}

// terasort-deep: the same job as OSU-IB and as IPoIB, each on its own
// testbed; both outputs must carry the input digest and equal each other.
Outcome run_deep(const TerasortSpec& spec, const RunContext& ctx) {
  Outcome out;
  // OSU-IB first, so rdmashuffle.rss_kb_per_pair sees its memory in a
  // fresh process.
  const Reference osu = run_alone(spec, true, true, 1, ctx, out);
  const Reference ipoib = run_alone(spec, false, false, 1, ctx, out);
  if (ipoib.ok && osu.ok && ipoib.digests != osu.digests) out.failed += 2;
  set_single_job(osu.sim_s, out.modelled);
  out.modelled["job_sim_s.ipoib"] = ipoib.sim_s;
  set_no_stream(out.layer);
  return out;
}

// Per-job conf of the churn stream: one 3.3x-slower host with map and
// reduce speculation, and two hosts with mild disk-fault rates. The
// runner arms the disk faults of every job that carries the
// sim.fault.disk.* keys, restarting each host's fault stream, so only
// the first job carries them: the armed faults stay on the hosts, and
// the whole stream draws one continuing fault sequence per host.
Conf churn_conf(double scale, int nodes, bool arm_disk_faults) {
  Conf conf = terasort_conf(true, scale);
  conf.set_bool(hmr::mapred::kSpeculativeExecution, true);
  conf.set_bool(hmr::mapred::kReduceSpeculativeExecution, true);
  conf.set("sim.fault.cpu.hosts", std::to_string(nodes));
  conf.set_double("sim.fault.cpu.factor", 0.3);
  if (arm_disk_faults) {
    conf.set("sim.fault.disk.hosts", "2,3");
    conf.set_double("sim.fault.disk.io.error.prob", 0.01);
    conf.set_double("sim.fault.disk.read.corrupt.prob", 0.005);
    conf.set_double("sim.fault.disk.cache.corrupt.prob", 0.01);
  }
  return conf;
}

// Cluster-wide cap on concurrent jobs, so arrivals queue and the
// fair-share order decides who runs next.
constexpr int kMaxRunningJobs = 2;

const char* kTenants[] = {"alice", "bob", "carol"};
constexpr double kTenantWeights[] = {2.0, 1.0, 1.0};

std::string churn_out_dir(int job) { return "/out" + std::to_string(job); }
int churn_dataset(int job, const ChurnSpec& spec) {
  return (job - 1) % spec.datasets;
}

using Handles = std::vector<std::shared_ptr<SubmittedJob>>;

// Open loop: exponential gaps at the fixed rate, tenant drawn by weight.
// Both streams derive from the testbed seed. Arrivals are simulated
// events, so the generator is never late.
hmr::sim::Task<> arrivals(Testbed& bed, ChurnSpec spec,
                          std::shared_ptr<Handles> handles) {
  auto& engine = bed.engine();
  hmr::Rng gaps = engine.make_rng("perfbench.arrivals");
  hmr::Rng users = engine.make_rng("perfbench.arrivals.user");
  double total_weight = 0;
  for (double w : kTenantWeights) total_weight += w;
  for (int j = 1; j <= spec.jobs; ++j) {
    co_await engine.delay(gaps.exponential(60.0 / spec.jobs_per_min));
    double r = users.uniform() * total_weight;
    size_t user = 0;
    while (user + 1 < std::size(kTenants) && r >= kTenantWeights[user]) {
      r -= kTenantWeights[user];
      ++user;
    }
    auto job = hmr::workloads::terasort_job(
        bed.dfs(), input_dir(churn_dataset(j, spec)), churn_out_dir(j),
        churn_conf(real_scale(spec.job), spec.job.nodes, j == 1));
    job.name = "churn-" + std::to_string(j);
    handles->push_back(bed.tracker().submit(std::move(job), kTenants[user]));
  }
}

SchedulerConfig churn_scheduler() {
  SchedulerConfig sched;
  sched.policy = hmr::mapred::SchedPolicy::kFair;
  sched.max_running_jobs = kMaxRunningJobs;
  for (size_t t = 0; t < std::size(kTenants); ++t) {
    sched.pools[kTenants[t]].weight = kTenantWeights[t];
  }
  return sched;
}

// tenant-churn's timed part: a Poisson stream of small OSU-IB TeraSorts
// from three fair-share tenants on one shared testbed.
Outcome run_churn(const ChurnSpec& spec, const RunContext& ctx) {
  Outcome out;
  const SchedulerConfig sched = churn_scheduler();
  Bed bed = make_bed(spec.job, true, ctx, out, spec.datasets, &sched);
  auto handles = std::make_shared<Handles>();
  const double rss_before = current_rss_kb();
  const std::uint64_t events_before = bed.engine().events_dispatched();
  const auto start = Clock::now();
  {
    SpanLog::Scope span(*ctx.spans, "mapred.run_job.osu_ib");
    bed.engine().spawn(arrivals(*bed.testbed, spec, handles));
    bed.engine().run();
  }
  const double rss_after = peak_rss_kb();
  const bool clean =
      engine_clean(bed.engine()) && int(handles->size()) == spec.jobs;
  std::vector<double> latencies, waits, first_half, second_half;
  std::vector<const JobResult*> results;
  double pairs = 0;
  for (int j = 1; j <= int(handles->size()); ++j) {
    const SubmittedJob& job = *(*handles)[size_t(j - 1)];
    DatasetDigest digest;
    const bool ok =
        clean && job.completed &&
        validate(bed, churn_out_dir(j), churn_dataset(j, spec), ctx, &digest);
    out.failed += ok ? 0 : 1;
    if (!job.completed) continue;
    latencies.push_back(job.latency());
    waits.push_back(job.queue_wait());
    (2 * j <= spec.jobs ? first_half : second_half).push_back(job.latency());
    results.push_back(&job.result);
    pairs += double(job.result.num_maps) * double(job.result.num_reduces);
  }
  out.attempted += spec.jobs;
  out.failed += spec.jobs - int(handles->size());
  out.wall_s += seconds_since(start);
  out.layer["sim.events"] +=
      double(bed.engine().events_dispatched() - events_before);

  const auto all = hmr::workloads::latency_summary(latencies);
  out.modelled["job_p50_sim_s"] = all.p50;
  out.modelled["job_p95_sim_s"] = all.p95;
  out.layer["churn.jobs"] = double(latencies.size());
  out.layer["churn.offered_jobs_per_min"] = spec.jobs_per_min;
  out.layer["churn.p50_first_half_sim_s"] = median_of(first_half);
  out.layer["churn.p50_second_half_sim_s"] = median_of(second_half);
  out.layer["churn.generator_lateness_s"] = 0.0;
  out.layer["mapred.scheduler.queue_wait_p95_sim_s"] =
      hmr::workloads::latency_summary(waits).p95;
  collect_registry(bed.engine(), out.layer);
  collect_phases(results, out.layer);
  if (pairs > 0) {
    out.layer["rdmashuffle.rss_kb_per_pair"] =
        std::max(0.0, rss_after - rss_before) / pairs;
  }
  finish_trace(bed, ctx, true, out.layer);
  return out;
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "terasort-wide" || name == "terasort-deep" ||
         name == "tenant-churn";
}

Shape workload_shape(const std::string& name, Size size) {
  const bool churn = name == "tenant-churn";
  const TerasortSpec spec = churn ? churn_spec(size).job
                            : name == "terasort-wide" ? wide_spec(size)
                                                      : deep_spec(size);
  Shape shape;
  shape.maps = int(spec.modeled / spec.block);
  // Reducers: the runner's default of 4 per DataNode (mapred.reduce.tasks
  // unset), which the seed measurements confirm (512 on 128 nodes).
  shape.reduces = 4 * spec.nodes;
  shape.datanodes = spec.nodes;
  shape.map_output_modeled = spec.block;
  shape.cache_bytes = 12 * kGiB;
  shape.real_block_bytes =
      std::max<std::uint64_t>(1, std::uint64_t(double(spec.block) /
                                               real_scale(spec)));
  return shape;
}

Outcome run_workload(const std::string& name, const RunContext& ctx) {
  if (name == "terasort-wide") return run_wide(wide_spec(ctx.size), ctx);
  if (name == "terasort-deep") return run_deep(deep_spec(ctx.size), ctx);
  return run_churn(churn_spec(ctx.size), ctx);
}

Outcome run_references(const std::string& name, const RunContext& ctx) {
  Outcome out;
  if (name == "terasort-wide") {
    const Reference ipoib = run_alone(wide_spec(ctx.size), false, false,
                                      kWideIpoibInstances, ctx, out);
    out.modelled["job_sim_s.ipoib"] = ipoib.sim_s;
  } else if (name == "tenant-churn") {
    // One IPoIB and one OSU-IB job per input dataset, each alone on a
    // fault-free testbed; their outputs must match pairwise.
    const ChurnSpec spec = churn_spec(ctx.size);
    const Reference ipoib =
        run_alone(spec.job, false, false, spec.datasets, ctx, out);
    const Reference osu =
        run_alone(spec.job, true, false, spec.datasets, ctx, out);
    if (ipoib.ok && osu.ok && ipoib.digests != osu.digests) {
      out.failed += 2 * spec.datasets;
    }
    out.modelled["job_sim_s.ipoib"] = ipoib.sim_s;
    out.modelled["job_sim_s.osu_ib"] = osu.sim_s;
  }
  return out;
}

Metrics modelled_metrics(const Metrics& timed, const Metrics& references) {
  Metrics m = timed;
  m.insert(references.begin(), references.end());
  const double ipoib_s = m.at("job_sim_s.ipoib");
  const double gain =
      ipoib_s > 0 ? 100.0 * (1.0 - m.at("job_sim_s.osu_ib") / ipoib_s) : 0.0;
  m["osu_ib_gain_pct"] = gain;
  m["osu_ib_gain_err_pp"] = std::fabs(gain - kPaperGainPct);
  return m;
}

double time_setup(const std::string& name, const RunContext& ctx) {
  Outcome out;
  if (name == "tenant-churn") {
    const ChurnSpec spec = churn_spec(ctx.size);
    const SchedulerConfig sched = churn_scheduler();
    make_bed(spec.job, true, ctx, out, spec.datasets, &sched);
  } else if (name == "terasort-wide") {
    make_bed(wide_spec(ctx.size), true, ctx, out);
  } else {
    make_bed(deep_spec(ctx.size), true, ctx, out);
    make_bed(deep_spec(ctx.size), false, ctx, out);
  }
  return out.setup_s;
}

double median_of(std::vector<double> values) {
  return hmr::workloads::latency_summary(std::move(values)).p50;
}

double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss);
}

}  // namespace perfbench
