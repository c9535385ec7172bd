// hmr_perfbench: runs one benchmark workload and prints its metrics as
// the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   hmr_perfbench --workload terasort-wide|terasort-deep|tenant-churn
//                 --seed N --seconds S --trace 0|1
//                 [--size full|small] [--out DIR]
//
// --trace 0 repeats the workload's timed part for about S seconds, runs
// its reference jobs once, and reports the end-to-end metrics (medians
// over repetitions for host times).
// --trace 1 runs the timed part once untraced and once traced (benchmark
// spans plus the simulator's Perfetto tracer), then the reference jobs
// and the layer probes, and reports the per-layer metrics; spans and
// traces go to DIR. Exit code 0 means the run finished; "correct" says
// whether every output validated, every modelled metric repeated
// bit-for-bit and every named metric was computed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "probes.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (untraced runs). Host: setup_s, wall_s,
// peak_rss_mb. Modelled: the job_* and osu_ib_* figures.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MB"},
    {"job_ok_frac", "fraction"},
    {"job_sim_s.osu_ib", "s"},
    {"job_sim_s.ipoib", "s"},
    {"osu_ib_gain_pct", "%"},
    {"job_p50_sim_s", "s"},
    {"job_p95_sim_s", "s"},
};

// The modelled end-to-end metrics, which a traced run also reports (in
// its detail line) so that they can be compared with the untraced run's.
constexpr MetricDef kModelled[] = {
    {"job_sim_s.osu_ib", "s"},
    {"job_sim_s.ipoib", "s"},
    {"osu_ib_gain_pct", "%"},
    {"job_p50_sim_s", "s"},
    {"job_p95_sim_s", "s"},
};

// Per-layer metrics (traced runs), grouped by the module they describe.
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.parallel.chains_per_batch", "count"},
    {"sim.event_queue.push_pop_ns", "ns"},
    {"sim.spawn_detach_ns", "ns"},
    {"sim.channel.idle_heap_bytes", "B"},
    {"common.crc32c.gbps.4k", "Gb/s"},
    {"common.crc32c.gbps.1m", "Gb/s"},
    {"dataplane.merge.mrec_per_s", "Mrec/s"},
    {"dataplane.sort.mrec_per_s", "Mrec/s"},
    {"dataplane.decode.mrec_per_s", "Mrec/s"},
    {"dataplane.cache.mops_per_s", "Mop/s"},
    {"dataplane.cache.hit_rate", "fraction"},
    {"ucr.connect_us", "us"},
    {"ucr.eager.msgs_per_s", "1/s"},
    {"ucr.rendezvous.gbps", "Gb/s"},
    {"net.messages", "count"},
    {"net.bytes", "B"},
    {"net.cpu_s", "s"},
    {"hdfs.generate_s", "s"},
    {"hdfs.read.mbps", "MB/s"},
    {"hdfs.write.mbps", "MB/s"},
    {"hdfs.read.retries", "count"},
    {"hdfs.replica.failovers", "count"},
    {"mapred.map_sim_s", "s"},
    {"mapred.shuffle_sim_s", "s"},
    {"mapred.merge_sim_s", "s"},
    {"mapred.reduce_sim_s", "s"},
    {"mapred.overlap_fraction", "fraction"},
    {"mapred.spills", "count"},
    {"mapred.fetch.requests", "count"},
    {"mapred.fetch.retries", "count"},
    {"mapred.fetch.timeouts", "count"},
    {"mapred.fetch.useful_ratio", "fraction"},
    {"mapred.speculation.attempts", "count"},
    {"mapred.speculation.wins", "count"},
    {"mapred.speculation.win_ratio", "fraction"},
    {"mapred.integrity.mismatches", "count"},
    {"mapred.recovery.io_retries", "count"},
    {"mapred.recovery.corrupt_rereads", "count"},
    {"mapred.recovery.cache_evictions", "count"},
    {"mapred.recovery.map_reruns", "count"},
    {"mapred.scheduler.queue_wait_p95_sim_s", "s"},
    {"mapred.scheduler.queue_depth_max", "count"},
    {"mapred.run_job_s.ipoib", "s"},
    {"mapred.run_job_s.osu_ib", "s"},
    {"rdmashuffle.fetch_rtt_p95_sim_s", "s"},
    {"rdmashuffle.chunk_wait_p95_sim_s", "s"},
    {"rdmashuffle.responder_queue_wait_p95_sim_s", "s"},
    {"rdmashuffle.respond_disk_p95_sim_s", "s"},
    {"rdmashuffle.rss_kb_per_pair", "kB"},
    {"workloads.validate_s", "s"},
    {"churn.jobs", "count"},
    {"churn.offered_jobs_per_min", "1/min"},
    {"churn.p50_first_half_sim_s", "s"},
    {"churn.p50_second_half_sim_s", "s"},
    {"churn.generator_lateness_s", "s"},
    {"osu_ib_gain_err_pp", "pp"},
    {"trace.events", "count"},
    {"trace.dropped_events", "count"},
    {"trace_overhead_pct", "%"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  int trace = -1;
  Size size = Size::kFull;
  std::string out_dir = ".bench_build/perfbench/out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hmr_perfbench: %s\n"
               "usage: hmr_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|small] [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--size") {
      if (value != "full" && value != "small") usage("--size: full|small");
      args.size = value == "small" ? Size::kSmall : Size::kFull;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!is_workload(args.workload)) usage("unknown or missing --workload");
  if (args.seconds <= 0) usage("--seconds is required");
  if (args.trace < 0) usage("--trace is required");
  return args;
}

// The named metrics that `values` holds, in `defs` order. A name with
// no value is left out and reported on stderr; `*complete` turns false.
template <size_t N>
std::string metrics_json(const MetricDef (&defs)[N], const Metrics& values,
                         bool* complete) {
  std::string out = "{";
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    if (it == values.end()) {
      std::fprintf(stderr, "hmr_perfbench: no value for %s\n", def.name);
      *complete = false;
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", def.name, it->second, def.unit);
    out += buf;
  }
  return out + "}";
}

void print_result(bool correct, int attempted, int failed,
                  const std::string& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", attempted, failed, metrics.c_str());
}

std::string samples_json(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.6f", i == 0 ? "" : ", ", v[i]);
    out += buf;
  }
  return out + "]";
}

// Untraced: run the reference jobs once, then repeat the timed part
// while another repetition fits in the time budget (at least once), and
// time set-ups alone until there are three, so setup_s is always a
// median. The reference jobs go first because a process's first large
// job also pays for growing its heap: they leave the timed repetitions
// a warm heap.
int run_untraced(const Args& args) {
  SpanLog spans(false);
  const RunContext ctx{args.seed, args.size, &spans, false, ""};
  const auto refs_start = Clock::now();
  const Outcome refs = run_references(args.workload, ctx);
  const double refs_s = seconds_since(refs_start);
  const auto start = Clock::now();
  std::vector<double> setups, walls;
  std::vector<Metrics> modelled;
  int attempted = refs.attempted, failed = refs.failed;
  for (;;) {
    const Outcome o = run_workload(args.workload, ctx);
    setups.push_back(o.setup_s);
    walls.push_back(o.wall_s);
    modelled.push_back(o.modelled);
    attempted += o.attempted;
    failed += o.failed;
    const double elapsed = seconds_since(start);
    const double per_rep = elapsed / double(walls.size());
    if (elapsed + per_rep > args.seconds) break;
  }
  while (setups.size() < 3) setups.push_back(time_setup(args.workload, ctx));
  bool repeat = true;
  for (const auto& m : modelled) repeat = repeat && m == modelled.front();

  Metrics e2e = modelled_metrics(modelled.front(), refs.modelled);
  e2e["setup_s"] = median_of(setups);
  e2e["wall_s"] = median_of(walls);
  e2e["peak_rss_mb"] = peak_rss_kb() / 1024.0;
  e2e["job_ok_frac"] = double(attempted - failed) / double(attempted);
  std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"repetitions\": %zu, \"modelled_repeat\": %s, "
              "\"setup_s\": %s, \"wall_s\": %s, \"references_s\": %.6f}}\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), walls.size(),
              repeat ? "true" : "false", samples_json(setups).c_str(),
              samples_json(walls).c_str(), refs_s);
  bool complete = true;
  const std::string metrics = metrics_json(kEndToEnd, e2e, &complete);
  print_result(failed == 0 && repeat && complete, attempted, failed,
               metrics);
  return 0;
}

// Traced: the timed part once untraced (the reference for trace overhead
// and the source of the RSS-per-pair figure, measured in a fresh
// process) and once traced, then the reference jobs and the probes.
int run_traced(const Args& args) {
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + args.workload;

  SpanLog quiet(false);
  const Outcome plain =
      run_workload(args.workload, {args.seed, args.size, &quiet, false, ""});
  SpanLog spans(true);
  const RunContext traced_ctx{args.seed, args.size, &spans, true,
                              ec ? "" : stem + ".perfetto.json"};
  const Outcome traced = run_workload(args.workload, traced_ctx);
  RunContext refs_ctx = traced_ctx;
  refs_ctx.trace_path.clear();
  const Outcome refs = run_references(args.workload, refs_ctx);
  const Metrics probes =
      run_probes(workload_shape(args.workload, args.size), args.size, spans);

  // Layer figures are the timed part's; the reference jobs add the IPoIB
  // socket CPU where the timed part has no IPoIB job, and their trace
  // events.
  Metrics layer = traced.layer;
  layer.insert(probes.begin(), probes.end());
  if (refs.layer.count("net.cpu_s") != 0) {
    layer.insert({"net.cpu_s", refs.layer.at("net.cpu_s")});
  }
  for (const char* name : {"trace.events", "trace.dropped_events"}) {
    if (refs.layer.count(name) != 0) layer[name] += refs.layer.at(name);
  }
  layer.erase("rdmashuffle.rss_kb_per_pair");
  if (plain.layer.count("rdmashuffle.rss_kb_per_pair") != 0) {
    layer["rdmashuffle.rss_kb_per_pair"] =
        plain.layer.at("rdmashuffle.rss_kb_per_pair");
  }
  layer["sim.events_per_s"] = plain.layer.at("sim.events") / plain.wall_s;
  layer["hdfs.generate_s"] = spans.total("hdfs.generate");
  layer["mapred.run_job_s.ipoib"] = spans.total("mapred.run_job.ipoib");
  layer["mapred.run_job_s.osu_ib"] = spans.total("mapred.run_job.osu_ib");
  layer["workloads.validate_s"] = spans.total("workloads.validate");
  const Metrics modelled = modelled_metrics(traced.modelled, refs.modelled);
  layer["osu_ib_gain_err_pp"] = modelled.at("osu_ib_gain_err_pp");
  layer["trace_overhead_pct"] =
      100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s;
  if (!ec) spans.write_json(stem + ".spans.json");

  const bool repeat = plain.modelled == traced.modelled;
  std::string self = "{";
  for (const auto& [name, secs] : spans.self_times()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6f",
                  self.size() > 1 ? ", " : "", name.c_str(), secs);
    self += buf;
  }
  bool complete = true;
  const std::string e2e = metrics_json(kModelled, modelled, &complete);
  std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"modelled_repeat\": %s, \"end_to_end\": %s, "
              "\"span_self_s\": %s}}\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              repeat ? "true" : "false", e2e.c_str(), (self + "}").c_str());
  const std::string metrics = metrics_json(kPerLayer, layer, &complete);
  const int failed = plain.failed + traced.failed + refs.failed;
  print_result(failed == 0 && repeat && complete,
               plain.attempted + traced.attempted + refs.attempted, failed,
               metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  return args.trace == 1 ? perfbench::run_traced(args)
                         : perfbench::run_untraced(args);
}
