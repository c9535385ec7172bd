// The benchmark's three workloads, driven only through the simulator's
// public workloads::Testbed API (constructor, generate, runner().run or
// tracker().submit, validate_output). NOTES.md says why each exists.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

using Metrics = std::map<std::string, double>;

// kSmall is the self-test size: the same code paths at a fraction of
// the nodes and bytes.
enum class Size { kFull, kSmall };

// What the layer probes copy from a workload so that they run at its
// shape (merge fan-in, partition count, cache capacity, block bytes).
struct Shape {
  int maps = 0;                         // map outputs merged per reduce
  int reduces = 0;                      // partitions per map output
  int datanodes = 0;
  std::uint64_t map_output_modeled = 0; // modelled bytes of one map output
  std::uint64_t cache_bytes = 0;        // OSU-IB prefetch cache per tracker
  std::uint64_t real_block_bytes = 0;   // real payload bytes per HDFS block
};

struct RunContext {
  std::uint64_t seed = 1;
  Size size = Size::kFull;
  SpanLog* spans = nullptr;   // never null; disabled when untraced
  // Traced runs attach a sim::Tracer to every engine and write the
  // primary engine's Perfetto trace to `trace_path` (empty = don't).
  bool trace_engine = false;
  std::string trace_path;
};

struct Outcome {
  double setup_s = 0;  // Testbed construction + input generation
  double wall_s = 0;   // first submit through drained engine + validation
  int attempted = 0;   // jobs
  int failed = 0;      // failed validation, overran, or left processes
  Metrics modelled;    // end-to-end modelled metrics (repeat per seed)
  Metrics layer;       // per-layer metrics read from results/registries
};

bool is_workload(const std::string& name);
Shape workload_shape(const std::string& name, Size size);

// The timed part of a workload, run once: terasort-wide's OSU-IB job,
// terasort-deep's IPoIB and OSU-IB jobs, tenant-churn's job stream. Its
// setup_s and wall_s are one repetition's host times.
Outcome run_workload(const std::string& name, const RunContext& ctx);

// The reference jobs behind job_sim_s.* and osu_ib_gain_pct where the
// timed part lacks them: terasort-wide's IPoIB instances, tenant-churn's
// fault-free IPoIB and OSU-IB pairs; none on terasort-deep. Their figures
// are modelled, so they repeat exactly and a run needs them once; their
// host time is in neither setup_s nor wall_s.
Outcome run_references(const std::string& name, const RunContext& ctx);

// The end-to-end modelled metrics of one workload run: the timed part's
// and the references' figures, plus the IPoIB/OSU-IB comparison.
Metrics modelled_metrics(const Metrics& timed, const Metrics& references);

// Builds every testbed the timed part uses, with its input, and runs no
// job; returns the set-up seconds. Gives extra setup_s samples when few
// repetitions fit in a run.
double time_setup(const std::string& name, const RunContext& ctx);

// Nearest-rank median (0 for no values), and the process's peak RSS.
double median_of(std::vector<double> values);
double peak_rss_kb();

}  // namespace perfbench
