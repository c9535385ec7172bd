// bench/micro_engine: the event-queue speedup, measured and committed.
// One deterministic queue-churn workload runs on sim::EventQueue (4-ary
// heap + now-FIFO) and on a bench-local std::priority_queue<Event> — the
// engine's container before that optimization — and the ratio of their
// CPU times is emitted as the hmr-bench-v1 "seconds" field:
//
//   seconds = time(EventQueue) / time(std::priority_queue)
//
// A ratio is machine-independent in first order (CPU frequency cancels),
// so tools/bench_check can diff it against bench/baselines/
// BENCH_engine.json with a tight tolerance. A baseline ratio <= 0.5 is
// the committed proof of a >= 2x events/sec gain. Absolute events/sec
// for both containers ride along as extra keys (allowed by the schema)
// for human eyes. Full-engine dispatch rate is perfbench's
// sim.events_per_s.
//
// Regenerate the baseline after an intentional engine change with
//   HMR_BENCH_DIR=bench/baselines ./build/bench/micro_engine
//
// Noise control, in layers: times are thread-CPU (immune to preemption
// and CPU steal), a warmup pair absorbs first-touch page faults, reps
// are INTERLEAVED (EventQueue rep, baseline rep, EventQueue rep, ...)
// so each EventQueue rep is paired with a baseline rep that saw the
// same machine state, and the reported ratio is the MEDIAN of per-pair
// ratios — a noisy stretch skews one pair, not the estimate. Both
// containers see identical event streams.
// A second family of series covers ISSUE-8 parallel work events
// (sim/parallel.h): "parallel-overhead" is the thread-CPU cost of
// routing compute through `co_await engine.parallel` at workers=1
// relative to running the same compute inline (the price of admission,
// ~1.0), and "parallel-speedup" is the wall-clock time of the same
// compute-heavy workload at workers=2 relative to workers=1 (< 1 is a
// speedup; 4- and 8-worker ratios ride along as ungated extra keys
// because CI core counts vary). Both runs double as an identity check:
// `validated` demands every width produced the same event count, final
// clock, and per-host compute checksum.
// A third series times the ISSUE-9 hmr-lint call-graph analysis over
// the repo's own tree: the gated quantity is full-analysis time as a
// multiple of a bare lex of the same files, bounding what the
// repo-wide effect propagation costs on top of tokenization.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <queue>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "lint/lexer.h"
#include "lint/lint.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/parallel.h"

namespace {

using namespace hmr;
using namespace hmr::sim;

constexpr int kReps = 5;

// Thread CPU time, not wall clock: the benchmark is single-threaded and
// CPU-bound, so this is the honest cost — and it is immune to scheduler
// preemption and (on shared CI runners) CPU steal, which otherwise
// swing wall-clock reps by 30%+.
double now_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

// One timed repetition of the workload on one container.
struct Once {
  std::uint64_t events = 0;  // events processed (container-invariant)
  double seconds = 0;        // CPU time for this rep
  double final_time = 0;     // queue clock at the end (sanity)
};

// The workload measured on both containers: the ratio (the
// baseline-diffed number) is the MEDIAN of per-pair ratios — each
// EventQueue rep is paired with the baseline rep that ran right next to
// it in time, so a noisy stretch of machine skews one pair, not the
// estimate.
struct Comparison {
  std::uint64_t events = 0;     // events per rep (container-invariant)
  double ratio = 0;             // median of per-pair queue/baseline times
  double queue_seconds = 0;     // median rep time, for display ev/s
  double baseline_seconds = 0;
  bool streams_match = false;   // both saw identical event streams
};

// The engine's event container before the 4-ary heap and now-FIFO: a
// std::priority_queue ordered by (at, seq), behind EventQueue's push/pop
// signatures. The queue-churn ratio divides by its time.
class PriorityQueueBaseline {
 public:
  void push(Time /*now*/, const EventQueue::Event& event) {
    heap_.push(event);
  }
  EventQueue::Event pop() {
    const EventQueue::Event top = heap_.top();
    heap_.pop();
    return top;
  }

 private:
  struct Later {
    bool operator()(const EventQueue::Event& a,
                    const EventQueue::Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  std::priority_queue<EventQueue::Event, std::vector<EventQueue::Event>,
                      Later>
      heap_;
};

// The workload: raw queue churn against a fat backlog. 32k staggered
// future events stay resident while 16M pop+push operations replay the
// engine's dominant mix: 7 of 8 re-arms land at exactly now() (channel
// and resource wakeups — the FIFO fast path) and 1 of 8 is a short
// future timer (the heap path). No coroutines are resumed — this
// isolates the container cost the engine pays per event. Jitters are
// precomputed so the measured loop is queue ops and nothing else.
template <typename Queue>
Once queue_churn() {
  constexpr std::size_t kBacklog = 32768;
  // Sized so one rep is hundreds of milliseconds of CPU: the kernel
  // accounts thread CPU time in ~10ms jiffies, so short reps would be
  // quantization noise.
  constexpr std::uint64_t kOps = 16'000'000;
  static const std::vector<double> jitter = [] {
    std::vector<double> j(4096);
    Rng rng(7, "micro_engine.churn");
    for (double& v : j) v = 1e-6 + rng.uniform() * 0.01;
    return j;
  }();
  Once m;
  m.events = kOps;
  Queue queue;
  Rng backlog_rng(11, "micro_engine.backlog");
  std::uint64_t seq = 0;
  double now = 0.0;
  for (std::size_t i = 0; i < kBacklog; ++i) {
    // Far-future: the backlog stays resident for the whole run, so
    // every heap op works against its full depth.
    queue.push(now, {1e9 + backlog_rng.uniform() * 1e9, seq++, {}});
  }
  queue.push(now, {0.0, seq++, {}});  // primes the dispatch chain
  const double t0 = now_seconds();
  for (std::uint64_t op = 0; op < kOps; ++op) {
    EventQueue::Event event = queue.pop();
    now = event.at;
    const double at =
        (op & 7) != 0 ? now : now + jitter[op / 8 % jitter.size()];
    queue.push(now, {at, seq++, {}});
  }
  m.seconds = now_seconds() - t0;
  m.final_time = now;
  return m;
}

// Wall clock for the speedup series: worker threads are the whole
// point, so thread-CPU time of the engine thread would miss them.
double now_wall_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

// One timed repetition of the parallel-compute workload.
struct ParallelOnce {
  double seconds = 0;
  std::uint64_t events = 0;
  double final_time = 0;
  std::uint64_t checksum = 0;  // XOR of per-host compute sums
};

// Parallel work events. Eight hosts each run rounds of
// `co_await parallel(host, <hash spin>)` separated by equal delays, so
// every round is one batch of eight single-item chains — the shape
// map-compute batches take in a real job. The spin is sized to
// millisecond-scale chains (what a map task's decode+sort+build costs)
// so compute dominates the pool's per-batch condvar handoff — on
// virtualized CI runners a futex wake costs tens to hundreds of
// microseconds, which would drown sub-millisecond chains. `use_wall`
// picks the clock: wall for speedup, thread-CPU for the workers=1
// overhead ratio (single-threaded there, and immune to CI preemption).
ParallelOnce parallel_compute(int workers, bool use_wall,
                              bool use_parallel_path = true) {
  constexpr int kHosts = 8;
  constexpr int kRounds = 8;
  constexpr int kSpin = 2'000'000;
  Engine engine(3);
  engine.set_parallel_workers(workers);
  std::vector<std::uint64_t> sums(std::size_t(kHosts), 0);
  const auto spin = [](int host, int round) {
    std::uint64_t h = 1469598103934665603ull +
                      std::uint64_t(host) * 1099511628211ull +
                      std::uint64_t(round);
    for (int i = 0; i < kSpin; ++i) {
      h ^= std::uint64_t(i);
      h *= 1099511628211ull;
    }
    return h;
  };
  for (int host = 0; host < kHosts; ++host) {
    if (use_parallel_path) {
      engine.spawn([](Engine& e, int host, std::uint64_t* sum,
                      decltype(spin) spin) -> Task<> {
        for (int round = 0; round < kRounds; ++round) {
          co_await e.parallel(host, [=](ParallelEffects&) {
            *sum += spin(host, round);  // chain-confined slot
          });
          co_await e.delay(1e-3);
        }
      }(engine, host, &sums[std::size_t(host)], spin));
    } else {
      // Inline twin: identical compute and event cadence, no work
      // events — the baseline the overhead ratio divides by.
      engine.spawn([](Engine& e, int host, std::uint64_t* sum,
                      decltype(spin) spin) -> Task<> {
        for (int round = 0; round < kRounds; ++round) {
          *sum += spin(host, round);
          co_await e.delay(1e-3);
        }
      }(engine, host, &sums[std::size_t(host)], spin));
    }
  }
  ParallelOnce m;
  const double t0 = use_wall ? now_wall_seconds() : now_seconds();
  engine.run();
  m.seconds = (use_wall ? now_wall_seconds() : now_seconds()) - t0;
  m.events = engine.events_dispatched();
  m.final_time = engine.now();
  for (std::uint64_t s : sums) m.checksum ^= s;
  return m;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Interleaved pairs: one warmup pair (discarded — first-touch page
// faults and allocator growth land there), then kReps timed pairs.
Comparison measure_queue_churn() {
  Comparison c;
  queue_churn<EventQueue>();
  queue_churn<PriorityQueueBaseline>();
  std::vector<double> ratios, queue_times, baseline_times;
  for (int rep = 0; rep < kReps; ++rep) {
    const Once q = queue_churn<EventQueue>();
    const Once b = queue_churn<PriorityQueueBaseline>();
    ratios.push_back(q.seconds / b.seconds);
    queue_times.push_back(q.seconds);
    baseline_times.push_back(b.seconds);
    c.events = q.events;
    c.streams_match = q.events == b.events && q.final_time == b.final_time;
  }
  c.ratio = median(ratios);
  c.queue_seconds = median(queue_times);
  c.baseline_seconds = median(baseline_times);
  return c;
}

Json make_run(const std::string& series, const Comparison& c) {
  Json phases = Json::object();
  for (const char* phase : {"map", "shuffle", "merge", "reduce"}) {
    phases.set(phase, Json(0.0));
  }
  Json run = Json::object();
  run.set("series", Json(series));
  run.set("size_gb", Json(0.0));
  // The baseline-diffed quantity: EventQueue time as a fraction of
  // std::priority_queue time (< 1 is a speedup, 0.5 is a 2x gain).
  run.set("seconds", Json(c.ratio));
  run.set("phases", std::move(phases));
  run.set("overlap_fraction", Json(0.0));
  run.set("cache_hit_rate", Json(0.0));
  // Validated = both containers processed the identical event stream:
  // same count, same final simulated clock.
  run.set("validated", Json(c.streams_match));
  run.set("events_per_sec_event_queue",
          Json(double(c.events) / c.queue_seconds));
  run.set("events_per_sec_priority_queue",
          Json(double(c.events) / c.baseline_seconds));
  std::printf("%-28s EventQueue %10.0f ev/s   priority_queue %10.0f ev/s"
              "   %.2fx\n",
              series.c_str(), double(c.events) / c.queue_seconds,
              double(c.events) / c.baseline_seconds, 1.0 / c.ratio);
  return run;
}

// The identity half of the parallel series: every width must have seen
// the same stream and computed the same bytes.
bool parallel_match(const ParallelOnce& a, const ParallelOnce& b) {
  return a.events == b.events && a.final_time == b.final_time &&
         a.checksum == b.checksum;
}

// The parallel series are gated with the ratio of per-width MINIMUM rep
// times, not the median of per-pair ratios the queue series use: wall
// clock on virtualized runners takes one-sided noise (steal, neighbor
// load only ever slow a rep down), and the min over interleaved reps is
// the clean-machine estimate that noise cannot inflate.
double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

// Overhead of the parallel path itself: thread-CPU time of the
// workers=1 engine routing compute through work events, as a fraction
// of the inline twin.
Json make_parallel_overhead_run() {
  std::vector<double> path_times, inline_times;
  bool match = true;
  std::uint64_t events = 0;
  parallel_compute(1, /*use_wall=*/false);
  parallel_compute(1, /*use_wall=*/false, /*use_parallel_path=*/false);
  for (int rep = 0; rep < kReps; ++rep) {
    const ParallelOnce p = parallel_compute(1, /*use_wall=*/false);
    const ParallelOnce inline_twin =
        parallel_compute(1, /*use_wall=*/false, /*use_parallel_path=*/false);
    path_times.push_back(p.seconds);
    inline_times.push_back(inline_twin.seconds);
    match = match && p.checksum == inline_twin.checksum;
    events = p.events;
  }
  const double ratio = min_of(path_times) / min_of(inline_times);
  Json phases = Json::object();
  for (const char* phase : {"map", "shuffle", "merge", "reduce"}) {
    phases.set(phase, Json(0.0));
  }
  Json run = Json::object();
  run.set("series", Json("parallel-overhead 1-worker"));
  run.set("size_gb", Json(0.0));
  run.set("seconds", Json(ratio));
  run.set("phases", std::move(phases));
  run.set("overlap_fraction", Json(0.0));
  run.set("cache_hit_rate", Json(0.0));
  run.set("validated", Json(match));
  run.set("events_per_rep", Json(double(events)));
  std::printf("%-28s parallel-path/inline CPU ratio %.3f\n",
              "parallel-overhead 1-worker", ratio);
  return run;
}

// Wall-clock speedup of real worker threads. The gated "seconds" is the
// workers=2 ratio (every CI runner has 2 cores); wider pools ride along
// as ungated keys. Reps interleave all widths so each rep's ratios share
// machine state.
Json make_parallel_speedup_run() {
  std::vector<double> t1, t2, t4, t8;
  bool match = true;
  parallel_compute(1, /*use_wall=*/true);
  parallel_compute(2, /*use_wall=*/true);
  for (int rep = 0; rep < kReps; ++rep) {
    const ParallelOnce w1 = parallel_compute(1, /*use_wall=*/true);
    const ParallelOnce w2 = parallel_compute(2, /*use_wall=*/true);
    const ParallelOnce w4 = parallel_compute(4, /*use_wall=*/true);
    const ParallelOnce w8 = parallel_compute(8, /*use_wall=*/true);
    t1.push_back(w1.seconds);
    t2.push_back(w2.seconds);
    t4.push_back(w4.seconds);
    t8.push_back(w8.seconds);
    match = match && parallel_match(w1, w2) && parallel_match(w1, w4) &&
            parallel_match(w1, w8);
  }
  const double r2 = min_of(t2) / min_of(t1);
  const double r4 = min_of(t4) / min_of(t1);
  const double r8 = min_of(t8) / min_of(t1);
  Json phases = Json::object();
  for (const char* phase : {"map", "shuffle", "merge", "reduce"}) {
    phases.set(phase, Json(0.0));
  }
  Json run = Json::object();
  run.set("series", Json("parallel-speedup 2-workers"));
  run.set("size_gb", Json(0.0));
  run.set("seconds", Json(r2));
  run.set("phases", std::move(phases));
  run.set("overlap_fraction", Json(0.0));
  run.set("cache_hit_rate", Json(0.0));
  run.set("validated", Json(match));
  run.set("speedup_w4", Json(r4));
  run.set("speedup_w8", Json(r8));
  std::printf("%-28s wall ratio w2 %.3f  w4 %.3f  w8 %.3f  (%.2fx at 2)\n",
              "parallel-speedup 2-workers", r2, r4, r8, 1.0 / r2);
  return run;
}

// The hmr-lint repo-wide call-graph analysis run over the repo's own
// tree. Gated "seconds" is the full analysis (call graph extraction,
// fixed-point effect propagation, every rule family) as a multiple of a
// bare lex of the same files — a machine-independent ratio, like the
// queue series, bounding how much the call-graph layers cost on top of
// tokenization. Absolute full-tree milliseconds ride
// along ungated for human eyes. `validated` doubles as a dogfood check:
// the tree must lint to zero findings.
Json make_lint_run() {
  std::vector<lint::SourceFile> files;
  // The CI bench job runs from the repo root; the ".." fallbacks cover
  // invocations from build/ or build/bench/.
  for (const char* root : {".", "..", "../.."}) {
    auto tree = lint::collect_tree(root, {"src", "tools", "tests"});
    if (tree.ok() && tree.value().size() >= 20) {
      files = std::move(tree).value();
      break;
    }
  }
  Json phases = Json::object();
  for (const char* phase : {"map", "shuffle", "merge", "reduce"}) {
    phases.set(phase, Json(0.0));
  }
  Json run = Json::object();
  run.set("series", Json("lint-callgraph full-tree"));
  run.set("size_gb", Json(0.0));
  run.set("phases", std::move(phases));
  run.set("overlap_fraction", Json(0.0));
  run.set("cache_hit_rate", Json(0.0));
  if (files.empty()) {
    // No repo tree near the binary (an installed copy, say): emit an
    // invalid run rather than crash. CI always has the tree.
    run.set("seconds", Json(0.0));
    run.set("validated", Json(false));
    std::printf("%-28s repo tree not found; series invalid\n",
                "lint-callgraph full-tree");
    return run;
  }
  (void)lint::lint_files(files, {});  // warmup: allocator growth
  std::vector<double> full_times, lex_times;
  std::size_t findings = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    // Both passes repeat inside the timer: a single pass is a handful
    // of ~10ms kernel CPU-accounting jiffies, and quantization on
    // either side of the ratio would eat the gate's tolerance.
    constexpr int kFullIters = 4;
    double t0 = now_seconds();
    for (int it = 0; it < kFullIters; ++it) {
      const lint::Report report = lint::lint_files(files, {});
      findings = report.findings.size();
    }
    full_times.push_back((now_seconds() - t0) / kFullIters);
    constexpr int kLexIters = 8;
    t0 = now_seconds();
    std::size_t tokens = 0;
    for (int it = 0; it < kLexIters; ++it) {
      for (const auto& f : files) {
        tokens += lint::lex(f.path, f.text).tokens.size();
      }
    }
    lex_times.push_back((now_seconds() - t0) / kLexIters);
    if (tokens == 0) findings += 1;  // lex produced nothing: invalid
  }
  const double ratio = min_of(full_times) / min_of(lex_times);
  run.set("seconds", Json(ratio));
  run.set("validated", Json(findings == 0));
  run.set("lint_files", Json(double(files.size())));
  run.set("lint_full_ms", Json(min_of(full_times) * 1e3));
  std::printf("%-28s full/lex ratio %.2f   full %.0f ms over %zu files\n",
              "lint-callgraph full-tree", ratio, min_of(full_times) * 1e3,
              files.size());
  return run;
}

}  // namespace

int main() {
  std::printf("micro_engine: EventQueue 4-ary+FIFO vs std::priority_queue "
              "(median of %d interleaved rep pairs)\n", kReps);
  Json runs = Json::array();
  runs.push_back(make_run("queue-churn 32k-backlog", measure_queue_churn()));
  runs.push_back(make_parallel_overhead_run());
  runs.push_back(make_parallel_speedup_run());
  runs.push_back(make_lint_run());

  Json doc = Json::object();
  doc.set("schema", Json("hmr-bench-v1"));
  doc.set("figure", Json("engine"));
  doc.set("title", Json("Engine event queue: 4-ary+FIFO time as a fraction "
                        "of a std::priority_queue"));
  doc.set("workload", Json("microbench"));
  doc.set("nodes", Json(std::int64_t(0)));
  doc.set("runs", std::move(runs));

  std::string path = "BENCH_engine.json";
  // lint:ignore(determinism): HMR_BENCH_DIR only redirects host-side bench report output; nothing in the simulation reads it
  if (const char* dir = std::getenv("HMR_BENCH_DIR")) {
    if (dir[0] != '\0') path = std::string(dir) + "/" + path;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_engine: cannot write %s\n", path.c_str());
    return 1;
  }
  const std::string body = doc.dump() + "\n";
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "  wrote %s\n", path.c_str());
  return 0;
}
