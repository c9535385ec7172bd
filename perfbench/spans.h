// Host-clock spans recorded by the benchmark around each public call it
// makes into a layer of the simulator (Testbed construction, input
// generation, job runs, the engine drain, output validation, probes).
// Spans stay in memory and are written out when the run ends.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SpanRecord {
  std::string name;
  double start_s = 0;  // host seconds since the log was created
  double end_s = 0;
  int parent = -1;     // index of the enclosing span, -1 at top level
};

// Disabled logs record nothing, so untraced runs pay one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  // RAII scope: opens a span on construction, closes it on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log) {
      if (!log_.enabled_) return;
      id_ = int(log_.spans_.size());
      const int parent = log_.open_.empty() ? -1 : log_.open_.back();
      log_.spans_.push_back(
          {std::move(name), seconds_since(log_.origin_), 0.0, parent});
      log_.open_.push_back(id_);
    }
    ~Scope() {
      if (id_ < 0) return;
      log_.spans_[size_t(id_)].end_s = seconds_since(log_.origin_);
      log_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_ = -1;
  };

  // Summed duration of every closed span called `name`.
  double total(const std::string& name) const {
    double sum = 0;
    for (const auto& span : spans_) {
      if (span.name == name) sum += span.end_s - span.start_s;
    }
    return sum;
  }

  // Per-name self time: duration minus the part covered by child spans.
  std::map<std::string, double> self_times() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const auto& span : spans_) {
      if (span.parent >= 0) {
        self[size_t(span.parent)] -= span.end_s - span.start_s;
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
  }

  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d}%s\n",
                   i, s.name.c_str(), s.start_s, s.end_s, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
