// Layer probes: host-time throughput of single layers, measured by
// calling each layer's public API at the shape of a workload (merge
// fan-in, partition count, cache capacity, HDFS block bytes). Each probe
// does a fixed amount of work, so only its host time varies.
#pragma once

#include "spans.h"
#include "workloads.h"

namespace perfbench {

// Runs every probe once and returns the per-layer metrics they produce.
// A probe whose work does not check out (a record, message or file went
// missing) leaves its metric out, and the run reports it missing.
Metrics run_probes(const Shape& shape, Size size, SpanLog& spans);

}  // namespace perfbench
