#include "probes.h"

#include <malloc.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/units.h"
#include "dataplane/cache.h"
#include "dataplane/merger.h"
#include "dataplane/partitioner.h"
#include "dataplane/segment.h"
#include "hdfs/hdfs.h"
#include "net/cluster.h"
#include "net/network.h"
#include "sim/channel.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "ucr/endpoint.h"

namespace perfbench {
namespace {

using hmr::Bytes;
using hmr::kMiB;
using hmr::Rng;
namespace dp = hmr::dataplane;
namespace sim = hmr::sim;

// Work per probe at full size; the self-test divides by kSmallDivisor.
struct Work {
  int queue_ops = 2'000'000;
  int queue_depth = 4096;
  int spawns = 200'000;
  int channels = 20'000;
  std::uint64_t crc_bytes = 128 * kMiB;
  int records = 400'000;
  int cache_ops = 2'000'000;
  int connects = 2'000;
  int eager_msgs = 200'000;
  int rendezvous_msgs = 4'000;
  std::uint64_t dfs_bytes = 64 * kMiB;
};
constexpr int kSmallDivisor = 20;

Work work_for(Size size) {
  Work w;
  if (size == Size::kFull) return w;
  w.queue_ops /= kSmallDivisor;
  w.spawns /= kSmallDivisor;
  w.channels /= kSmallDivisor;
  w.crc_bytes /= kSmallDivisor;
  w.records /= kSmallDivisor;
  w.cache_ops /= kSmallDivisor;
  w.connects /= kSmallDivisor;
  w.eager_msgs /= kSmallDivisor;
  w.rendezvous_msgs /= kSmallDivisor;
  w.dfs_bytes /= kSmallDivisor;
  return w;
}

// Times `fn` under a span named `name`; returns host seconds.
template <typename Fn>
double timed(SpanLog& spans, const std::string& name, Fn&& fn) {
  SpanLog::Scope span(spans, name);
  const auto start = Clock::now();
  fn();
  return std::max(1e-9, seconds_since(start));
}

// Steady-state pop-min / push-later pairs on a queue held at the given
// depth; half the pushes land at the current time (the now-FIFO path).
double event_queue_ns(const Work& w, SpanLog& spans) {
  sim::EventQueue queue;
  Rng rng(1, "perfbench.queue");
  std::uint64_t seq = 0;
  for (int i = 0; i < w.queue_depth; ++i) {
    queue.push(0.0, sim::EventQueue::Event{rng.uniform(), seq++, {}});
  }
  double sink = 0;
  const double secs = timed(spans, "probe.sim.event_queue", [&] {
    for (int i = 0; i < w.queue_ops; ++i) {
      const auto event = queue.pop();
      sink += event.at;
      const double dt = rng.chance(0.5) ? 0.0 : rng.uniform();
      queue.push(event.at,
                 sim::EventQueue::Event{event.at + dt, seq++, {}});
    }
  });
  return sink < 0 ? 0 : secs * 1e9 / double(w.queue_ops);
}

sim::Task<> sleeper(sim::Engine& engine) { co_await engine.delay(1.0); }

// Spawn of a detached process, one wake-up, and its completion, with
// every process live at once as in a wide job.
double spawn_detach_ns(const Work& w, SpanLog& spans) {
  sim::Engine engine;
  const double secs = timed(spans, "probe.sim.spawn_detach", [&] {
    for (int i = 0; i < w.spawns; ++i) engine.spawn(sleeper(engine));
    engine.run();
  });
  return secs * 1e9 / double(w.spawns);
}

// Heap bytes one empty sim::Channel holds (its own object included).
double channel_idle_bytes(const Work& w) {
  sim::Engine engine;
  std::vector<std::unique_ptr<sim::Channel<int>>> channels;
  channels.reserve(size_t(w.channels));
  const auto before = mallinfo2().uordblks;
  for (int i = 0; i < w.channels; ++i) {
    channels.push_back(std::make_unique<sim::Channel<int>>(engine, 64));
  }
  const auto after = mallinfo2().uordblks;
  return double(after - before) / double(w.channels);
}

double crc_gbps(const Work& w, std::size_t chunk, SpanLog& spans) {
  Bytes buffer(std::max<std::size_t>(chunk, 1 * kMiB));
  Rng rng(1, "perfbench.crc");
  for (auto& b : buffer) b = std::uint8_t(rng.next());
  std::uint32_t crc = 0;
  const std::uint64_t rounds = w.crc_bytes / chunk;
  const double secs = timed(
      spans, "probe.common.crc32c." + std::to_string(chunk), [&] {
        std::size_t offset = 0;
        for (std::uint64_t i = 0; i < rounds; ++i) {
          crc = hmr::crc32c(
              std::span<const std::uint8_t>(buffer.data() + offset, chunk),
              crc);
          offset = (offset + chunk) % buffer.size();
        }
      });
  return double(rounds * chunk) * 8 / secs / 1e9;
}

// TeraGen-shaped records: 10-byte uniform keys, 90-byte values.
std::vector<dp::KvPair> teragen_records(int count, std::uint64_t stream) {
  Rng rng(stream, "perfbench.records");
  std::vector<dp::KvPair> records(static_cast<size_t>(count));
  for (auto& record : records) {
    record.key.resize(10);
    for (auto& b : record.key) b = std::uint8_t(rng.next());
    record.value.assign(90, std::uint8_t('v'));
  }
  return records;
}

void dataplane_rates(const Shape& shape, const Work& w, SpanLog& spans,
                     Metrics& m) {
  const dp::RangePartitioner range;
  const auto records = teragen_records(w.records, 1);

  // Sort: the map-side build over the job's partition count.
  dp::MapOutputBuilder builder(std::max(1, shape.reduces), range);
  for (const auto& record : records) builder.add(record);
  dp::MapOutput output;
  const double sort_s =
      timed(spans, "probe.dataplane.sort", [&] { output = builder.build(); });

  // Decode: read every partition of that output back.
  std::uint64_t decoded = 0;
  const double decode_s = timed(spans, "probe.dataplane.decode", [&] {
    for (size_t p = 0; p < output.index.size(); ++p) {
      dp::SegmentReader reader(output.data, output.partition_bytes(int(p)));
      dp::KvView view;
      while (reader.next_view(&view)) ++decoded;
    }
  });

  // Merge: the reducer's k-way merge at the job's fan-in (one sorted run
  // per map output).
  const int fan_in = std::clamp(shape.maps, 2, 1024);
  const dp::HashPartitioner one_run;
  std::vector<std::shared_ptr<const Bytes>> runs;
  for (int r = 0; r < fan_in; ++r) {
    dp::MapOutputBuilder run_builder(1, one_run);
    for (size_t i = size_t(r); i < records.size(); i += size_t(fan_in)) {
      run_builder.add(records[i]);
    }
    runs.push_back(run_builder.build().data);
  }
  std::uint64_t merged = 0;
  const double merge_s = timed(spans, "probe.dataplane.merge", [&] {
    std::vector<std::unique_ptr<dp::KvSource>> sources;
    for (const auto& run : runs) {
      sources.push_back(std::make_unique<dp::BytesSource>(run));
    }
    dp::StreamMerger merger(std::move(sources));
    dp::KvView view;
    while (merger.next_view(&view)) ++merged;
  });
  const double mrec = double(w.records) / 1e6;
  m["dataplane.sort.mrec_per_s"] = mrec / sort_s;
  // Decode and merge count only when every record came back.
  if (decoded == std::uint64_t(w.records)) {
    m["dataplane.decode.mrec_per_s"] = mrec / decode_s;
  }
  if (merged == std::uint64_t(w.records)) {
    m["dataplane.merge.mrec_per_s"] = mrec / merge_s;
  }
}

// One put per seven gets over the job's map outputs, at the tracker
// cache's capacity and entry size.
double cache_mops(const Shape& shape, const Work& w, SpanLog& spans) {
  dp::PrefetchCache cache(shape.cache_bytes);
  const int keys = std::max(8, shape.maps);
  std::vector<std::string> names;
  for (int k = 0; k < keys; ++k) names.push_back("j1_map_" + std::to_string(k));
  auto value = std::make_shared<const dp::MapOutput>();
  Rng rng(1, "perfbench.cache");
  const double secs = timed(spans, "probe.dataplane.cache", [&] {
    for (int i = 0; i < w.cache_ops; ++i) {
      const auto& key = names[size_t(rng.next() % std::uint64_t(keys))];
      if (i % 8 == 0) {
        cache.put(key, value, shape.map_output_modeled);
      } else {
        cache.get(key);
      }
    }
  });
  return double(w.cache_ops) / 1e6 / secs;
}

// A two-host verbs fabric with a UCR listener on host 1.
struct Fabric {
  sim::Engine engine;
  hmr::net::Cluster cluster{engine, hmr::net::NetProfile::verbs_qdr(),
                            hmr::net::Cluster::uniform(2, 1)};
  hmr::net::Network network{engine, hmr::net::NetProfile::verbs_qdr()};
  hmr::ucr::Listener listener{network, cluster.host(1)};
};

using Endpoints = std::vector<std::unique_ptr<hmr::ucr::Endpoint>>;

sim::Task<> accept_n(hmr::ucr::Listener& listener, int n, Endpoints& out) {
  for (int i = 0; i < n; ++i) out.push_back(co_await listener.accept());
}

sim::Task<> connect_n(Fabric& fabric, int n, Endpoints& out) {
  for (int i = 0; i < n; ++i) {
    out.push_back(co_await hmr::ucr::connect(
        fabric.network, fabric.cluster.host(0), fabric.listener));
  }
}

sim::Task<> send_n(hmr::ucr::Endpoint& endpoint, int n,
                   std::shared_ptr<const Bytes> payload,
                   std::uint64_t modeled) {
  for (int i = 0; i < n; ++i) {
    co_await endpoint.send(
        hmr::net::Message::share(payload, modeled, std::uint64_t(i)));
  }
}

sim::Task<> recv_n(hmr::ucr::Endpoint& endpoint, int n, int& received) {
  for (int i = 0; i < n; ++i) {
    if (!(co_await endpoint.recv())) break;
    ++received;
  }
}

void close_all(Fabric& fabric, Endpoints& a, Endpoints& b) {
  for (auto& e : a) e->close();
  for (auto& e : b) e->close();
  fabric.engine.run();
}

// Moves `n` messages of `payload` (charged `modeled` bytes) from host 0
// to host 1 over one endpoint pair; returns host seconds, or 0 if any
// message went missing.
double stream_messages(int n, std::shared_ptr<const Bytes> payload,
                       std::uint64_t modeled, const std::string& span,
                       SpanLog& spans) {
  Fabric fabric;
  Endpoints servers, clients;
  fabric.engine.spawn(accept_n(fabric.listener, 1, servers));
  fabric.engine.spawn(connect_n(fabric, 1, clients));
  fabric.engine.run();
  if (servers.size() != 1 || clients.size() != 1) return 0;
  int received = 0;
  const double secs = timed(spans, span, [&] {
    fabric.engine.spawn(recv_n(*servers[0], n, received));
    fabric.engine.spawn(send_n(*clients[0], n, payload, modeled));
    fabric.engine.run();
  });
  close_all(fabric, clients, servers);
  return received == n ? secs : 0;
}

// Records each UCR figure only when its work completed in full.
void ucr_rates(const Work& w, SpanLog& spans, Metrics& m) {
  {
    Fabric fabric;
    Endpoints servers, clients;
    const double secs = timed(spans, "probe.ucr.connect", [&] {
      fabric.engine.spawn(accept_n(fabric.listener, w.connects, servers));
      fabric.engine.spawn(connect_n(fabric, w.connects, clients));
      fabric.engine.run();
    });
    if (int(clients.size()) == w.connects) {
      m["ucr.connect_us"] = secs * 1e6 / double(w.connects);
    }
    close_all(fabric, clients, servers);
  }
  // Eager: 1 KiB messages, under UCR's 16 KiB eager threshold.
  auto small = std::make_shared<const Bytes>(1024, std::uint8_t(1));
  if (const double secs = stream_messages(w.eager_msgs, small, 1024,
                                          "probe.ucr.eager", spans)) {
    m["ucr.eager.msgs_per_s"] = double(w.eager_msgs) / secs;
  }
  // Rendezvous: 1 MiB messages, real payload bytes per host second.
  auto large = std::make_shared<const Bytes>(1 * kMiB, std::uint8_t(2));
  if (const double secs =
          stream_messages(w.rendezvous_msgs, large, 1 * kMiB,
                          "probe.ucr.rendezvous", spans)) {
    m["ucr.rendezvous.gbps"] =
        double(w.rendezvous_msgs) * double(kMiB) * 8 / secs / 1e9;
  }
}

sim::Task<> dfs_write(hmr::hdfs::MiniDfs& dfs, hmr::net::Host& writer,
                      std::string path, Bytes data, double scale, char& ok) {
  const auto status =
      co_await dfs.write(writer, std::move(path), std::move(data), scale);
  ok = status.ok() ? 1 : 0;
}

sim::Task<> dfs_read(hmr::hdfs::MiniDfs& dfs, hmr::net::Host& reader,
                     std::string path, std::uint64_t& bytes) {
  auto data = co_await dfs.read(reader, std::move(path));
  if (data.ok()) bytes += data->size();
}

// TestDFSIO-style: files of four blocks written from and read back on
// the DataNodes, real payload bytes per host second (block CRCs
// included). Each rate is recorded only when every file made it.
void dfs_rates(const Shape& shape, const Work& w, SpanLog& spans,
               Metrics& m) {
  const int datanodes = std::clamp(shape.datanodes, 1, 8);
  sim::Engine engine;
  const auto profile = hmr::net::NetProfile::ipoib_qdr();
  hmr::net::Cluster cluster(engine, profile,
                            hmr::net::Cluster::uniform(datanodes + 1, 1));
  hmr::net::Network network(engine, profile);
  hmr::hdfs::HdfsParams params;
  params.block_size = shape.map_output_modeled;
  params.replication = std::min(3, datanodes);
  std::vector<int> hosts;
  for (int i = 1; i <= datanodes; ++i) hosts.push_back(i);
  hmr::hdfs::MiniDfs dfs(cluster, network, params, 0, hosts);

  const std::uint64_t file_bytes = 4 * shape.real_block_bytes;
  const int files = int(std::max<std::uint64_t>(1, w.dfs_bytes / file_bytes));
  const double scale =
      double(shape.map_output_modeled) / double(shape.real_block_bytes);
  Rng rng(1, "perfbench.dfs");
  std::vector<Bytes> payloads;
  for (int f = 0; f < files; ++f) {
    Bytes data(file_bytes);
    for (auto& b : data) b = std::uint8_t(rng.next());
    payloads.push_back(std::move(data));
  }
  std::vector<char> written(size_t(files), 0);
  const double write_s = timed(spans, "probe.hdfs.write", [&] {
    for (int f = 0; f < files; ++f) {
      engine.spawn(dfs_write(dfs, cluster.host(size_t(1 + f % datanodes)),
                             "/probe/f" + std::to_string(f),
                             std::move(payloads[size_t(f)]), scale,
                             written[size_t(f)]));
    }
    engine.run();
  });
  std::uint64_t read_bytes = 0;
  const double read_s = timed(spans, "probe.hdfs.read", [&] {
    for (int f = 0; f < files; ++f) {
      engine.spawn(dfs_read(dfs, cluster.host(size_t(1 + (f + 1) % datanodes)),
                            "/probe/f" + std::to_string(f), read_bytes));
    }
    engine.run();
  });
  const double total = double(files) * double(file_bytes);
  if (std::count(written.begin(), written.end(), 1) == files) {
    m["hdfs.write.mbps"] = total / 1e6 / write_s;
  }
  if (double(read_bytes) == total) m["hdfs.read.mbps"] = total / 1e6 / read_s;
}

}  // namespace

Metrics run_probes(const Shape& shape, Size size, SpanLog& spans) {
  const Work w = work_for(size);
  Metrics m;
  m["sim.event_queue.push_pop_ns"] = event_queue_ns(w, spans);
  m["sim.spawn_detach_ns"] = spawn_detach_ns(w, spans);
  m["sim.channel.idle_heap_bytes"] = channel_idle_bytes(w);
  m["common.crc32c.gbps.4k"] = crc_gbps(w, 4096, spans);
  m["common.crc32c.gbps.1m"] = crc_gbps(w, 1 * kMiB, spans);
  dataplane_rates(shape, w, spans, m);
  m["dataplane.cache.mops_per_s"] = cache_mops(shape, w, spans);
  ucr_rates(w, spans, m);
  dfs_rates(shape, w, spans, m);
  return m;
}

}  // namespace perfbench
