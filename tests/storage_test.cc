#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "storage/disk.h"
#include "storage/localfs.h"

namespace hmr::storage {
namespace {

using sim::Engine;
using sim::Task;

Bytes make_bytes(size_t n, std::uint8_t fill = 0x5a) {
  return Bytes(n, fill);
}

// An exact-size stored payload, the form LocalFS::write_file takes.
std::shared_ptr<const Bytes> shared_bytes(size_t n, std::uint8_t fill = 0x5a) {
  return std::make_shared<const Bytes>(n, fill);
}

std::unique_ptr<LocalFS> make_fs(Engine& engine, int disks,
                                 bool ssd = false) {
  std::vector<std::unique_ptr<Disk>> v;
  for (int i = 0; i < disks; ++i) {
    auto spec = ssd ? DiskSpec::ssd("ssd" + std::to_string(i))
                    : DiskSpec::hdd("hdd" + std::to_string(i));
    v.push_back(std::make_unique<Disk>(engine, std::move(spec)));
  }
  return std::make_unique<LocalFS>(engine, std::move(v));
}

// ------------------------------------------------------------------ disk

TEST(DiskTest, SequentialReadTimeMatchesBandwidth) {
  Engine engine;
  Disk disk(engine, DiskSpec::hdd("d"));
  const std::uint64_t bytes = 125'000'000;  // 1 second at 125 MB/s
  double elapsed = -1;
  const auto stream = next_stream_id();
  engine.spawn([](Engine& e, Disk& d, std::uint64_t n, std::uint64_t s,
                  double& out) -> Task<> {
    co_await d.read(n, s);
    out = e.now();
  }(engine, disk, bytes, stream, elapsed));
  engine.run();
  // One initial seek + transfer.
  EXPECT_NEAR(elapsed, 1.0 + disk.spec().seek_time, 1e-6);
  EXPECT_EQ(disk.bytes_read(), bytes);
  EXPECT_EQ(disk.seeks(), 1u);
}

TEST(DiskTest, SameStreamPaysOneSeek) {
  Engine engine;
  Disk disk(engine, DiskSpec::hdd("d"));
  const auto stream = next_stream_id();
  engine.spawn([](Disk& d, std::uint64_t s) -> Task<> {
    for (int i = 0; i < 10; ++i) co_await d.read(1024, s);
  }(disk, stream));
  engine.run();
  EXPECT_EQ(disk.seeks(), 1u);
}

TEST(DiskTest, InterleavedStreamsThrash) {
  Engine engine;
  Disk disk(engine, DiskSpec::hdd("d"));
  const auto s1 = next_stream_id();
  const auto s2 = next_stream_id();
  // Two concurrent 40 MB scans with 4 MB chunks force head ping-pong.
  for (auto s : {s1, s2}) {
    engine.spawn([](Disk& d, std::uint64_t s) -> Task<> {
      co_await d.read(40 * 1024 * 1024, s);
    }(disk, s));
  }
  engine.run();
  EXPECT_GT(disk.seeks(), 10u);  // ~20 chunk grants alternating streams
}

TEST(DiskTest, SsdHasNoMeaningfulSeekPenalty) {
  auto run = [](DiskSpec spec) {
    Engine engine;
    Disk disk(engine, std::move(spec));
    for (int i = 0; i < 8; ++i) {
      engine.spawn([](Disk& d) -> Task<> {
        co_await d.read(8 * 1024 * 1024, next_stream_id());
      }(disk));
    }
    return engine.run();
  };
  const double hdd_time = run(DiskSpec::hdd("h"));
  const double ssd_time = run(DiskSpec::ssd("s"));
  EXPECT_LT(ssd_time, hdd_time / 2.0);
}

TEST(DiskTest, WriteAndReadBandwidthDiffer) {
  Engine engine;
  Disk disk(engine, DiskSpec::ssd("s"));
  double read_done = 0, write_done = 0;
  engine.spawn([](Engine& e, Disk& d, double& out) -> Task<> {
    co_await d.read(100'000'000, next_stream_id());
    out = e.now();
  }(engine, disk, read_done));
  engine.run();
  Engine engine2;
  Disk disk2(engine2, DiskSpec::ssd("s"));
  engine2.spawn([](Engine& e, Disk& d, double& out) -> Task<> {
    co_await d.write(100'000'000, next_stream_id());
    out = e.now();
  }(engine2, disk2, write_done));
  engine2.run();
  EXPECT_GT(write_done, read_done);  // writes are slower on SSD
}

TEST(DiskTest, QueueDepthAllowsParallelism) {
  // 4 concurrent reads on an SSD with depth 4 finish together; on depth 1
  // they serialize.
  auto run = [](std::int64_t depth) {
    Engine engine;
    DiskSpec spec = DiskSpec::ssd("s");
    spec.queue_depth = depth;
    Disk disk(engine, std::move(spec));
    for (int i = 0; i < 4; ++i) {
      engine.spawn([](Disk& d) -> Task<> {
        co_await d.read(125'000'000, next_stream_id());
      }(disk));
    }
    return engine.run();
  };
  EXPECT_NEAR(run(1) / run(4), 4.0, 0.2);
}

TEST(DiskTest, BusySecondsAccumulate) {
  Engine engine;
  Disk disk(engine, DiskSpec::hdd("d"));
  engine.spawn([](Disk& d) -> Task<> {
    co_await d.write(115'000'000, next_stream_id());
  }(disk));
  engine.run();
  EXPECT_NEAR(disk.busy_seconds(), 1.0 + disk.spec().seek_time, 1e-6);
}

// --------------------------------------------------------------- localfs

TEST(LocalFsTest, WriteReadRoundTrip) {
  Engine engine;
  auto fs = make_fs(engine, 1);
  bool checked = false;
  engine.spawn([](LocalFS& fs, bool& checked) -> Task<> {
    EXPECT_TRUE(
        (co_await fs.write_file("dir/file", shared_bytes(1000, 0x42))).ok());
    auto view = co_await fs.read_file("dir/file");
    EXPECT_TRUE(view.ok());
    if (view.ok()) {
      EXPECT_EQ(view->real_size(), 1000u);
      EXPECT_EQ((*view->data)[0], 0x42);
      checked = true;
    }
  }(*fs, checked));
  engine.run();
  EXPECT_TRUE(checked);
}

// A file holds the buffer it was given (no copy), and a read hands that
// same buffer out; append swaps in a fresh one.
TEST(LocalFsTest, WriteFileKeepsTheGivenBuffer) {
  Engine engine;
  auto fs = make_fs(engine, 1);
  const auto payload = shared_bytes(100, 0x11);
  engine.spawn([](LocalFS& fs, std::shared_ptr<const Bytes> payload) -> Task<> {
    EXPECT_TRUE((co_await fs.write_file("f", payload)).ok());
    auto view = co_await fs.read_file("f");
    EXPECT_TRUE(view.ok());
    if (view.ok()) {
      EXPECT_EQ(view->data.get(), payload.get());
    }
    EXPECT_TRUE((co_await fs.append("f", make_bytes(3, 0x22))).ok());
  }(*fs, payload));
  engine.run();
  const auto grown = fs->peek("f").value();
  EXPECT_NE(grown.data.get(), payload.get());
  EXPECT_EQ(grown.real_size(), 103u);
  EXPECT_EQ(payload->size(), 100u);  // the given buffer is never mutated
}

TEST(LocalFsTest, MissingFileErrors) {
  Engine engine;
  auto fs = make_fs(engine, 1);
  engine.spawn([](LocalFS& fs) -> Task<> {
    auto r = co_await fs.read_file("nope");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
    const Bytes one(1, 0);
    auto a = co_await fs.append("nope", one);
    EXPECT_FALSE(a.ok());
  }(*fs));
  engine.run();
  EXPECT_FALSE(fs->exists("nope"));
}

TEST(LocalFsTest, ScaleMultipliesModeledSize) {
  Engine engine;
  auto fs = make_fs(engine, 1);
  engine.spawn([](LocalFS& fs) -> Task<> {
    EXPECT_TRUE((co_await fs.write_file("f", shared_bytes(1024), /*scale=*/100.0)).ok());
  }(*fs));
  engine.run();
  EXPECT_EQ(fs->real_size("f").value(), 1024u);
  EXPECT_EQ(fs->modeled_size("f").value(), 102400u);
  EXPECT_EQ(fs->disk(0).bytes_written(), 102400u);
}

TEST(LocalFsTest, ScaledReadChargesModeledBytes) {
  Engine engine;
  auto fs = make_fs(engine, 1);
  double write_done = 0, read_done = 0;
  engine.spawn([](Engine& e, LocalFS& fs, double& w, double& r) -> Task<> {
    EXPECT_TRUE((co_await fs.write_file("f", shared_bytes(1'000'000), /*scale=*/50.0)).ok());
    w = e.now();
    EXPECT_TRUE((co_await fs.read_file("f")).ok());
    r = e.now();
  }(engine, *fs, write_done, read_done));
  engine.run();
  // 50 MB at 125 MB/s read = 0.4 s (+seek noise).
  EXPECT_NEAR(read_done - write_done, 50e6 / 125e6, 0.05);
}

TEST(LocalFsTest, AppendAccumulates) {
  Engine engine;
  auto fs = make_fs(engine, 1);
  engine.spawn([](LocalFS& fs) -> Task<> {
    EXPECT_TRUE((co_await fs.write_file("log", shared_bytes(10))).ok());
    co_await fs.append("log", make_bytes(5, 0x01));
    co_await fs.append("log", make_bytes(5, 0x02));
  }(*fs));
  engine.run();
  EXPECT_EQ(fs->real_size("log").value(), 20u);
  auto view = fs->peek("log").value();
  EXPECT_EQ((*view.data)[12], 0x01);
  EXPECT_EQ((*view.data)[17], 0x02);
}

TEST(LocalFsTest, AppendIsCopyOnWriteUnderReaders) {
  Engine engine;
  auto fs = make_fs(engine, 1);
  engine.spawn([](LocalFS& fs) -> Task<> {
    EXPECT_TRUE((co_await fs.write_file("f", shared_bytes(4, 0xaa))).ok());
    auto before = fs.peek("f").value();
    co_await fs.append("f", make_bytes(4, 0xbb));
    EXPECT_EQ(before.real_size(), 4u);  // old view untouched
    EXPECT_EQ(fs.real_size("f").value(), 8u);
  }(*fs));
  engine.run();
}

TEST(LocalFsTest, RoundRobinAcrossDisks) {
  Engine engine;
  auto fs = make_fs(engine, 2);
  engine.spawn([](LocalFS& fs) -> Task<> {
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE((co_await fs.write_file("f" + std::to_string(i), shared_bytes(1000))).ok());
    }
  }(*fs));
  engine.run();
  EXPECT_EQ(fs->disk(0).bytes_written(), 2000u);
  EXPECT_EQ(fs->disk(1).bytes_written(), 2000u);
}

TEST(LocalFsTest, TwoDisksDoubleThroughput) {
  auto run = [](int disks) {
    Engine engine;
    auto fs = make_fs(engine, disks);
    for (int i = 0; i < 4; ++i) {
      engine.spawn([](LocalFS& fs, int i) -> Task<> {
        EXPECT_TRUE((co_await fs.write_file("f" + std::to_string(i),
                               shared_bytes(1'000'000), 50.0)).ok());
      }(*fs, i));
    }
    return engine.run();
  };
  const double one = run(1);
  const double two = run(2);
  EXPECT_NEAR(one / two, 2.0, 0.25);
}

TEST(LocalFsTest, ReadRangeBoundsChecked) {
  Engine engine;
  auto fs = make_fs(engine, 1);
  engine.spawn([](LocalFS& fs) -> Task<> {
    EXPECT_TRUE((co_await fs.write_file("f", shared_bytes(100))).ok());
    auto ok = co_await fs.read_range("f", 50, 50);
    EXPECT_TRUE(ok.ok());
    auto bad = co_await fs.read_range("f", 80, 40);
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  }(*fs));
  engine.run();
}

TEST(LocalFsTest, RemoveRenameList) {
  Engine engine;
  auto fs = make_fs(engine, 1);
  engine.spawn([](LocalFS& fs) -> Task<> {
    EXPECT_TRUE((co_await fs.write_file("a/1", shared_bytes(1))).ok());
    EXPECT_TRUE((co_await fs.write_file("a/2", shared_bytes(1))).ok());
    EXPECT_TRUE((co_await fs.write_file("b/1", shared_bytes(1))).ok());
  }(*fs));
  engine.run();
  EXPECT_EQ(fs->list("a/").size(), 2u);
  EXPECT_TRUE(fs->rename("a/1", "c/1").ok());
  EXPECT_FALSE(fs->exists("a/1"));
  EXPECT_TRUE(fs->exists("c/1"));
  EXPECT_TRUE(fs->remove("c/1").ok());
  EXPECT_FALSE(fs->remove("c/1").ok());
  EXPECT_EQ(fs->list("").size(), 2u);
}

TEST(LocalFsTest, TotalModeledBytes) {
  Engine engine;
  auto fs = make_fs(engine, 1);
  engine.spawn([](LocalFS& fs) -> Task<> {
    EXPECT_TRUE((co_await fs.write_file("x", shared_bytes(100), 10.0)).ok());
    EXPECT_TRUE((co_await fs.write_file("y", shared_bytes(50), 2.0)).ok());
  }(*fs));
  engine.run();
  EXPECT_EQ(fs->total_modeled_bytes(), 1100u);
}

TEST(LocalFsTest, OverwriteKeepsDiskAssignment) {
  Engine engine;
  auto fs = make_fs(engine, 3);
  engine.spawn([](LocalFS& fs) -> Task<> {
    EXPECT_TRUE((co_await fs.write_file("f", shared_bytes(10))).ok());
    EXPECT_TRUE((co_await fs.write_file("g", shared_bytes(10))).ok());
    // Overwrite:
    EXPECT_TRUE((co_await fs.write_file("f", shared_bytes(20))).ok());
  }(*fs));
  engine.run();
  EXPECT_EQ(fs->real_size("f").value(), 20u);
  // Overwrite stayed on disk 0: 10 + 20 bytes there, 10 on disk 1.
  EXPECT_EQ(fs->disk(0).bytes_written(), 30u);
  EXPECT_EQ(fs->disk(1).bytes_written(), 10u);
  EXPECT_EQ(fs->disk(2).bytes_written(), 0u);
}

}  // namespace
}  // namespace hmr::storage

namespace hmr::storage {
namespace {

TEST(LocalFsTest, SequentialRangeReadsPayOneSeek) {
  Engine engine;
  auto fs = make_fs(engine, 1);
  engine.spawn([](LocalFS& fs) -> Task<> {
    EXPECT_TRUE((co_await fs.write_file("f", shared_bytes(1'000'000))).ok());
    // Consecutive ranged reads continue one scan.
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE((co_await fs.read_range("f", std::uint64_t(i) * 1000, 1000)).ok());
    }
  }(*fs));
  engine.run();
  // write seek + first-read seek; later reads ride readahead.
  EXPECT_LE(fs->disk(0).seeks(), 3u);
}

TEST(LocalFsTest, ReadaheadServesSmallReadsFromPageCache) {
  Engine engine;
  auto fs = make_fs(engine, 1);
  engine.spawn([](LocalFS& fs) -> Task<> {
    // 1 KB real at scale 4096 = 4 MB modeled: two readahead granules.
    EXPECT_TRUE((co_await fs.write_file("f", shared_bytes(1024), 4096.0)).ok());
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE((co_await fs.read_range("f", std::uint64_t(i) * 64, 64)).ok());
    }
  }(*fs));
  engine.run();
  // All 16 x 64-real-byte (256 KB modeled) reads fit in two 2 MiB
  // readahead granules; the disk sees ~4 MB, not 16 separate trips.
  EXPECT_LE(fs->disk(0).bytes_read(), 5u * 1024 * 1024);
  EXPECT_GE(fs->disk(0).bytes_read(), 4u * 1024 * 1024);
}

TEST(LocalFsTest, InterleavedScansKeepSeparateCursors) {
  Engine engine;
  auto fs = make_fs(engine, 1);
  engine.spawn([](LocalFS& fs) -> Task<> {
    co_await fs.write_file("f", shared_bytes(100'000));
    // Two interleaved sequential scans at different offsets.
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE((co_await fs.read_range("f", std::uint64_t(i) * 100, 100)).ok());
      EXPECT_TRUE((co_await fs.read_range("f", 50'000 + std::uint64_t(i) * 100, 100)).ok());
    }
  }(*fs));
  engine.run();
  // One seek per scan start (plus the write), not one per read.
  EXPECT_LE(fs->disk(0).seeks(), 4u);
}

}  // namespace
}  // namespace hmr::storage
