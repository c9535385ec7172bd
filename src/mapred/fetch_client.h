// Shuffle-fetch recovery (DESIGN.md §6.1), shared by the vanilla HTTP
// copier and the RDMA copier (§III-B), which speak the same
// request/response protocol. The paper assumes a healthy fabric and
// defers fault handling to §VI; this is that extension.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "mapred/runtime.h"
#include "net/message.h"

namespace hmr::mapred {

// A response, or the watchdog of request `timer_id` firing.
struct FetchEvent {
  std::optional<net::Message> msg;
  std::uint64_t timer_id = 0;
};

// Where a channel's responses and watchdog expiries land (a vanilla
// connection, an RDMA map stream). Shared-owned so a pending watchdog
// cannot dangle; sized so delivery never parks.
struct FetchInbox {
  explicit FetchInbox(sim::Engine& engine) : events(engine, 64) {}
  sim::Channel<FetchEvent> events;
  std::uint64_t timer_seq = 0;  // id of the latest request's watchdog
};

// A decoded response. A match with `verify` set is charged
// `verify_modeled` bytes of CRC CPU and dropped as malformed unless
// CRC-32C(body) == crc (when integrity checking is on).
struct FetchFrame {
  enum class Kind { kMalformed, kStale, kMatch };
  Kind kind = Kind::kMalformed;
  bool verify = false;
  std::span<const std::uint8_t> body{};
  std::uint32_t crc = 0;
  std::uint64_t verify_modeled = 0;
};

// The serving side of the job's injected shuffle faults (sim/fault.h):
// a dead tracker stops answering, a faulty one drops or stalls
// individual responses (the stall is served here). False when the
// request must go unanswered; copiers recover through FetchClient.
sim::Task<bool> serve_fault_fate(JobRuntime& job, int host_id);

// What an engine supplies to FetchClient.
class FetchTransport {
 public:
  // Host id of the tracker the channel reaches: set by connect() or
  // relocate().
  int server = -1;

  // Before every attempt: readies the channel to the map's server and
  // returns its inbox, or nullptr to abandon the fetch.
  virtual sim::Task<std::shared_ptr<FetchInbox>> connect() = 0;
  virtual sim::Task<> send() = 0;
  // Classifies a response against the request in flight.
  virtual FetchFrame decode(const net::Message& msg) const = 0;
  virtual void release() {}  // after the wait, before any recovery step
  // Points later attempts at `server`: before the first fetch, and after
  // a blacklist moved the map's output. A transport whose connect()
  // resolves the server itself has nothing to do here.
  virtual sim::Task<> relocate(int /*server*/) { co_return; }

 protected:
  ~FetchTransport() = default;
};

// The one implementation of a fetch: blacklisted-server pre-check,
// counted send, watchdog, a wait that drops malformed and stale frames,
// the CRC-32C verify under engine.parallel, and the timeout ladder.
class FetchClient {
 public:
  FetchClient(JobRuntime& job, Host& host, int map_id, Rng& rng)
      : job_(job), host_(host), map_id_(map_id), rng_(rng) {}

  // Once, first: re-executes the map if its tracker is blacklisted, then
  // relocates the transport to it.
  sim::Task<> start(FetchTransport& transport);
  // One request, retried until a verified match arrives; nullopt only
  // when the transport abandoned the fetch.
  sim::Task<std::optional<net::Message>> fetch(FetchTransport& transport);
  // Set once a blacklist moved the map: later bytes are re-fetches.
  bool refetching() const { return refetching_; }

 private:
  JobRuntime& job_;
  Host& host_;
  int map_id_;
  Rng& rng_;  // backoff jitter
  bool refetching_ = false;
};

}  // namespace hmr::mapred
