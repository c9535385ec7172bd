#include "mapred/fetch_client.h"

#include "common/crc32.h"
#include "mapred/integrity.h"
#include "sim/fault.h"
#include "sim/trace.h"

namespace hmr::mapred {
namespace {

// Posts request `timer_id`'s expiry after `timeout`; holding the inbox
// pins its owner.
sim::Task<> fetch_watchdog(sim::Engine& engine,
                           std::shared_ptr<FetchInbox> inbox, double timeout,
                           std::uint64_t timer_id) {
  co_await engine.delay(timeout);
  (void)inbox->events.try_send(FetchEvent{std::nullopt, timer_id});
}

}  // namespace

sim::Task<bool> serve_fault_fate(JobRuntime& job, int host_id) {
  if (job.spec.faults == nullptr) co_return true;
  sim::FaultPlan& faults = *job.spec.faults;
  if (faults.tracker_dead(host_id, job.engine.now())) {
    job.metric.fault_dropped_requests.add();
    co_return false;
  }
  double stall_seconds = 0;
  switch (faults.response_fate(host_id, &stall_seconds)) {
    case sim::FaultPlan::ResponseFate::kDrop:
      job.metric.fault_dropped_responses.add();
      co_return false;
    case sim::FaultPlan::ResponseFate::kStall:
      job.metric.fault_stalled_responses.add();
      co_await job.engine.delay(stall_seconds);
      break;
    case sim::FaultPlan::ResponseFate::kDeliver:
      break;
  }
  co_return true;
}

sim::Task<> FetchClient::start(FetchTransport& transport) {
  // The blacklisted-server pre-check: returns at once for a healthy one.
  co_await job_.ensure_fetchable(map_id_);
  co_await transport.relocate(job_.maps.at(map_id_).ran_on);
}

sim::Task<std::optional<net::Message>> FetchClient::fetch(
    FetchTransport& transport) {
  int attempt = 0;
  while (true) {
    const std::shared_ptr<FetchInbox> inbox = co_await transport.connect();
    if (inbox == nullptr) co_return std::nullopt;
    const int server = transport.server;
    job_.metric.fetch_requests.add();
    co_await transport.send();
    const std::uint64_t timer_id = ++inbox->timer_seq;
    if (job_.retry.fetch_timeout > 0) {
      job_.engine.spawn(fetch_watchdog(job_.engine, inbox,
                                       job_.retry.fetch_timeout, timer_id));
    }
    std::optional<net::Message> response;
    while (true) {
      auto event = co_await inbox->events.recv();
      HMR_CHECK(event.has_value());  // the events channel is never closed
      if (!event->msg.has_value()) {
        if (event->timer_id == timer_id) break;  // our watchdog fired
        continue;  // the watchdog of an already-answered request
      }
      // Malformed and stale frames are dropped; the watchdog covers the
      // re-fetch.
      const FetchFrame frame = transport.decode(*event->msg);
      if (frame.kind == FetchFrame::Kind::kMalformed) {
        job_.metric.malformed_msgs.add();
        continue;
      }
      if (frame.kind == FetchFrame::Kind::kStale) {
        job_.metric.fetch_stale_dropped.add();
        continue;
      }
      if (frame.verify && job_.integrity.enabled) {
        // End-to-end check against the spill-time checksum: a frame that
        // rotted in flight is dropped like a malformed one.
        co_await charge_verify_cpu(job_, host_, frame.verify_modeled);
        std::uint32_t got_crc = 0;
        co_await job_.engine.parallel(
            host_.id(), [&](sim::ParallelEffects& effects) {
              got_crc = crc32c(frame.body);
              effects.instant(host_.name(), "crc",
                              "verify_crc_m" + std::to_string(map_id_));
            });
        if (got_crc != frame.crc) {
          job_.metric.malformed_msgs.add();
          continue;
        }
      }
      response = std::move(event->msg);
      break;
    }
    transport.release();
    if (response.has_value()) {
      job_.report_fetch_success(server);
      co_return response;
    }

    // Timed out: relocate to a re-executed (byte-identical) map output
    // once the server is blacklisted, else back off and retry in place.
    ++attempt;
    ++job_.result.fetch_timeouts;
    job_.metric.fetch_timeouts.add();
    if (auto* tracer = job_.engine.tracer()) {
      tracer->instant(host_.name(), "fault",
                      "fetch_timeout map_" + std::to_string(map_id_));
    }
    HMR_CHECK_MSG(attempt <= job_.retry.max_retries,
                  "fetch of map " + std::to_string(map_id_) + " exceeded " +
                      kFetchMaxRetries);
    job_.report_fetch_failure(server);
    if (job_.tracker_blacklisted(server)) {
      co_await job_.ensure_fetchable(map_id_);
      const int relocated = job_.maps.at(map_id_).ran_on;
      if (relocated != server) {
        co_await transport.relocate(relocated);
        refetching_ = true;
      }
    } else {
      co_await job_.engine.delay(job_.retry.backoff(attempt, rng_));
    }
    ++job_.result.fetch_retries;
    job_.metric.fetch_retries.add();
  }
}

}  // namespace hmr::mapred
