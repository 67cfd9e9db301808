// The per-rank accounting of the wall-clock backends (threads, tasks,
// proc), written once.
//
// WallProcess<Backend> implements the whole Process surface: it times
// every communication call, keeps the rank's ProcStats, and emits the
// `send`/`recv` trace spans and the `comm.*` metrics.  The backend-specific
// part is four hooks on the derived class, reached through CRTP (a static
// call, so the message path gains no indirect call):
//
//   void deliver(index_t dst, int tag, Payload&& payload);
//   ReceivedMessage take(index_t src, int tag);          // blocking
//   bool take_now(index_t src, int tag, ReceivedMessage* out);
//   void wait(double seconds);                           // poll_wait
//
// Stats discipline: wall time between communication calls is compute
// time; time inside take() and wait() is idle time; time inside deliver()
// is send time.  compute()/compute_at() only count flops — the caller's
// kernel already ran for real — and elapse() is a no-op.  now() is wall
// seconds since `epoch` (the start of the run, or of the socket phase).
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "exec/process.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sparts::exec {

/// Wall seconds from `from` to `to`.
inline double seconds_between(std::chrono::steady_clock::time_point from,
                              std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The secondary error of a rank that was `doing` something ("waiting in
/// recv", "polling") when another rank's failure aborted the run.
inline DeadlockError run_aborted(const char* backend, index_t rank,
                                 const char* doing) {
  return DeadlockError(std::string(backend) + " backend run aborted: rank " +
                       std::to_string(rank) + " was " + doing +
                       " when another rank failed");
}

template <typename Backend>
class WallProcess : public Process {
 public:
  using Clock = std::chrono::steady_clock;

  index_t rank() const final { return rank_; }
  index_t nprocs() const final { return nprocs_; }
  double now() const final { return since_epoch(Clock::now()); }

  void compute(double flops, FlopKind /*kind*/) final {
    SPARTS_CHECK(flops >= 0.0);
    stats_.flops += static_cast<nnz_t>(flops);
  }

  void compute_at(double flops, double /*seconds_per_flop*/) final {
    compute(flops, FlopKind::blas1);
  }

  void elapse(double seconds) final { SPARTS_CHECK(seconds >= 0.0); }

  void send(index_t dst, int tag, std::span<const std::byte> payload) final {
    // Copy lane: capture the payload into a fresh (arena) buffer.
    post(dst, tag, Payload(payload.begin(), payload.end()),
         /*copied_bytes=*/payload.size());
  }

  void send_owned(index_t dst, int tag, Payload&& payload) final {
    if (payload.size() < kZeroCopyThreshold) {
      send(dst, tag, {payload.data(), payload.size()});
      return;
    }
    // Zero-copy lane: the buffer itself travels to the receiver.
    post(dst, tag, std::move(payload), /*copied_bytes=*/0);
  }

  ReceivedMessage recv(index_t src, int tag) final {
    check_source(src);
    const Clock::time_point t0 = flush_busy();
    ReceivedMessage msg = backend().take(src, tag);
    const Clock::time_point t1 = close(stats_.idle_time, t0);
    count_received(msg);
    trace_span("recv", t0, t1, msg.payload.size(), msg.source);
    return msg;
  }

  bool try_recv(index_t src, int tag, ReceivedMessage* out) final {
    check_source(src);
    SPARTS_CHECK(out != nullptr);
    if (!backend().take_now(src, tag, out)) return false;
    count_received(*out);
    return true;
  }

  void poll_wait(double seconds) final {
    SPARTS_CHECK(seconds >= 0.0);
    const Clock::time_point t0 = flush_busy();
    backend().wait(seconds);
    close(stats_.idle_time, t0);
  }

  const CostModel& cost() const final { return cost_; }
  const Topology& topology() const final { return topology_; }

  /// Re-anchor the compute clock at the moment SPMD code actually starts
  /// (for a process constructed ahead of its first run, like a fiber's).
  void mark_started() { last_mark_ = Clock::now(); }

  /// Close the final busy segment and stamp the finishing time.
  ProcStats finish() {
    flush_busy();
    stats_.clock = now();
    return stats_;
  }

 protected:
  WallProcess(index_t rank, index_t nprocs, Clock::time_point epoch,
              const CostModel& cost, const Topology& topology)
      : rank_(rank),
        nprocs_(nprocs),
        epoch_(epoch),
        cost_(cost),
        topology_(topology),
        last_mark_(Clock::now()) {}

 private:
  double since_epoch(Clock::time_point t) const {
    return seconds_between(epoch_, t);
  }

  Backend& backend() { return static_cast<Backend&>(*this); }

  void check_source(index_t src) const {
    SPARTS_CHECK(src == kAnySource || (src >= 0 && src < nprocs_),
                 "recv source " << src << " out of range");
  }

  static nnz_t words(std::size_t bytes) {
    return static_cast<nnz_t>((bytes + sizeof(real_t) - 1) / sizeof(real_t));
  }

  void count_received(const ReceivedMessage& msg) {
    ++stats_.messages_received;
    stats_.words_received += words(msg.payload.size());
  }

  /// Shared tail of both send lanes: deliver + stats + tracing.
  void post(index_t dst, int tag, Payload payload, std::size_t copied_bytes) {
    SPARTS_CHECK(dst >= 0 && dst < nprocs_,
                 "send destination " << dst << " out of range");
    const std::size_t bytes = payload.size();
    const Clock::time_point t0 = flush_busy();
    backend().deliver(dst, tag, std::move(payload));
    const Clock::time_point t1 = close(stats_.send_time, t0);
    ++stats_.messages_sent;
    stats_.words_sent += words(bytes);
    stats_.bytes_copied += static_cast<nnz_t>(copied_bytes);
    trace_span("send", t0, t1, bytes, dst);
    if (obs::metrics_enabled()) {
      obs::metrics().histogram("comm.message_bytes")
          .observe(static_cast<std::int64_t>(bytes));
      obs::metrics()
          .counter(copied_bytes == 0 ? "comm.zero_copy_bytes"
                                     : "comm.copied_bytes")
          .add(static_cast<std::int64_t>(bytes));
    }
  }

  /// A comm-category span [t0, t1] on this rank's trace track.
  void trace_span(const char* name, Clock::time_point t0, Clock::time_point t1,
                  std::size_t bytes, index_t peer) const {
    if (!obs::Tracer::enabled()) return;
    auto& tracer = obs::Tracer::instance();
    const auto r32 = static_cast<std::int32_t>(rank_);
    tracer.record_local(r32, obs::EventKind::span_begin, obs::Category::comm,
                        name, since_epoch(t0), static_cast<std::int64_t>(bytes),
                        static_cast<std::int64_t>(peer));
    tracer.record_local(r32, obs::EventKind::span_end, obs::Category::comm,
                        name, since_epoch(t1));
  }

  /// Credit the wall time since `t0` to `bucket` (idle or send time) and
  /// restart the busy clock.
  Clock::time_point close(double& bucket, Clock::time_point t0) {
    const Clock::time_point t1 = Clock::now();
    bucket += seconds_between(t0, t1);
    last_mark_ = t1;
    return t1;
  }

  /// Credit wall time since the last communication call as compute time.
  Clock::time_point flush_busy() {
    const Clock::time_point t = Clock::now();
    stats_.compute_time += seconds_between(last_mark_, t);
    last_mark_ = t;
    return t;
  }

  index_t rank_;
  index_t nprocs_;
  Clock::time_point epoch_;
  const CostModel& cost_;
  const Topology& topology_;
  ProcStats stats_;
  Clock::time_point last_mark_;
};

}  // namespace sparts::exec
