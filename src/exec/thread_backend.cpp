#include "exec/thread_backend.hpp"

#include <algorithm>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "exec/wall_process.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sparts::exec {

namespace {

using Clock = std::chrono::steady_clock;

/// Yield-based spin budget before parking.  yield (not pause): rank
/// threads routinely oversubscribe the cores, so giving the scheduler the
/// core is what lets the producer actually produce.
constexpr int kSpinYields = 32;

/// Spinning pays only while a yield is likely to run the producer next:
/// with every rank on its own core, or with exactly two ranks (ping-pong
/// — the yield is a directed handoff even on one core).  Once many ranks
/// share few cores, each blocked rank's yields cycle through the *other*
/// spinners before the one runnable producer, multiplying context
/// switches per delivered message — park immediately instead.
int spin_budget(index_t nprocs) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return nprocs <= std::max<index_t>(2, static_cast<index_t>(hw))
             ? kSpinYields
             : 0;
}

/// Parked waiters re-check their rings at least this often — a liveness
/// backstop (the Dekker handshake should make every wakeup explicit) that
/// also bounds the cost of any missed edge to one slice.
constexpr auto kParkSlice = std::chrono::milliseconds(5);

}  // namespace

// ---------------------------------------------------------------------------
// RankProcess
// ---------------------------------------------------------------------------

// The per-thread Process: WallProcess accounting plus this backend's
// hooks.  All mutable state is owned by the rank's thread; run() reads the
// stats only after join(), so no locking is needed here.
class ThreadBackend::RankProcess final : public WallProcess<RankProcess> {
 public:
  RankProcess(ThreadBackend* backend, index_t rank)
      : WallProcess(rank, backend->config_.nprocs, backend->epoch_,
                    backend->config_.cost, backend->topology_),
        backend_(*backend),
        box_(*backend->inboxes_[static_cast<std::size_t>(rank)]) {}

 private:
  friend class WallProcess<RankProcess>;

  // take() and take_now() throw DeadlockError once the run is aborted,
  // take() also on timeout or when no live peer can still send a match;
  // wait() wakes early on delivery, peer exit or abort.
  void deliver(index_t dst, int tag, Payload&& payload);
  ReceivedMessage take(index_t src, int tag);
  bool take_now(index_t src, int tag, ReceivedMessage* out);
  void wait(double seconds);

  ThreadBackend& backend_;
  Inbox& box_;  ///< this rank's own mailbox
};

// ---------------------------------------------------------------------------
// ThreadBackend
// ---------------------------------------------------------------------------

ThreadBackend::ThreadBackend(const Config& config)
    : config_(config),
      topology_(TopologyKind::fully_connected, config.nprocs) {
  SPARTS_CHECK(config.nprocs >= 1, "need at least one processor");
  SPARTS_CHECK(config.recv_timeout > 0.0, "recv_timeout must be positive");
  config_.use_spsc = spsc_enabled(config.use_spsc);
}

void ThreadBackend::RankProcess::deliver(index_t dst, int tag,
                                        Payload&& payload) {
  Inbox& box = *backend_.inboxes_[static_cast<std::size_t>(dst)];
  obs::flight_note(static_cast<std::int32_t>(rank()), "send",
                   static_cast<std::int64_t>(payload.size()),
                   static_cast<std::int64_t>(dst));
  ReceivedMessage msg{rank(), tag, std::move(payload)};
  const bool metrics_on = obs::metrics_enabled();
  if (box.mail.try_push_ring(msg)) {
    // Producer half of the Dekker handshake (exec/parking.hpp): fence,
    // probe-and-claim the waiting flag, pinned notify.  Edge-triggered:
    // the first push of a burst claims the flag and pays the lock+notify
    // round trip; the rest of the burst stays on the pure ring path.
    const bool woke = box.park.notify_if_armed();
    if (metrics_on) {
      obs::metrics().counter("msgpath.ring_hit").add(1);
      if (woke) obs::metrics().counter("msgpath.wakes").add(1);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(box.park.mutex());
    box.mail.push_overflow_locked(std::move(msg));
  }
  if (metrics_on) obs::metrics().counter("msgpath.spill").add(1);
  // Each mailbox has exactly one owner, so one targeted wake suffices.
  // With the rings on it is edge-triggered like the ring path's: the push
  // happened under the mutex the consumer's pre-park drain holds, so a
  // consumer observed waiting is genuinely parked and a burst that
  // overflows the ring pays the futex wake once, not per message.
  bool woke = true;
  if (box.mail.has_rings()) {
    woke = box.park.notify_if_armed_locked_publish();
  } else {
    box.park.notify_owner();
  }
  if (woke && metrics_on) obs::metrics().counter("msgpath.wakes").add(1);
}

ReceivedMessage ThreadBackend::RankProcess::take(index_t src, int tag) {
  ReceivedMessage out;
  if (box_.mail.take(src, tag, &out)) return out;
  // Flight-note only blocking receives (the fast pop above stays silent):
  // when the run dies, the dump shows what each rank() was waiting on.
  obs::flight_note(static_cast<std::int32_t>(rank()), "recv_wait",
                   static_cast<std::int64_t>(src),
                   static_cast<std::int64_t>(tag));
  const bool metrics_on = obs::metrics_enabled();
  const double timeout = backend_.config_.recv_timeout;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout));

  const int spins = spin_budget(nprocs());
  int idle_rounds = 0;
  for (;;) {
    // Fast path: drain the rings and match from pending.
    if (box_.mail.drain_rings()) {
      if (box_.mail.take(src, tag, &out)) return out;
      idle_rounds = 0;  // traffic is flowing; keep consuming the burst
      continue;
    }
    if (backend_.aborted()) {
      throw run_aborted("thread", rank(), "waiting in recv");
    }
    if (idle_rounds < spins) {
      ++idle_rounds;
      if (metrics_on) obs::metrics().counter("msgpath.spin_iters").add(1);
      std::this_thread::yield();
      continue;
    }

    // Slow path: overflow queue, then park.
    std::unique_lock<std::mutex> lock(box_.park.mutex());
    box_.mail.drain_locked();
    if (box_.mail.take(src, tag, &out)) return out;
    box_.park.arm();
    if (box_.mail.drain_rings()) {  // consumer half of the Dekker handshake
      box_.park.disarm();
      if (box_.mail.take(src, tag, &out)) return out;
      idle_rounds = 0;
      continue;
    }
    if (backend_.aborted()) {
      box_.park.disarm();
      throw run_aborted("thread", rank(), "waiting in recv");
    }
    if (backend_.active_.load(std::memory_order_acquire) <= 1) {
      box_.park.disarm();
      obs::flight_note(static_cast<std::int32_t>(rank()), "recv_deadlock",
                       static_cast<std::int64_t>(src),
                       static_cast<std::int64_t>(tag));
      throw DeadlockError(
          "thread backend deadlock: rank() " + std::to_string(rank()) +
          " waits for src=" + std::to_string(src) +
          " tag=" + std::to_string(tag) +
          " but every other rank() already finished");
    }
    if (metrics_on) obs::metrics().counter("msgpath.parks").add(1);
    box_.park.park_until(lock, std::min(deadline, Clock::now() + kParkSlice));
    box_.park.disarm();
    box_.mail.drain_locked();
    if (box_.mail.take(src, tag, &out)) return out;
    if (Clock::now() >= deadline) {
      obs::flight_note(static_cast<std::int32_t>(rank()), "recv_timeout",
                       static_cast<std::int64_t>(src),
                       static_cast<std::int64_t>(tag));
      throw DeadlockError(
          "thread backend recv timed out after " +
          std::to_string(timeout) + "s: rank() " +
          std::to_string(rank()) + " waits for src=" + std::to_string(src) +
          " tag=" + std::to_string(tag) + " (likely deadlock)");
    }
    idle_rounds = 0;
  }
}

bool ThreadBackend::RankProcess::take_now(index_t src, int tag,
                                          ReceivedMessage* out) {
  box_.mail.drain_rings();
  if (backend_.aborted()) throw run_aborted("thread", rank(), "polling");
  // The overflow queue sees only spills when the rings are on: skip the
  // mutex whenever its lock-free count says it is empty.  A concurrent
  // spill we race past is caught by the caller's poll loop (the
  // producer's notify wakes the next wait).
  if (box_.mail.overflow_pending()) {
    std::lock_guard<std::mutex> lock(box_.park.mutex());
    box_.mail.drain_locked();
  }
  return box_.mail.take(src, tag, out);
}

void ThreadBackend::RankProcess::wait(double seconds) {
  // Lock-free early out: arrivals since the caller's last drain mean its
  // next try_recv will find traffic, so skip the mutex and the condvar.
  // (take_now drains rings and hints first, so a stale hint bit cannot
  // make this loop spin.)
  if (!backend_.aborted() && box_.mail.arrivals_pending()) return;
  std::unique_lock<std::mutex> lock(box_.park.mutex());
  if (backend_.aborted()) throw run_aborted("thread", rank(), "polling");
  // Every peer finished: nothing new can arrive, so return at once and
  // let the caller's retry budget expire instead of sleeping it out.
  if (backend_.active_.load(std::memory_order_acquire) <= 1) return;
  box_.park.arm();
  // Arrivals after the caller's last drain are exactly the "message
  // delivery" this wait wakes early for.  Peek, do not drain: this is not
  // a receive.
  if (!box_.mail.arrivals_pending()) {
    box_.park.park_for(lock, std::chrono::duration<double>(seconds));
  }
  box_.park.disarm();
  if (backend_.aborted()) throw run_aborted("thread", rank(), "polling");
}

RunStats ThreadBackend::run(const std::function<void(Process&)>& spmd) {
  SPARTS_CHECK(!running_, "ThreadBackend::run is not reentrant");
  running_ = true;
  aborted_.store(false, std::memory_order_release);
  inboxes_.clear();
  inboxes_.reserve(static_cast<std::size_t>(config_.nprocs));
  for (index_t r = 0; r < config_.nprocs; ++r) {
    inboxes_.push_back(
        std::make_unique<Inbox>(config_.nprocs, config_.use_spsc));
  }
  errors_.assign(static_cast<std::size_t>(config_.nprocs), nullptr);
  active_.store(config_.nprocs, std::memory_order_release);
  std::vector<ProcStats> stats(static_cast<std::size_t>(config_.nprocs));
  epoch_ = Clock::now();
  if (obs::Tracer::enabled()) obs::Tracer::instance().begin_run();

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(config_.nprocs));
  for (index_t r = 0; r < config_.nprocs; ++r) {
    threads.emplace_back([this, r, &spmd, &stats] {
      RankProcess proc(this, r);
      try {
        spmd(proc);
      } catch (...) {
        errors_[static_cast<std::size_t>(r)] = std::current_exception();
        aborted_.store(true, std::memory_order_release);
      }
      stats[static_cast<std::size_t>(r)] = proc.finish();
      active_.fetch_sub(1, std::memory_order_acq_rel);
      // Wake peers either to abort or to detect that this rank can no
      // longer send them anything.  The pinned notify_all cannot be
      // missed by an owner mid-predicate-check.
      for (auto& box : inboxes_) box->park.notify_all();
    });
  }
  for (auto& t : threads) t.join();
  running_ = false;

  // All threads are joined, so a crashed rank can never leave peers
  // running or mailboxes live past this rethrow.
  rethrow_root_cause(errors_);

  RunStats out;
  out.procs = std::move(stats);
  if (obs::Tracer::enabled()) {
    obs::Tracer::instance().end_run(out.parallel_time());
  }
  return out;
}

}  // namespace sparts::exec
