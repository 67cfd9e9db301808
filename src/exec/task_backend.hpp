// The task-DAG execution backend: ranks are fibers on a work-stealing pool.
//
// Where ThreadBackend gives every rank its own OS thread, TaskBackend gives
// every rank a ucontext fiber and multiplexes the fibers onto
// TaskScheduler's worker pool (as many workers as the host has cores, not
// as many as the program has ranks).  A rank runs until its recv() finds
// no matching message; the fiber then suspends — the wait becomes a
// *dynamic dependency edge* — and the worker picks up another runnable
// rank from its deque.  A send() that satisfies a suspended rank's wait
// re-readies that fiber on the sender's worker, so a producer-consumer
// chain of supernodes executes depth-first on one core with user-space
// context switches instead of condvar wakeups through the kernel
// scheduler.  This is what makes the backend win on irregular elimination
// trees (chains, wide flat forests) where ThreadBackend's p threads spend
// their lives parked at merge points — see bench/bench_taskdag.cpp.
//
// Ranks are exec::WallProcess objects (the accounting of ThreadBackend)
// and each fiber owns an exec::Mailbox whose overflow queue is guarded by
// state_mutex_.  The wake protocol is this backend's own: a receiver with
// no match parks its fiber (the `parked` flag), and a sender re-readies it
// through a seq_cst publish/probe handshake after its ring push.  An
// exception on one rank aborts the run (blocked peers unwind with a
// secondary DeadlockError) and run() rethrows the root cause.  Because
// the repo's message discipline keeps every in-flight (src, dst, tag)
// unique — and no solver code receives from kAnySource — any correct
// backend matches the same sends to the same recvs, so a solve on this
// backend is bit-identical to one on ThreadBackend or the simulator.
//
// Its topology is fully connected, as on the other wall-clock backends.
//
// Deadlock detection is exact rather than timeout-based: all messages
// come from the run's own fibers, so the moment every live fiber is
// suspended in recv with no match, no progress is possible and the run
// aborts with DeadlockError (this subsumes ThreadBackend's "every other
// rank already finished" rule).
//
// Tuning knobs (environment): SPARTS_TASK_WORKERS (see
// task_scheduler.hpp), SPARTS_TASK_STACK_KB (per-fiber stack, default
// 1024) and SPARTS_SPSC=off (disable the ring fast path).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/process.hpp"
#include "exec/task_scheduler.hpp"
#include "exec/waitgroup.hpp"
#include "obs/critical_path.hpp"

namespace sparts::exec {

class TaskBackend final : public Comm {
 public:
  struct Config {
    index_t nprocs = 1;
    /// Carried as a hint source only; this backend measures wall clock.
    CostModel cost{};
    /// Worker pool shape (the worker count).
    TaskScheduler::Config scheduler{};
    /// Per-fiber stack in KiB; 0 = $SPARTS_TASK_STACK_KB, else 1024.
    std::size_t stack_kb = 0;
  };

  explicit TaskBackend(const Config& config);
  ~TaskBackend() override;

  RunStats run(const std::function<void(Process&)>& spmd) override;
  index_t nprocs() const override { return config_.nprocs; }
  const CostModel& cost() const override { return config_.cost; }
  const Topology& topology() const override { return topology_; }

  /// Scheduler counters of the most recent run() (steals, parks, ...).
  SchedulerStats last_scheduler_stats() const { return sched_stats_; }

  /// The executed fiber-segment DAG of the most recent run(): one span
  /// per fiber segment (the work between two suspensions, measured wall
  /// clock, tagged with the worker lane and rank), sequential edges
  /// along each rank, and wake edges from the send that re-readied a
  /// blocked fiber — the dynamic dependency structure the run actually
  /// discovered.  Feed to obs::critical_path().  Survives a failed run
  /// (it is the postmortem input); cleared at the next run() start.
  /// Only valid after run() returns or throws (not concurrently).
  const obs::ExecutedProfile& last_executed_profile() const {
    return profile_;
  }

 private:
  struct Fiber;
  class FiberProcess;

  /// Job body: run `f` until it suspends or finishes, then file it.
  void resume(Fiber& f, const JobContext& ctx);
  /// Enqueue a resume of `f` on the scheduler.
  void schedule(Fiber& f, int affinity, bool low_priority = false);
  /// Entry point of every fiber (runs on its own stack).
  void fiber_main(Fiber& f);

  /// Under state_mutex_: re-ready `d` if it is parked on a wait that a
  /// message from `sender` with `tag` satisfies.
  void wake_if_waiting_locked(Fiber& d, const Fiber& sender, int tag);
  /// Abort the run: mark it dead and re-ready every parked fiber so it
  /// unwinds with DeadlockError.  Idempotent.
  void abort_all_locked(const std::string& reason);
  /// Deadlock check: every live fiber suspended with no match in sight.
  void check_stalled_locked();

  static void trampoline(unsigned hi, unsigned lo);
  /// Sanitizer bookkeeping on arrival inside a fiber.
  static void finish_switch_into_fiber(Fiber& f);
  /// Save the calling fiber's context and return to its worker.
  static void switch_out_of_fiber(Fiber& f);

  Config config_;
  Topology topology_;
  std::size_t stack_bytes_ = 0;

  // --- per-run state -------------------------------------------------
  std::unique_ptr<TaskScheduler> scheduler_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<std::exception_ptr> errors_;  ///< per rank, null on success
  /// Guards the mailboxes' overflow queues, fiber park/abort flags and
  /// the live/blocked counters.  Never held across a context switch.
  std::mutex state_mutex_;
  index_t live_ = 0;     ///< fibers still inside spmd()
  index_t blocked_ = 0;  ///< fibers parked in recv
  bool aborted_ = false;
  Latch* done_ = nullptr;
  std::chrono::steady_clock::time_point epoch_{};
  bool running_ = false;
  SchedulerStats sched_stats_{};

  /// Executed fiber-segment DAG (see last_executed_profile()).  Appends
  /// happen once per fiber resume under profile_mutex_ — two clock
  /// reads and a short critical section, small next to the context
  /// switch they bracket.
  obs::ExecutedProfile profile_;
  std::mutex profile_mutex_;
  std::atomic<std::int64_t> next_seg_{0};
};

}  // namespace sparts::exec
