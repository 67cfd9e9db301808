// The real multithreaded backend: each rank is a std::thread.
//
// Ranks are exec::WallProcess objects (wall_process.hpp: wall-clock stats,
// trace spans, comm metrics); messages move through one exec::Mailbox per
// rank (mailbox.hpp: per-source lock-free SPSC rings with a ring-hint
// bitmask, a locked overflow queue, and the pending-list (src, tag)
// match).  What this backend adds is the wake protocol:
//   * send() pushes into the destination's ring for this source and wakes
//     the receiver only if it advertised that it is parked; a full ring
//     (or rings off: SPARTS_SPSC=off, Config::use_spsc=false, or more than
//     kMaxRingRanks ranks) spills to the overflow queue under the
//     receiver's ParkingSlot::mutex(), so send() never blocks.
//   * recv() drains the rings into pending and matches there; with no
//     match it spins briefly (yield-based: on an oversubscribed host the
//     sender needs the core), then parks on its ParkingSlot with the
//     Dekker handshake of exec/parking.hpp, so no wakeup is lost.
//   * Per-source order is preserved (see the FIFO note in mailbox.hpp).
//
// Like the task and proc backends, it reports a fully connected
// topology: wall-clock messages have no modelled hop distance.
//
// Failure handling mirrors simpar::Machine: an exception on one rank
// aborts the run (waiting ranks unwind with a secondary DeadlockError) and
// run() rethrows the root cause by rank order.  A genuine deadlock — every
// peer finished, or no matching message within `recv_timeout` seconds —
// also raises DeadlockError rather than hanging the process.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "exec/mailbox.hpp"
#include "exec/parking.hpp"
#include "exec/process.hpp"

namespace sparts::exec {

class ThreadBackend final : public Comm {
 public:
  struct Config {
    index_t nprocs = 1;
    /// Carried only as a hint source (panel_flop etc.); the threaded
    /// backend never charges model time.
    CostModel cost{};
    /// A recv() with no match for this long is declared a deadlock.
    double recv_timeout = 60.0;
    /// Use the SPSC ring fast path (false = every message through the
    /// locked overflow queue; SPARTS_SPSC overrides it — bench_msgpath
    /// uses this for its before/after columns).
    bool use_spsc = true;
  };

  explicit ThreadBackend(const Config& config);

  RunStats run(const std::function<void(Process&)>& spmd) override;
  index_t nprocs() const override { return config_.nprocs; }
  const CostModel& cost() const override { return config_.cost; }
  const Topology& topology() const override { return topology_; }

 private:
  class RankProcess;

  /// A rank's mailbox and the parking slot its thread sleeps on.
  /// park.mutex() is the mailbox's overflow lock.
  struct Inbox {
    Inbox(index_t nprocs, bool rings) : mail(nprocs, rings) {}
    ParkingSlot<> park;
    Mailbox<> mail;
  };

  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  Config config_;
  Topology topology_;

  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::vector<std::exception_ptr> errors_;
  std::atomic<bool> aborted_{false};
  std::atomic<index_t> active_{0};  ///< ranks still inside spmd()
  std::chrono::steady_clock::time_point epoch_{};
  bool running_ = false;
};

}  // namespace sparts::exec
