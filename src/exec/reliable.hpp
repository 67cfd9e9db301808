// The reliability envelope: at-least-once delivery with receiver-side
// deduplication over any exec backend.
//
// ReliableBackend is a Comm decorator (like CheckedBackend and
// FaultyBackend).  Every data send keeps its user tag but carries a small
// wire trailer with a per-(dst, tag) sequence number and is buffered for
// retransmission; every recv becomes a polling loop built on
// Process::try_recv / poll_wait that
//
//   * discards duplicates (same (src, tag, seq) seen before),
//   * after `timeout` seconds without the expected message sends a NACK
//     to the source (all peers for a wildcard recv) on the reserved
//     control tag (exec::kCtrlTag), asking it to retransmit everything it
//     sent on that (dst, tag) edge, and
//   * retries with capped exponential backoff (each wait doubles, up to
//     8 timeouts) up to `max_retry` times before throwing TimeoutError
//     with a per-rank progress report attached — a deadline-based abort
//     instead of a hang.  The cap matters: a NACK for a frame the sender
//     has not produced yet is a no-op, so when the sender is itself
//     blocked upstream (a cascaded delay) pure exponential backoff would
//     burn nearly the whole retry budget on those useless early rounds
//     and leave one or two rare late rounds that a lossy network can
//     swallow whole.
//
// Deliveries are not acknowledged: NACK-driven retransmission plus the
// FIN linger are enough for correctness, so a sender keeps every frame
// of the run buffered (bounded by one phase's traffic) instead of paying
// a control message per delivery.
//
// When the SPMD body returns, the rank broadcasts FIN on the control tag
// and lingers, servicing NACKs for messages it sent late in its life,
// until every peer's FIN arrives.  The linger is bounded by the full
// retry horizon plus one timeout, and each serviced NACK resets its
// clock — a peer actively requesting retransmits is proof this rank is
// still needed.  This closes the classic tail window where a dropped
// final message could never be retransmitted because its sender had
// already exited.
//
// The envelope changes simulated timings (polling advances the virtual
// clock), so the solver applies it only under a fault plan and on the
// process backend; the plain bases keep the paper's timings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/process.hpp"

namespace sparts::exec {

/// Tuning knobs of the envelope.  `from_env()` applies the
/// SPARTS_TIMEOUT_MS and SPARTS_MAX_RETRY environment variables on top of
/// whatever defaults the caller picked (see docs/robustness.md).
struct ReliableConfig {
  /// Seconds of backend time a recv waits before its first NACK.
  double timeout = 0.05;
  /// NACKs sent before a recv gives up with TimeoutError.
  int max_retry = 20;

  /// Defaults scaled for simulated seconds (message latencies ~1e-5 s
  /// under the T3D cost model).
  static ReliableConfig for_simulated();
  /// Defaults scaled for wall-clock seconds on the thread backend.
  static ReliableConfig for_threads();
  /// Defaults scaled for a real wire (the socket backend): the timeout
  /// is derived from the measured per-peer heartbeat RTT
  /// (SocketBackend::measured_rtt), clamped to [2 ms, 0.5 s].  Override
  /// order, lowest to highest precedence: this derived default, then
  /// SPARTS_TIMEOUT_MS / SPARTS_MAX_RETRY via from_env(), then any
  /// explicit field assignment by the caller (docs/robustness.md).
  static ReliableConfig for_wire(double rtt_seconds);
  /// Apply SPARTS_TIMEOUT_MS / SPARTS_MAX_RETRY overrides and return self.
  ReliableConfig& from_env();
};

/// Envelope activity, aggregated over all ranks of the last run.
struct ReliableStats {
  std::int64_t data_sends = 0;
  std::int64_t retransmits = 0;
  std::int64_t dup_discarded = 0;
  std::int64_t nacks = 0;
  std::int64_t timeouts = 0;
};

/// What one rank had achieved when the run ended (normally or not);
/// rendered into TimeoutError messages and solver::SolveError reports.
struct RankProgress {
  std::int64_t sends = 0;
  std::int64_t recvs = 0;
  std::int64_t retransmits = 0;
  std::int64_t dup_discarded = 0;
  bool finished = false;     ///< SPMD body ran to completion
  /// Last exec::note_progress() annotation, kept unformatted: the text
  /// and item (-1 for none) it was called with.
  const char* note_what = nullptr;
  index_t note_item = -1;
  std::string last_wait;     ///< "src=.. tag=.." if the rank died waiting

  /// The annotation as text ("fw supernode 12"); empty if none was made.
  std::string note() const;
};

class ReliableBackend final : public Comm {
 public:
  ReliableBackend(std::unique_ptr<Comm> inner, ReliableConfig config);
  ~ReliableBackend() override;

  RunStats run(const std::function<void(Process&)>& spmd) override;
  index_t nprocs() const override { return inner_->nprocs(); }
  const CostModel& cost() const override { return inner_->cost(); }
  const Topology& topology() const override { return inner_->topology(); }
  bool distributed() const override { return inner_->distributed(); }

  const ReliableConfig& config() const { return config_; }
  /// Envelope totals of the most recent run().
  const ReliableStats& stats() const { return stats_; }
  /// Per-rank progress of the most recent run().
  const std::vector<RankProgress>& progress() const { return progress_; }
  /// Multi-line per-rank progress report (one line per rank).
  std::string progress_report() const;

  class ReliableProcess;

 private:
  friend class ReliableProcess;

  void merge(index_t rank, const ReliableStats& stats,
             const RankProgress& prog);

  std::unique_ptr<Comm> inner_;
  ReliableConfig config_;
  ReliableStats stats_;
  std::vector<RankProgress> progress_;
  std::mutex mutex_;
};

/// Attach a short progress annotation to the calling rank if it runs
/// under the reliability envelope; a no-op on every other backend.
/// Solver code calls this so a timeout or crash report can say *where*
/// each rank was: ("fw supernode", 12) renders as "fw supernode 12".  The
/// pair is only stored; it is formatted when a report is built, so the
/// per-supernode call allocates nothing.  `what` is stored as a pointer
/// and read later, so it must be a string literal: taking it as an array
/// reference makes a `std::string::c_str()` argument fail to compile.
/// `item` < 0 renders `what` alone.
template <std::size_t N>
void note_progress(Process& proc, const char (&what)[N], index_t item = -1) {
  proc.set_progress_note(what, item);
}

}  // namespace sparts::exec
