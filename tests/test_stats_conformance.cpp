// Backend stats conformance: the same deterministic SPMD program —
// point-to-point ring exchange, collectives, compute — must produce
// identical per-rank *event counts* (messages/words sent and received,
// flops) on the simulated backend, the threaded backend, and both
// wrapped in the checked decorator.  Times differ by design (virtual
// cost-model seconds vs wall clock); counts may not.  The wall-clock legs
// run at p = 4 (ring mailboxes) and at p = 130, past exec::kMaxRingRanks,
// where every message takes the mailbox's ring-less overflow path.
// Registered under the CTest label `obs`.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "exec/checked_backend.hpp"
#include "exec/collectives.hpp"
#include "exec/mailbox.hpp"
#include "exec/task_backend.hpp"
#include "exec/thread_backend.hpp"
#include "simpar/machine.hpp"

namespace sparts {
namespace {

constexpr index_t kProcs = 4;
/// Past the ring limit: no ring lanes, every message on the overflow queue.
constexpr index_t kRinglessProcs = 130;
static_assert(kRinglessProcs > exec::kMaxRingRanks);
constexpr index_t kSizes[] = {kProcs, kRinglessProcs};

void conformance_program(exec::Process& proc) {
  const index_t p = proc.nprocs();
  const index_t r = proc.rank();

  proc.compute(100.0 * static_cast<double>(r + 1));

  // Ring exchange with rank-dependent payload sizes.
  std::vector<real_t> ring(static_cast<std::size_t>(r + 1) * 4,
                           static_cast<double>(r));
  proc.send_values<real_t>((r + 1) % p, 10, ring);
  (void)proc.recv_values<real_t>((r + p - 1) % p, 10);

  // Collectives: every wrapper must feed stats identically on both
  // backends (they are layered on the same send/recv, but the checked
  // decorator and the tracer hook them too).  They need a power-of-two
  // group, so at p = 130 the first 128 ranks take part.
  const exec::Group g{
      0, static_cast<index_t>(std::bit_floor(static_cast<std::uint64_t>(p)))};
  if (r < g.count) {
    std::vector<real_t> bcast;
    if (r == 0) bcast.assign(32, 1.0);
    exec::broadcast(proc, g, bcast, 100);
    std::vector<real_t> acc(16, static_cast<double>(r));
    exec::reduce_sum(proc, g, acc, 200);
    exec::barrier(proc, g, 300);
  }

  proc.compute(50.0);
}

/// The count fields of one rank (everything except times).
using RankCounts = std::tuple<nnz_t, nnz_t, nnz_t, nnz_t, nnz_t>;

std::vector<RankCounts> counts_of(const exec::RunStats& rs) {
  std::vector<RankCounts> out;
  for (const auto& p : rs.procs) {
    out.emplace_back(p.flops, p.messages_sent, p.words_sent,
                     p.messages_received, p.words_received);
  }
  return out;
}

void expect_same_counts(const exec::RunStats& expected,
                        const exec::RunStats& actual, const char* what) {
  ASSERT_EQ(expected.procs.size(), actual.procs.size()) << what;
  const auto want = counts_of(expected);
  const auto got = counts_of(actual);
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(want[r], got[r]) << what << ": rank " << r
                               << " count mismatch (flops, msgs_sent, "
                                  "words_sent, msgs_recv, words_recv)";
  }
}

exec::RunStats run_simulated(index_t p = kProcs) {
  simpar::Machine::Config cfg;
  cfg.nprocs = p;
  // The default hypercube needs a power-of-two rank count.
  if (p == kRinglessProcs) cfg.topology = exec::TopologyKind::fully_connected;
  simpar::Machine m(cfg);
  return m.run(conformance_program);
}

TEST(StatsConformance, ProgramIsClosedOnSimulator) {
  for (const index_t p : kSizes) {
    SCOPED_TRACE(p);
    const exec::RunStats rs = run_simulated(p);
    ASSERT_EQ(rs.procs.size(), static_cast<std::size_t>(p));
    EXPECT_GT(rs.total_messages(), 0);
    // Closed run: every send was matched by a recv somewhere.
    EXPECT_EQ(rs.total_messages_received(), rs.total_messages());
    for (const auto& proc : rs.procs) {
      EXPECT_GT(proc.flops, 0);
      EXPECT_GT(proc.messages_sent, 0);
      EXPECT_GT(proc.messages_received, 0);
    }
  }
}

TEST(StatsConformance, ThreadBackendMatchesSimulator) {
  for (const index_t p : kSizes) {
    SCOPED_TRACE(p);
    const exec::RunStats sim = run_simulated(p);

    exec::ThreadBackend::Config cfg;
    cfg.nprocs = p;
    cfg.recv_timeout = 30.0;
    exec::ThreadBackend threads(cfg);
    const exec::RunStats thr = threads.run(conformance_program);

    expect_same_counts(sim, thr, "threads vs sim");
    EXPECT_EQ(thr.total_messages_received(), thr.total_messages());
  }
}

TEST(StatsConformance, TaskBackendMatchesSimulator) {
  // The fiber-per-rank task backend runs the identical SPMD program on a
  // work-stealing worker pool; per-rank event counts must still match the
  // simulator exactly, at any worker count (including fewer workers than
  // ranks — the whole point of the backend).
  for (const index_t p : kSizes) {
    SCOPED_TRACE(p);
    const exec::RunStats sim = run_simulated(p);
    for (const int workers : {1, 2, 8}) {
      exec::TaskBackend::Config cfg;
      cfg.nprocs = p;
      cfg.scheduler.workers = workers;
      // 130 fibers: small stacks keep the run light (the program is
      // shallow).
      if (p == kRinglessProcs) cfg.stack_kb = 64;
      exec::TaskBackend tasks(cfg);
      const exec::RunStats rs = tasks.run(conformance_program);
      expect_same_counts(sim, rs, "tasks vs sim");
      EXPECT_EQ(rs.total_messages_received(), rs.total_messages());
      EXPECT_EQ(tasks.last_scheduler_stats().workers, workers);
    }
  }
}

TEST(StatsConformance, CheckedDecoratorIsTransparentOnBothBackends) {
  const exec::RunStats sim = run_simulated();

  {
    simpar::Machine::Config cfg;
    cfg.nprocs = kProcs;
    simpar::Machine inner(cfg);
    exec::CheckedBackend checked(inner);
    const exec::RunStats rs = checked.run(conformance_program);
    expect_same_counts(sim, rs, "checked(sim) vs sim");
    EXPECT_TRUE(checked.report().clean()) << checked.report().summary();
  }
  {
    exec::ThreadBackend::Config cfg;
    cfg.nprocs = kProcs;
    cfg.recv_timeout = 30.0;
    exec::ThreadBackend inner(cfg);
    exec::CheckedBackend checked(inner);
    const exec::RunStats rs = checked.run(conformance_program);
    expect_same_counts(sim, rs, "checked(threads) vs sim");
    EXPECT_TRUE(checked.report().clean()) << checked.report().summary();
  }
}

}  // namespace
}  // namespace sparts
