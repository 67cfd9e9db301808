// The task-DAG execution core: WaitGroup, TaskGraph, the work-stealing
// scheduler, and the fiber-based TaskBackend behind the Comm contract.
//
// The load-bearing assertions are the bit-identical ones: the TaskBackend
// must solve the paper's problems with exactly the floating-point results
// of the thread backend (same SPMD lowering, same deterministic message
// matching), and the shared-memory task lowerings of factorization /
// trisolve must reproduce their sequential counterparts bit for bit
// (tests live in the parfact/partrisolve suites; here we pin the engine).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <vector>

#include "exec/collectives.hpp"
#include "exec/task_backend.hpp"
#include "exec/task_scheduler.hpp"
#include "exec/taskgraph.hpp"
#include "exec/thread_backend.hpp"
#include "exec/waitgroup.hpp"

namespace sparts {
namespace {

TEST(WaitGroup, CountsDownAndIsReusable) {
  exec::WaitGroup wg;
  wg.add(3);
  EXPECT_EQ(wg.pending(), 3);
  wg.done();
  wg.done();
  wg.done();
  wg.wait();  // returns immediately at zero
  wg.add(1);  // reusable after reaching zero
  wg.done();
  wg.wait();
}

TEST(WaitGroup, ReleasesWaiterFromAnotherThread) {
  exec::WaitGroup wg(2);
  exec::TaskScheduler sched({.workers = 2});
  sched.submit([&](const exec::JobContext&) { wg.done(); });
  sched.submit([&](const exec::JobContext&) { wg.done(); });
  wg.wait();
  EXPECT_EQ(wg.pending(), 0);
}

TEST(TaskGraph, TopoScheduleIsDeterministicAndComplete) {
  exec::TaskGraph g;
  const auto a = g.add_task("a");
  const auto b = g.add_task("b");
  const auto c = g.add_task("c");
  const auto d = g.add_task("d");
  g.add_edge(a, c);
  g.add_edge(b, c);
  g.add_edge(c, d);
  g.add_edge(a, c);  // duplicate collapses
  EXPECT_EQ(g.num_edges(), 3);
  const auto order = g.topo_schedule();
  EXPECT_EQ(order, (std::vector<exec::TaskId>{a, b, c, d}));
}

TEST(TaskGraph, AnalyzeComputesCriticalPathAndWidth) {
  // Diamond: a -> {b, c} -> d, unit costs.
  exec::TaskGraph g;
  const auto a = g.add_task("a", {}, exec::TaskKind::panel_factor);
  const auto b = g.add_task("b", {}, exec::TaskKind::update);
  const auto c = g.add_task("c", {}, exec::TaskKind::update);
  const auto d = g.add_task("d", {}, exec::TaskKind::panel_factor);
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  const exec::GraphStats st = g.analyze();
  EXPECT_EQ(st.tasks, 4);
  EXPECT_EQ(st.edges, 4);
  EXPECT_DOUBLE_EQ(st.total_cost, 4.0);
  EXPECT_DOUBLE_EQ(st.critical_path_cost, 3.0);  // a -> b -> d
  EXPECT_EQ(st.depth, 3);
  EXPECT_EQ(st.max_width, 2);
  EXPECT_NEAR(st.avg_parallelism, 4.0 / 3.0, 1e-12);
  EXPECT_EQ(st.count_of(exec::TaskKind::panel_factor), 2);
  EXPECT_EQ(st.count_of(exec::TaskKind::update), 2);
}

TEST(TaskGraph, CycleIsRejected) {
  exec::TaskGraph g;
  const auto a = g.add_task("a");
  const auto b = g.add_task("b");
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_THROW(g.topo_schedule(), Error);
}

TEST(TaskScheduler, RunGraphRespectsDependencies) {
  // A fork-join over 64 tasks: every task stamps a sequence number; each
  // task's stamp must come after all of its predecessors' stamps.
  exec::TaskGraph g;
  constexpr int kN = 64;
  std::vector<std::atomic<int>> stamp(kN);
  std::atomic<int> next{0};
  std::vector<exec::TaskId> ids;
  for (int i = 0; i < kN; ++i) {
    ids.push_back(g.add_task("t", [&stamp, &next, i] {
      stamp[static_cast<std::size_t>(i)].store(next.fetch_add(1) + 1);
    }));
  }
  // Binary-tree dependencies: child i depends on parent (i-1)/2.
  for (int i = 1; i < kN; ++i) g.add_edge(ids[(i - 1) / 2], ids[i]);
  exec::TaskScheduler sched({.workers = 4});
  sched.run_graph(g);
  for (int i = 1; i < kN; ++i) {
    EXPECT_GT(stamp[static_cast<std::size_t>(i)].load(),
              stamp[static_cast<std::size_t>((i - 1) / 2)].load())
        << "task " << i << " ran before its predecessor";
  }
  EXPECT_EQ(next.load(), kN);
  EXPECT_GE(sched.stats().jobs_run, static_cast<std::int64_t>(kN));
}

TEST(TaskScheduler, RunGraphPropagatesTaskError) {
  exec::TaskGraph g;
  const auto a = g.add_task("boom", [] { throw Error("task failed"); });
  std::atomic<bool> ran{false};
  const auto b = g.add_task("after", [&ran] { ran.store(true); });
  g.add_edge(a, b);
  exec::TaskScheduler sched({.workers = 2});
  EXPECT_THROW(sched.run_graph(g), Error);
  EXPECT_FALSE(ran.load()) << "successor body ran after cancellation";
}

TEST(TaskScheduler, SeededRandomDagShapesDrainOnAllWorkerCounts) {
  // The stress test of the release protocol: random DAGs (random fan-out,
  // random edge density, diamonds and chains alike) must drain exactly
  // once per task on 1..16 workers.  The seed makes failures replayable.
  std::mt19937 rng(20260809);
  for (const int workers : {1, 2, 3, 4, 8, 16}) {
    exec::TaskScheduler sched({.workers = workers});
    for (int round = 0; round < 4; ++round) {
      const int n = 1 + static_cast<int>(rng() % 200);
      exec::TaskGraph g;
      std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
      std::vector<exec::TaskId> ids;
      for (int i = 0; i < n; ++i) {
        ids.push_back(g.add_task(
            "t", [&runs, i] { runs[static_cast<std::size_t>(i)]++; }));
      }
      // Edges only point forward: any random subset stays acyclic.
      for (int i = 1; i < n; ++i) {
        const int fanin = static_cast<int>(rng() % 4);
        for (int e = 0; e < fanin; ++e) {
          g.add_edge(ids[static_cast<std::size_t>(rng() %
                                                  static_cast<unsigned>(i))],
                     ids[static_cast<std::size_t>(i)]);
        }
      }
      sched.run_graph(g);
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
            << "workers=" << workers << " round=" << round << " task=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// TaskBackend: the Comm contract on fibers
// ---------------------------------------------------------------------------

exec::TaskBackend make_tasks(index_t p, int workers = 2) {
  exec::TaskBackend::Config cfg;
  cfg.nprocs = p;
  cfg.scheduler.workers = workers;
  return exec::TaskBackend(cfg);
}

TEST(TaskBackend, RingExchangeCompletesOnFewerWorkersThanRanks) {
  constexpr index_t p = 8;
  exec::TaskBackend backend = make_tasks(p, /*workers=*/2);
  std::vector<index_t> seen(static_cast<std::size_t>(p), -1);
  const exec::RunStats rs = backend.run([&](exec::Process& proc) {
    const index_t r = proc.rank();
    const index_t next = (r + 1) % p;
    proc.send_value<index_t>(next, /*tag=*/7, r);
    seen[static_cast<std::size_t>(r)] =
        proc.recv_value<index_t>((r + p - 1) % p, /*tag=*/7);
  });
  for (index_t r = 0; r < p; ++r) {
    EXPECT_EQ(seen[static_cast<std::size_t>(r)], (r + p - 1) % p);
  }
  EXPECT_EQ(rs.total_messages(), p);
  EXPECT_EQ(rs.total_messages_received(), p);
}

TEST(TaskBackend, CollectivesMatchOnSingleWorker) {
  // One worker, eight fibers: every rank blocks at the broadcast /
  // reduction trees, so progress relies entirely on fiber switching.
  constexpr index_t p = 8;
  exec::TaskBackend backend = make_tasks(p, /*workers=*/1);
  std::vector<real_t> sums(static_cast<std::size_t>(p), 0.0);
  backend.run([&](exec::Process& proc) {
    const exec::Group world{0, proc.nprocs(), 1};
    std::vector<real_t> v{static_cast<real_t>(proc.rank() + 1)};
    exec::reduce_sum_to(proc, world, 0, v, /*tag_base=*/100);
    exec::broadcast_from(proc, world, 0, v, /*tag_base=*/200);
    sums[static_cast<std::size_t>(proc.rank())] = v[0];
  });
  for (index_t r = 0; r < p; ++r) {
    EXPECT_DOUBLE_EQ(sums[static_cast<std::size_t>(r)],
                     static_cast<real_t>(p * (p + 1) / 2));
  }
}

TEST(TaskBackend, AnySourceFanInDrainsEveryMessage) {
  constexpr index_t p = 6;
  exec::TaskBackend backend = make_tasks(p, /*workers=*/3);
  std::atomic<index_t> total{0};
  backend.run([&](exec::Process& proc) {
    if (proc.rank() == 0) {
      for (index_t i = 0; i < p - 1; ++i) {
        total += proc.recv_value<index_t>(exec::kAnySource, /*tag=*/3);
      }
    } else {
      proc.send_value<index_t>(0, /*tag=*/3, proc.rank());
    }
  });
  EXPECT_EQ(total.load(), p * (p - 1) / 2);
}

TEST(TaskBackend, DeadlockIsDetectedWithoutTimeout) {
  // Two ranks each waiting for the other: the exact stall detector must
  // fire (all live fibers blocked), not a timeout.
  exec::TaskBackend backend = make_tasks(2, /*workers=*/2);
  EXPECT_THROW(backend.run([&](exec::Process& proc) {
                 proc.recv(1 - proc.rank(), /*tag=*/1);
               }),
               DeadlockError);
}

TEST(TaskBackend, WaitingOnFinishedPeersIsDeadlock) {
  // Rank 1 exits immediately; rank 0 waits forever on it.
  exec::TaskBackend backend = make_tasks(2, /*workers=*/1);
  EXPECT_THROW(backend.run([&](exec::Process& proc) {
                 if (proc.rank() == 0) proc.recv(1, /*tag=*/9);
               }),
               DeadlockError);
}

TEST(TaskBackend, RankErrorAbortsBlockedPeersAndSurfacesRootCause) {
  constexpr index_t p = 4;
  exec::TaskBackend backend = make_tasks(p, /*workers=*/2);
  try {
    backend.run([&](exec::Process& proc) {
      if (proc.rank() == 2) throw NumericalError("pivot broke");
      proc.recv((proc.rank() + 1) % p, /*tag=*/5);
    });
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("pivot broke"), std::string::npos);
  }
}

TEST(TaskBackend, TryRecvPollsWithoutBlocking) {
  exec::TaskBackend backend = make_tasks(2, /*workers=*/2);
  backend.run([&](exec::Process& proc) {
    if (proc.rank() == 0) {
      exec::ReceivedMessage msg;
      while (!proc.try_recv(1, /*tag=*/4, &msg)) proc.poll_wait(1e-4);
      EXPECT_EQ(msg.source, 1);
    } else {
      proc.send_value<int>(0, /*tag=*/4, 42);
    }
  });
}

TEST(TaskBackend, PollWaitLastsItsDurationWhileAPeerIsBusy) {
  // poll_wait sleeps its `seconds` of backend time: the reliability
  // envelope counts each wait as its full duration.  Two workers, so the
  // busy peer (computing, never sending) does not hold up the waiter.
  exec::TaskBackend backend = make_tasks(2, /*workers=*/2);
  double waited = 0.0;
  backend.run([&](exec::Process& proc) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto elapsed = [&t0] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    if (proc.rank() == 0) {
      proc.poll_wait(0.02);
      waited = elapsed();
    } else {
      while (elapsed() < 0.2) {
      }
    }
  });
  EXPECT_GE(waited, 0.02);
}

TEST(TaskBackend, StatsCountTheSameTrafficAsThreads) {
  // Same program on ThreadBackend and TaskBackend: event counts (flops,
  // messages, words) must agree exactly; only the clocks may differ.
  constexpr index_t p = 4;
  auto program = [p](exec::Process& proc) {
    const index_t r = proc.rank();
    proc.compute(1000.0, exec::FlopKind::blas3);
    std::vector<real_t> payload(static_cast<std::size_t>(r + 1), 1.0);
    proc.send_values<real_t>((r + 1) % p, /*tag=*/11, payload);
    proc.recv((r + p - 1) % p, /*tag=*/11);
  };
  exec::ThreadBackend::Config tcfg;
  tcfg.nprocs = p;
  exec::ThreadBackend threads(tcfg);
  const exec::RunStats a = threads.run(program);
  exec::TaskBackend backend = make_tasks(p, /*workers=*/2);
  const exec::RunStats b = backend.run(program);
  ASSERT_EQ(a.procs.size(), b.procs.size());
  for (std::size_t r = 0; r < a.procs.size(); ++r) {
    EXPECT_EQ(a.procs[r].flops, b.procs[r].flops) << r;
    EXPECT_EQ(a.procs[r].messages_sent, b.procs[r].messages_sent) << r;
    EXPECT_EQ(a.procs[r].words_sent, b.procs[r].words_sent) << r;
    EXPECT_EQ(a.procs[r].messages_received, b.procs[r].messages_received)
        << r;
  }
}

TEST(TaskBackend, ManyRanksOnEveryWorkerCount) {
  // Seeded all-to-all-ish traffic across 1..16 workers: the scheduler
  // shape must never change the delivered data.
  for (const int workers : {1, 2, 3, 5, 8, 16}) {
    constexpr index_t p = 12;
    exec::TaskBackend backend = make_tasks(p, workers);
    std::vector<index_t> sum(static_cast<std::size_t>(p), 0);
    backend.run([&](exec::Process& proc) {
      const index_t r = proc.rank();
      for (index_t d = 0; d < p; ++d) {
        if (d != r) proc.send_value<index_t>(d, static_cast<int>(100 + r), r);
      }
      index_t acc = 0;
      for (index_t s = 0; s < p; ++s) {
        if (s != r) acc += proc.recv_value<index_t>(s, static_cast<int>(100 + s));
      }
      sum[static_cast<std::size_t>(r)] = acc;
    });
    for (index_t r = 0; r < p; ++r) {
      EXPECT_EQ(sum[static_cast<std::size_t>(r)], p * (p - 1) / 2 - r)
          << "workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace sparts
