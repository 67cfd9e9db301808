// The second-lowering guarantee (see parfact/factor_dag.hpp and
// partrisolve/solve_dag.hpp): factorization and the triangular solves are
// expressed once as supernode task DAGs, and every lowering of those
// graphs — the sequential loop, the SPMD ranks walking the topological
// schedule, and the work-stealing task scheduler — must produce
// bit-identical numbers.  These tests pin that contract:
//
//   * the coarse/forward DAG schedules are exactly 0..nsup-1 (all edges go
//     small -> large id), which is what makes walking the schedule
//     byte-identical to the historical `for s` loops;
//   * taskdag_factor == multifrontal_cholesky bit for bit (values and
//     stats), at every worker count;
//   * taskdag_solve == trisolve::full_solve bit for bit;
//   * parallel_solve(--backend tasks) == parallel_solve(--backend threads)
//     bit for bit on a corpus of matrices and processor counts;
//   * the --backend registry round-trips and rejects junk with a message
//     that enumerates every registered name.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "numeric/multifrontal.hpp"
#include "ordering/nested_dissection.hpp"
#include "parfact/factor_dag.hpp"
#include "partrisolve/solve_dag.hpp"
#include "solver/sparse_solver.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "symbolic/supernodes.hpp"
#include "symbolic/symbolic.hpp"
#include "trisolve/trisolve.hpp"

namespace sparts {
namespace {

sparse::SymmetricCsc make_family(const std::string& family) {
  Rng rng(271828);
  if (family == "grid2d") return sparse::grid2d(11, 9);
  if (family == "grid3d") return sparse::grid3d(5, 4, 4);
  if (family == "chain") return sparse::grid2d(60, 1);  // path: chain etree
  if (family == "random") return sparse::random_spd(80, 4, rng);
  if (family == "jittered") return sparse::jittered_mesh2d(9, 9, rng);
  if (family == "figure1") return sparse::figure1_matrix();
  throw Error("unknown family " + family);
}

sparse::SymmetricCsc ordered(const std::string& family) {
  sparse::SymmetricCsc a = make_family(family);
  return sparse::permute_symmetric(a, ordering::nested_dissection(a));
}

symbolic::SupernodePartition partition_of(const sparse::SymmetricCsc& a) {
  return symbolic::fundamental_supernodes(symbolic::symbolic_cholesky(a));
}

std::vector<real_t> all_blocks(const numeric::SupernodalFactor& f) {
  std::vector<real_t> v;
  for (index_t s = 0; s < f.num_supernodes(); ++s) {
    const auto b = f.block(s);
    v.insert(v.end(), b.begin(), b.end());
  }
  return v;
}

const char* kFamilies[] = {"grid2d", "grid3d", "chain", "random",
                           "jittered", "figure1"};

TEST(TaskDagLowering, CoarseAndForwardSchedulesAreAscending) {
  // Every edge of the supernode DAG (and of the forward-solve DAG) goes
  // from a smaller id to a larger one, so the deterministic
  // smallest-ready-id-first schedule is exactly 0, 1, ..., nsup-1.  The
  // SPMD loops rely on this to stay byte-identical to the historical
  // ascending-supernode loops.
  for (const char* family : kFamilies) {
    const sparse::SymmetricCsc a = ordered(family);
    const symbolic::SupernodePartition part = partition_of(a);
    const index_t nsup = part.num_supernodes();
    for (const exec::TaskGraph& g : {parfact::build_supernode_dag(part),
                                     partrisolve::build_forward_dag(part)}) {
      const std::vector<exec::TaskId> sched = g.topo_schedule();
      ASSERT_EQ(static_cast<index_t>(sched.size()), nsup) << family;
      for (index_t s = 0; s < nsup; ++s) {
        ASSERT_EQ(sched[static_cast<std::size_t>(s)], s) << family;
      }
    }
  }
}

TEST(TaskDagLowering, TaskFactorMatchesSequentialBitwise) {
  for (const char* family : kFamilies) {
    const sparse::SymmetricCsc a = ordered(family);
    const symbolic::SupernodePartition part = partition_of(a);
    numeric::FactorizationStats seq_stats;
    const numeric::SupernodalFactor seq =
        numeric::multifrontal_cholesky(a, part, &seq_stats);
    for (const int workers : {1, 2, 4, 8}) {
      parfact::TaskFactorReport report;
      const numeric::SupernodalFactor par = parfact::taskdag_factor(
          a, part, {.workers = workers}, &report);
      EXPECT_EQ(all_blocks(seq), all_blocks(par))
          << family << " workers=" << workers;
      // The stats are exact too: same flop count and the same peak front /
      // update-stack high-water marks (taskdag_factor samples them at the
      // same points the sequential loop does).
      EXPECT_EQ(report.stats.flops, seq_stats.flops) << family;
      EXPECT_EQ(report.stats.peak_front_entries, seq_stats.peak_front_entries)
          << family << " workers=" << workers;
      // The update-stack high-water mark depends on execution order (the
      // fine-grained schedule interleaves panel and update tasks
      // differently from the sequential postorder), so it is only pinned
      // to be live whenever the sequential run saw a non-empty stack.
      if (seq_stats.peak_stack_entries > 0) {
        EXPECT_GT(report.stats.peak_stack_entries, 0)
            << family << " workers=" << workers;
      }
      EXPECT_EQ(report.graph.tasks, report.scheduler.jobs_run)
          << family << " workers=" << workers;
    }
  }
}

TEST(TaskDagLowering, TaskSolveMatchesSequentialBitwise) {
  for (const char* family : kFamilies) {
    const sparse::SymmetricCsc a = ordered(family);
    const symbolic::SupernodePartition part = partition_of(a);
    const numeric::SupernodalFactor l =
        numeric::multifrontal_cholesky(a, part);
    for (const index_t m : {index_t{1}, index_t{3}}) {
      Rng rng(42);
      const std::vector<real_t> b = sparse::random_rhs(a.n(), m, rng);
      std::vector<real_t> x_seq = b;
      trisolve::full_solve(l, x_seq.data(), m);
      for (const int workers : {1, 2, 4, 8}) {
        std::vector<real_t> x_par = b;
        partrisolve::TaskSolveReport report;
        partrisolve::taskdag_solve(l, x_par.data(), m, {.workers = workers},
                                   &report);
        EXPECT_EQ(x_seq, x_par) << family << " m=" << m
                                << " workers=" << workers;
        EXPECT_EQ(report.forward.tasks + report.backward.tasks,
                  report.scheduler.jobs_run)
            << family;
      }
    }
  }
}

TEST(TaskDagLowering, ParallelSolveTasksMatchesThreadsBitwise) {
  // The full distributed pipeline: the tasks backend runs the identical
  // SPMD programs (rank fibers instead of rank threads), so x must match
  // the thread backend bit for bit.
  for (const char* family : {"grid2d", "grid3d", "random", "figure1"}) {
    const sparse::SymmetricCsc a = make_family(family);
    const index_t m = 2;
    Rng rng(7);
    const std::vector<real_t> b = sparse::random_rhs(a.n(), m, rng);
    for (const index_t p : {index_t{4}, index_t{8}}) {
      solver::Options threads_opt;
      threads_opt.backend = solver::ExecutionBackend::threads;
      solver::Options tasks_opt;
      tasks_opt.backend = solver::ExecutionBackend::tasks;
      const auto rt = solver::parallel_solve(a, b, m, p, threads_opt);
      const auto rk = solver::parallel_solve(a, b, m, p, tasks_opt);
      EXPECT_EQ(rt.x, rk.x) << family << " p=" << p;
      // DAG shapes are reported for both backends (the SPMD loops lower
      // the same graphs), and only the tasks backend reports scheduler
      // activity.
      EXPECT_EQ(rt.factor_dag.tasks, rk.factor_dag.tasks) << family;
      EXPECT_EQ(rt.forward_dag.edges, rk.forward_dag.edges) << family;
      EXPECT_GT(rk.factor_dag.tasks, 0) << family;
      EXPECT_GT(rk.task_scheduler.jobs_run, 0) << family;
      EXPECT_EQ(rt.task_scheduler.jobs_run, 0) << family;
    }
  }
}

TEST(TaskDagLowering, BackendRegistryRoundTripsAndRejectsJunk) {
  // The four bases; the audit and the fault stack are Options, not rows.
  EXPECT_EQ(solver::execution_backend_names(), "sim | threads | tasks | proc");
  for (const solver::BackendInfo& info : solver::execution_backends()) {
    EXPECT_EQ(solver::parse_execution_backend(info.name), info.backend);
    EXPECT_EQ(solver::execution_backend_info(info.backend).name,
              std::string(info.name));
  }
  for (const char* junk :
       {"bogus", "checked", "checked-threads", "faulty", "faulty-threads"}) {
    try {
      solver::parse_execution_backend(junk);
      FAIL() << "expected InvalidArgument for " << junk;
    } catch (const InvalidArgument& e) {
      // The error enumerates every registered spelling.
      const std::string what = e.what();
      for (const solver::BackendInfo& info : solver::execution_backends()) {
        EXPECT_NE(what.find(info.name), std::string::npos) << info.name;
      }
    }
  }
  // Stacks parallel_solve cannot build fail before any phase runs.
  const sparse::SymmetricCsc a = sparse::grid2d(4, 4);
  const std::vector<real_t> b(static_cast<std::size_t>(a.n()), 1.0);
  solver::Options audit_and_faults;
  audit_and_faults.check = true;
  audit_and_faults.fault_plan = exec::FaultPlan{};
  EXPECT_THROW(solver::parallel_solve(a, b, 1, 2, audit_and_faults),
               InvalidArgument);
  solver::Options audited_proc;
  audited_proc.backend = solver::ExecutionBackend::proc;
  audited_proc.check = true;
  EXPECT_THROW(solver::parallel_solve(a, b, 1, 2, audited_proc),
               InvalidArgument);
}

}  // namespace
}  // namespace sparts
