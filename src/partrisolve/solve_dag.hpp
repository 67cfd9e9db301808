// The triangular solves expressed as explicit supernode task DAGs.
//
// Forward elimination: supernode c's rectangle update subtracts into
// right-hand-side rows owned by ancestor supernodes, so the DAG has an
// edge c -> s for every ancestor s that owns one of c's below rows.
// Backward substitution reads those same rows after their owners finalized
// them, so its DAG is the forward DAG with every edge reversed.
//
// taskdag_solve executes both phases on a work-stealing TaskScheduler with
// trisolve's per-supernode kernels and is bit-identical to
// trisolve::full_solve:
//   * forward — a supernode's task runs the kernel's trsm + product half
//     and buffers the product (temp = L21 * X1) instead of scattering it;
//     each *target* supernode applies the buffered subtractions destined
//     to its rows in ascending source order before its own triangular
//     solve.  For any single
//     right-hand-side entry this replays the sequential subtraction
//     sequence exactly (sources ascending, one touch per source), and the
//     sequence of values every trsm reads is therefore unchanged;
//   * backward — a task runs trisolve::backward_supernode, which reads
//     only rows its ancestors have finalized and writes only its own, so
//     the arithmetic is the sequential one under any topological order.
#pragma once

#include "exec/task_scheduler.hpp"
#include "exec/taskgraph.hpp"
#include "numeric/supernodal_factor.hpp"
#include "trisolve/trisolve.hpp"

namespace sparts::partrisolve {

/// Forward-elimination DAG: task id == supernode id (kind fwd_solve),
/// edge c -> s when c's rectangle update touches rows of s.
exec::TaskGraph build_forward_dag(const symbolic::SupernodePartition& part);

/// Backward-substitution DAG: the forward DAG reversed (kind bwd_solve).
exec::TaskGraph build_backward_dag(const symbolic::SupernodePartition& part);

/// What taskdag_solve measured.
struct TaskSolveReport {
  exec::GraphStats forward;        ///< shape of the forward DAG
  exec::GraphStats backward;       ///< shape of the backward DAG
  exec::SchedulerStats scheduler;  ///< steals / parks over both phases
  trisolve::SolveStats stats;      ///< flop count over both phases
  double seconds = 0.0;            ///< wall time of both graph executions
};

/// Shared-memory task-DAG solve of L L^T X = B in place (`b` is n x m
/// column-major, ld = n), bit-identical to trisolve::full_solve.
void taskdag_solve(const numeric::SupernodalFactor& l, real_t* b, index_t m,
                   const exec::TaskScheduler::Config& workers = {},
                   TaskSolveReport* report = nullptr);

}  // namespace sparts::partrisolve
