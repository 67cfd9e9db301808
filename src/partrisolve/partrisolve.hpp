// The paper's contribution: parallel pipelined forward elimination and
// backward substitution for supernodal sparse triangular systems on a
// distributed-memory machine (paper §2).
//
// Structure of the computation:
//   * The supernodal elimination tree is mapped subtree-to-subcube: each
//     supernode is owned by a group (subcube) of processors.
//   * Each maximal single-rank subtree (mapping::single_rank_subtrees) is
//     one step of its processor's sweep: a working window of its members'
//     columns followed by the root's below rows, solved with trisolve's
//     per-supernode kernels.  Forward Y on its columns is the sequential
//     Y bit for bit, and at p = 1 the whole solve is trisolve's.
//   * A supernode shared by q processors is distributed 1-D row-wise
//     block-cyclic with block size b and processed with the pipelined
//     algorithm of Figs. 3-4: solved sub-vectors of size b x m circulate
//     around the group's ring while each processor updates its own block
//     rows (column-priority) or block rows in row order (row-priority).
//   * Between a shared supernode and its children (shared supernodes or
//     subtree roots), right-hand-side fragments are routed point-to-point
//     from each fragment's owner to the owner of the corresponding
//     position in the other's distribution.
//
// Forward elimination walks the tree bottom-up producing Y (L Y = B);
// backward substitution walks top-down producing X (L^T X = Y).
#pragma once

#include <atomic>
#include <functional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/supernodal_factor.hpp"
#include "partrisolve/dist_factor.hpp"
#include "exec/process.hpp"
#include "exec/taskgraph.hpp"

namespace sparts::partrisolve {

/// Pipelining variant for the shared-supernode kernels.
enum class Pipelining {
  column_priority,  ///< finish a column's updates before the next (Fig 3c)
  row_priority,     ///< finish a row before moving to the next (Fig 3b)
  fan_out,          ///< no pipeline: broadcast each solved block to the
                    ///< whole group (the naive alternative the paper's
                    ///< ring pipeline improves on; ablation baseline)
};

struct Options {
  index_t block_size = 8;  ///< b of the block-cyclic mapping
  Pipelining pipelining = Pipelining::column_priority;
};

/// Result of one distributed solve phase.
struct PhaseReport {
  exec::RunStats stats;
  /// Shape of the supernode DAG the phase walked (forward: child ->
  /// ancestor contribution edges; backward: the same edges reversed).
  /// See solve_dag.hpp — the task backend executes the same graphs.
  exec::GraphStats graph;
  double time() const { return stats.parallel_time(); }
};

namespace detail {
/// One rank's share of the solve plan (defined in partrisolve.cpp).
struct RankPlan;
}  // namespace detail

/// Distributed triangular solver bound to a factor and a processor mapping.
///
/// The factor's numeric blocks are shared read-only across the virtual
/// processors (the factor is already distributed conformally after
/// factorization + redistribution; see redist/).  Right-hand-side data
/// flows through explicit simulated messages.
///
/// Everything that depends only on the factor structure, the mapping and
/// the block size is built once, by the constructor, into a per-rank solve
/// plan: one step per shared supernode and per single-rank subtree in
/// sweep order, the factor views, pivot gather/scatter rows, the subtree
/// windows, the child <-> parent hand-off maps and packet routing, and
/// each fragment's place in the rank's scratch.  forward() and backward()
/// only walk that plan, so one trisolver amortizes it over any number of
/// solves.  Sweeps on one trisolver must not overlap (checked).
class DistributedTrisolver {
 public:
  DistributedTrisolver(const numeric::SupernodalFactor& factor,
                       const mapping::SubcubeMapping& map, Options options);

  /// Strict-distribution variant: L values are read from each rank's
  /// private packed storage (`local_values`, e.g. produced by the 2-D ->
  /// 1-D redistribution) instead of the shared factor.  `factor` still
  /// provides the symbolic structure.  `local_values` must outlive the
  /// solver, match options.block_size and keep its blocks in place (the
  /// plan points at them); their values may change between solves, as the
  /// fused redistribution prologue does during forward().
  DistributedTrisolver(const numeric::SupernodalFactor& factor,
                       const DistributedFactor* local_values,
                       const mapping::SubcubeMapping& map, Options options);

  ~DistributedTrisolver();

  /// Solve L Y = B on `machine` (machine.nprocs() must equal map.p).
  /// `b_in` is n x m column-major; `y_out` receives Y.
  PhaseReport forward(exec::Comm& machine, std::span<const real_t> b_in,
                      std::span<real_t> y_out, index_t m) const;

  /// Solve L^T X = Y; `y_in` from forward(), `x_out` receives X.
  PhaseReport backward(exec::Comm& machine, std::span<const real_t> y_in,
                       std::span<real_t> x_out, index_t m) const;

  /// Convenience: forward then backward on the same machine.
  /// Returns {forward, backward} reports.
  std::pair<PhaseReport, PhaseReport> solve(exec::Comm& machine,
                                            std::span<const real_t> b_in,
                                            std::span<real_t> x_out,
                                            index_t m) const;

  const Options& options() const { return options_; }

  /// First tag value strictly above every tag forward()/backward() can
  /// emit (contribution, copy, and token tags are all derived from global
  /// block ids below the total pivot-block count).  Traffic injected into
  /// a solve phase from outside the solver — e.g. the fused 2-D -> 1-D
  /// redistribution — must use tags >= this so it cannot collide with the
  /// solver's own messages.
  int tag_limit() const;

  /// Install a per-supernode prologue that forward() invokes at each
  /// rank's first (and only) touch of a shared supernode s — after the
  /// rank is known to belong to s's group, before any factor block of s is
  /// read.  It does not fire for the supernodes of single-rank subtrees,
  /// whose factor blocks are in place before the sweep.
  /// This is the hook for pipeline fusion: the solver-level driver uses
  /// it to run redist::redistribute_supernode inside the forward sweep,
  /// so the 2-D -> 1-D conversion overlaps the solve instead of running
  /// as a separate barrier phase.  The prologue's messages must use tags
  /// >= tag_limit().
  void set_forward_prologue(
      std::function<void(exec::Process&, index_t)> prologue) {
    forward_prologue_ = std::move(prologue);
  }

 private:
  /// Run one sweep's SPMD body on `machine`, holding the per-rank
  /// scratch (sized for m right-hand sides) for its duration.
  exec::RunStats run_sweep(exec::Comm& machine, index_t m,
                           const std::function<void(exec::Process&)>& spmd)
      const;

  const numeric::SupernodalFactor& factor_;
  const mapping::SubcubeMapping& map_;
  Options options_;
  /// Prefix sums of pivot-block counts: block_base_[s] is the global id
  /// of supernode s's first pivot block.  Token tags are derived from
  /// global block ids so every in-flight token has a unique tag.
  std::vector<index_t> block_base_;
  /// The solve plan, per world rank: built once by the constructor and
  /// only walked by the sweeps.
  std::vector<detail::RankPlan> plan_;
  exec::GraphStats forward_graph_;
  exec::GraphStats backward_graph_;
  /// Per-rank scratch holding every fragment and subtree window of the
  /// rank's plan side by side, recycled across solves.  A sweep holds it
  /// exclusively; see run_sweep().
  mutable std::vector<std::vector<real_t>> scratch_;
  mutable std::atomic<bool> sweeping_{false};
  /// Optional fusion hook; see set_forward_prologue().
  std::function<void(exec::Process&, index_t)> forward_prologue_;
};

}  // namespace sparts::partrisolve
