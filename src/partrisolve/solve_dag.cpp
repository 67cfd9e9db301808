#include "partrisolve/solve_dag.hpp"

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "common/checks.hpp"
#include "common/timer.hpp"
#include "dense/kernels.hpp"

namespace sparts::partrisolve {

namespace {

/// One source supernode's contiguous run of below rows owned by one target
/// supernode: below-row indices [lo, hi) of `source` land in the pivot
/// range of the target.
struct ContribSegment {
  index_t source;
  index_t lo;
  index_t hi;
};

/// incoming[s] = the segments targeting s, ascending by source (the order
/// the forward bodies must apply them in for bit-identical sums).
std::vector<std::vector<ContribSegment>> contribution_segments(
    const symbolic::SupernodePartition& part) {
  const index_t nsup = part.num_supernodes();
  const index_t n = part.n();
  std::vector<index_t> owner(static_cast<std::size_t>(n), -1);
  for (index_t s = 0; s < nsup; ++s) {
    const index_t j0 = part.first_col[static_cast<std::size_t>(s)];
    for (index_t k = 0; k < part.width(s); ++k) {
      owner[static_cast<std::size_t>(j0 + k)] = s;
    }
  }
  std::vector<std::vector<ContribSegment>> incoming(
      static_cast<std::size_t>(nsup));
  for (index_t c = 0; c < nsup; ++c) {
    const auto rows = part.row_indices(c);
    const index_t t = part.width(c);
    const index_t below = part.height(c) - t;
    // Rows ascend, so owners are non-decreasing: one segment per target.
    index_t k = 0;
    while (k < below) {
      const index_t target =
          owner[static_cast<std::size_t>(rows[static_cast<std::size_t>(t + k)])];
      SPARTS_DCHECK(target > c);
      index_t end = k + 1;
      while (end < below &&
             owner[static_cast<std::size_t>(
                 rows[static_cast<std::size_t>(t + end)])] == target) {
        ++end;
      }
      incoming[static_cast<std::size_t>(target)].push_back(
          ContribSegment{c, k, end});
      k = end;
    }
  }
  return incoming;
}

exec::TaskGraph build_solve_dag(const symbolic::SupernodePartition& part,
                                exec::TaskKind kind) {
  exec::TaskGraph g;
  const index_t nsup = part.num_supernodes();
  const bool forward = kind == exec::TaskKind::fwd_solve;
  for (index_t s = 0; s < nsup; ++s) {
    const index_t t = part.width(s);
    const index_t below = part.height(s) - t;
    exec::TaskNode node;
    node.label = (forward ? "fw:" : "bw:") + std::to_string(s);
    node.kind = kind;
    // Per-right-hand-side flop estimate: triangle solve + rectangle gemm.
    node.cost = static_cast<double>(dense::trsm_panel_flops(t, 1) +
                                    dense::gemm_flops(below, 1, t));
    node.item = s;
    g.add_task(std::move(node));
  }
  const auto incoming = contribution_segments(part);
  for (index_t s = 0; s < nsup; ++s) {
    for (const ContribSegment& seg : incoming[static_cast<std::size_t>(s)]) {
      if (forward) {
        g.add_edge(seg.source, s);
      } else {
        g.add_edge(s, seg.source);
      }
    }
  }
  return g;
}

}  // namespace

exec::TaskGraph build_forward_dag(const symbolic::SupernodePartition& part) {
  return build_solve_dag(part, exec::TaskKind::fwd_solve);
}

exec::TaskGraph build_backward_dag(const symbolic::SupernodePartition& part) {
  return build_solve_dag(part, exec::TaskKind::bwd_solve);
}

void taskdag_solve(const numeric::SupernodalFactor& l, real_t* b, index_t m,
                   const exec::TaskScheduler::Config& workers,
                   TaskSolveReport* report) {
  const auto& part = l.partition();
  const index_t nsup = part.num_supernodes();
  const index_t n = part.n();
  const auto incoming = contribution_segments(part);

  // contrib[c] = c's rectangle product (below x m column-major), buffered
  // instead of scattered; readers[c] counts the targets yet to apply it.
  std::vector<std::vector<real_t>> contrib(static_cast<std::size_t>(nsup));
  std::vector<std::atomic<index_t>> readers(static_cast<std::size_t>(nsup));
  for (index_t s = 0; s < nsup; ++s) {
    for (const ContribSegment& seg : incoming[static_cast<std::size_t>(s)]) {
      readers[static_cast<std::size_t>(seg.source)].fetch_add(
          1, std::memory_order_relaxed);
    }
  }
  std::atomic<nnz_t> flops{0};

  exec::TaskGraph fw = build_forward_dag(part);
  for (exec::TaskId id = 0; id < fw.num_tasks(); ++id) {
    const index_t s = fw.node(id).item;
    fw.node(id).body = [&, s] {
      // Apply buffered subtractions destined to my rows, ascending source
      // order — the sequential scatter sequence for every entry.
      for (const ContribSegment& seg :
           incoming[static_cast<std::size_t>(s)]) {
        const auto srows = part.row_indices(seg.source);
        const index_t st = part.width(seg.source);
        const index_t sbelow = part.height(seg.source) - st;
        const auto& tv = contrib[static_cast<std::size_t>(seg.source)];
        for (index_t c = 0; c < m; ++c) {
          real_t* bc = b + c * n;
          const real_t* tc =
              tv.data() + static_cast<std::size_t>(c) * sbelow;
          for (index_t i = seg.lo; i < seg.hi; ++i) {
            bc[srows[static_cast<std::size_t>(st + i)]] -= tc[i];
          }
        }
        if (readers[static_cast<std::size_t>(seg.source)].fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          contrib[static_cast<std::size_t>(seg.source)] = {};
        }
      }

      const index_t t = part.width(s);
      flops.fetch_add(
          trisolve::forward_supernode_product(
              l.block(s).data(), t, part.height(s) - t,
              b + part.first_col[static_cast<std::size_t>(s)], n, m,
              contrib[static_cast<std::size_t>(s)]),
          std::memory_order_relaxed);
    };
  }

  exec::TaskGraph bw = build_backward_dag(part);
  for (exec::TaskId id = 0; id < bw.num_tasks(); ++id) {
    const index_t s = bw.node(id).item;
    bw.node(id).body = [&, s] {
      // Reads only rows my predecessors finalized, writes only my own.
      const index_t t = part.width(s);
      std::vector<real_t> temp;
      flops.fetch_add(
          trisolve::backward_supernode(
              l.block(s).data(), t,
              part.row_indices(s).subspan(static_cast<std::size_t>(t)), b, n,
              part.first_col[static_cast<std::size_t>(s)], m, temp),
          std::memory_order_relaxed);
    };
  }

  WallTimer timer;
  exec::TaskScheduler scheduler(workers);
  scheduler.run_graph(fw);
  scheduler.run_graph(bw);
  const double seconds = timer.seconds();

  if (report != nullptr) {
    report->forward = fw.analyze();
    report->backward = bw.analyze();
    report->scheduler = scheduler.stats();
    report->stats.flops = flops.load(std::memory_order_relaxed);
    report->seconds = seconds;
  }
}

}  // namespace sparts::partrisolve
