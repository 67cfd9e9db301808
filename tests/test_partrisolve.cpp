// The distributed triangular solvers must reproduce the sequential solves
// exactly (up to roundoff) for every combination of processor count, block
// size, pipelining variant, right-hand-side count, and matrix family.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "dense/cholesky.hpp"
#include "exec/task_backend.hpp"
#include "exec/thread_backend.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/multifrontal.hpp"
#include "ordering/nested_dissection.hpp"
#include "partrisolve/dense_trisolve.hpp"
#include "partrisolve/dist_factor.hpp"
#include "partrisolve/partrisolve.hpp"
#include "partrisolve/solve_dag.hpp"
#include "solver/sparse_solver.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "symbolic/supernodes.hpp"
#include "symbolic/symbolic.hpp"
#include "trisolve/trisolve.hpp"
#include "simpar/machine.hpp"

namespace sparts {
namespace {

using partrisolve::DistributedFactor;
using partrisolve::DistributedTrisolver;
using partrisolve::Options;
using partrisolve::Pipelining;

struct Problem {
  sparse::SymmetricCsc a;
  numeric::SupernodalFactor l;
};

Problem make_grid_problem(index_t k, bool three_d = false) {
  sparse::SymmetricCsc a0 =
      three_d ? sparse::grid3d(k, k, k) : sparse::grid2d(k, k);
  const sparse::Permutation perm =
      three_d ? ordering::nested_dissection_grid3d(k, k, k)
              : ordering::nested_dissection_grid2d(k, k);
  sparse::SymmetricCsc a = sparse::permute_symmetric(a0, perm);
  numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a);
  return Problem{std::move(a), std::move(l)};
}

simpar::Machine make_machine(index_t p) {
  simpar::Machine::Config cfg;
  cfg.nprocs = p;
  cfg.cost = exec::CostModel::t3d();
  cfg.topology = exec::TopologyKind::hypercube;
  return simpar::Machine(cfg);
}

// (p, block size, nrhs, pipelining variant)
using Combo = std::tuple<index_t, index_t, index_t, Pipelining>;

class ParTrisolveTest : public ::testing::TestWithParam<Combo> {};

TEST_P(ParTrisolveTest, MatchesSequentialSolveOnGrid2d) {
  const auto [p, b, m, variant] = GetParam();
  Problem prob = make_grid_problem(13);
  const index_t n = prob.a.n();

  Rng rng(7);
  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);

  // Sequential reference.
  std::vector<real_t> ref = rhs;
  trisolve::full_solve(prob.l, ref.data(), m);

  // Distributed solve.
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.l.partition(), p);
  Options opt;
  opt.block_size = b;
  opt.pipelining = variant;
  DistributedTrisolver solver(prob.l, map, opt);
  simpar::Machine machine = make_machine(p);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  auto [fw, bw] = solver.solve(machine, rhs, x, m);

  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], ref[i], 1e-9) << "entry " << i;
  }
  EXPECT_GT(fw.time(), 0.0);
  EXPECT_GT(bw.time(), 0.0);
  EXPECT_LT(trisolve::relative_residual(prob.a, x, rhs, m), 1e-9);
}

constexpr auto kCol = Pipelining::column_priority;
constexpr auto kRow = Pipelining::row_priority;
constexpr auto kFan = Pipelining::fan_out;

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParTrisolveTest,
    ::testing::Values(Combo{1, 8, 1, kCol}, Combo{2, 8, 1, kCol},
                      Combo{4, 8, 1, kCol}, Combo{8, 8, 1, kCol},
                      Combo{16, 8, 1, kCol}, Combo{4, 1, 1, kCol},
                      Combo{4, 3, 1, kCol}, Combo{8, 2, 3, kCol},
                      Combo{4, 8, 5, kCol}, Combo{8, 8, 30, kCol},
                      Combo{2, 8, 1, kRow}, Combo{4, 4, 2, kRow},
                      Combo{8, 8, 1, kRow}, Combo{16, 2, 3, kRow},
                      Combo{2, 8, 1, kFan}, Combo{4, 4, 2, kFan},
                      Combo{8, 8, 1, kFan}, Combo{16, 3, 4, kFan}));

class RandomizedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedSweep, RandomSpdSolvesMatchSequential) {
  // Property: for arbitrary SPD matrices under general nested dissection,
  // the distributed solve equals the sequential solve for random p, b, m.
  Rng rng(GetParam());
  const index_t n = 40 + static_cast<index_t>(rng.next_below(80));
  sparse::SymmetricCsc a0 = sparse::random_spd(n, 3, rng);
  sparse::SymmetricCsc a =
      sparse::permute_symmetric(a0, ordering::nested_dissection(a0));
  numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a);

  const index_t p = index_t{1} << rng.next_below(5);       // 1..16
  const index_t b = 1 + static_cast<index_t>(rng.next_below(8));
  const index_t m = 1 + static_cast<index_t>(rng.next_below(4));
  const Pipelining variant = static_cast<Pipelining>(rng.next_below(3));

  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);
  std::vector<real_t> ref = rhs;
  trisolve::full_solve(l, ref.data(), m);

  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(l.partition(), p);
  Options opt;
  opt.block_size = b;
  opt.pipelining = variant;
  DistributedTrisolver solver(l, map, opt);
  simpar::Machine machine = make_machine(p);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  solver.solve(machine, rhs, x, m);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], ref[i], 1e-8)
        << "seed=" << GetParam() << " p=" << p << " b=" << b << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedSweep,
                         ::testing::Range<std::uint64_t>(1000, 1020));

class RandomizedStrictSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomizedStrictSweep, StrictStorageMatchesSequential) {
  // Same property as RandomizedSweep, but reading L from rank-local
  // packed storage (the redistribution product) instead of the shared
  // factor.
  Rng rng(GetParam());
  const index_t n = 40 + static_cast<index_t>(rng.next_below(60));
  sparse::SymmetricCsc a0 = sparse::random_spd(n, 3, rng);
  sparse::SymmetricCsc a =
      sparse::permute_symmetric(a0, ordering::nested_dissection(a0));
  numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a);

  const index_t p = index_t{1} << rng.next_below(4);  // 1..8
  const index_t m = 1 + static_cast<index_t>(rng.next_below(3));
  Options opt;
  opt.block_size = 1 + static_cast<index_t>(rng.next_below(8));

  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);
  std::vector<real_t> ref = rhs;
  trisolve::full_solve(l, ref.data(), m);

  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(l.partition(), p);
  const auto df = partrisolve::DistributedFactor::pack_from(
      l, map, opt.block_size);
  DistributedTrisolver solver(l, &df, map, opt);
  simpar::Machine machine = make_machine(p);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  solver.solve(machine, rhs, x, m);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], ref[i], 1e-8) << "seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedStrictSweep,
                         ::testing::Range<std::uint64_t>(2000, 2010));

TEST(ParTrisolve, Grid3dMatchesSequential) {
  Problem prob = make_grid_problem(7, /*three_d=*/true);
  const index_t n = prob.a.n();
  const index_t m = 2;
  Rng rng(11);
  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);
  std::vector<real_t> ref = rhs;
  trisolve::full_solve(prob.l, ref.data(), m);

  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.l.partition(), 8);
  DistributedTrisolver solver(prob.l, map, Options{});
  simpar::Machine machine = make_machine(8);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  solver.solve(machine, rhs, x, m);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], ref[i], 1e-9);
  }
}

TEST(ParTrisolve, SpeedupIncreasesWithProcessors) {
  // BCSSTK15-scale 2-D problem: big enough that communication does not
  // dominate at p = 16 under the T3D cost model.
  Problem prob = make_grid_problem(63);
  const index_t n = prob.a.n();
  const index_t m = 1;
  Rng rng(3);
  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);

  double t1 = 0.0;
  double t16 = 0.0;
  for (index_t p : {1, 16}) {
    const mapping::SubcubeMapping map =
        mapping::subtree_to_subcube(prob.l.partition(), p);
    DistributedTrisolver solver(prob.l, map, Options{});
    simpar::Machine machine = make_machine(p);
    std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
    auto [fw, bw] = solver.solve(machine, rhs, x, m);
    const double t = fw.time() + bw.time();
    if (p == 1) t1 = t;
    if (p == 16) t16 = t;
  }
  EXPECT_GT(t1 / t16, 2.0) << "t1=" << t1 << " t16=" << t16;
}

TEST(ParTrisolve, BackwardPipelineIsNotSerialized) {
  // Regression test: the backward partial-sum chains must overlap in a
  // wavefront (paper Fig. 4).  If the chain for column K only starts after
  // column K+1 fully completes, the backward phase costs ~q*t/b hops
  // instead of ~q + t/b and is an order of magnitude slower than forward
  // at large q.  Guard: backward within a small factor of forward.
  Problem prob = make_grid_problem(9, /*three_d=*/true);
  const index_t p = 16;
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.l.partition(), p);
  DistributedTrisolver solver(prob.l, map, Options{});
  const index_t n = prob.a.n();
  Rng rng(77);
  std::vector<real_t> rhs = sparse::random_rhs(n, 1, rng);
  std::vector<real_t> x(static_cast<std::size_t>(n), 0.0);
  simpar::Machine machine = make_machine(p);
  auto [fw, bw] = solver.solve(machine, rhs, x, 1);
  EXPECT_LT(bw.time(), 3.0 * fw.time())
      << "fw=" << fw.time() << " bw=" << bw.time();
}

TEST(ParTrisolve, MultipleRhsRaisesFlopRate) {
  Problem prob = make_grid_problem(21);
  const index_t n = prob.a.n();
  Rng rng(5);

  auto mflops_for = [&](index_t m) {
    std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);
    const mapping::SubcubeMapping map =
        mapping::subtree_to_subcube(prob.l.partition(), 8);
    DistributedTrisolver solver(prob.l, map, Options{});
    simpar::Machine machine = make_machine(8);
    std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
    auto [fw, bw] = solver.solve(machine, rhs, x, m);
    const double flops = static_cast<double>(prob.l.solve_flops(m));
    return flops / (fw.time() + bw.time()) / 1e6;
  };
  const double r1 = mflops_for(1);
  const double r10 = mflops_for(10);
  EXPECT_GT(r10, 1.5 * r1);
}

// ---------------------------------------------------------------------------
// Plan reuse: the constructor builds the solve plan once; every solve after
// it must be exactly what a freshly built trisolver computes.
// ---------------------------------------------------------------------------

enum class Backend { sim, threads, tasks };

std::unique_ptr<exec::Comm> make_comm(Backend kind, index_t p) {
  switch (kind) {
    case Backend::sim: {
      simpar::Machine::Config cfg;
      cfg.nprocs = p;
      cfg.cost = exec::CostModel::t3d();
      cfg.topology = exec::TopologyKind::hypercube;
      return std::make_unique<simpar::Machine>(cfg);
    }
    case Backend::threads: {
      exec::ThreadBackend::Config cfg;
      cfg.nprocs = p;
      cfg.recv_timeout = 30.0;
      return std::make_unique<exec::ThreadBackend>(cfg);
    }
    case Backend::tasks: {
      exec::TaskBackend::Config cfg;
      cfg.nprocs = p;
      cfg.scheduler.workers = 2;
      return std::make_unique<exec::TaskBackend>(cfg);
    }
  }
  return nullptr;
}

bool bitwise_equal(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0);
}

void expect_same_graph(const exec::GraphStats& got,
                       const exec::GraphStats& want) {
  EXPECT_EQ(got.tasks, want.tasks);
  EXPECT_EQ(got.edges, want.edges);
  EXPECT_EQ(got.total_cost, want.total_cost);
  EXPECT_EQ(got.critical_path_cost, want.critical_path_cost);
  EXPECT_EQ(got.depth, want.depth);
  EXPECT_EQ(got.max_width, want.max_width);
  EXPECT_EQ(got.avg_parallelism, want.avg_parallelism);
  for (std::size_t k = 0; k < std::size(want.kind_counts); ++k) {
    EXPECT_EQ(got.kind_counts[k], want.kind_counts[k]) << "kind " << k;
  }
}

TEST(PlanReuse, OneTrisolverServesManySolvesBitIdentically) {
  // One trisolver serves m = 1, 7, 0, 30, 1 in turn (the frontier scratch
  // grows, idles and shrinks in use) on every backend, processor count,
  // pipelining mode and storage kind.  Each solve must equal, bit for bit,
  // a trisolver built just for it, and the same solve on the simulator.
  Problem prob = make_grid_problem(13);
  const auto& part = prob.l.partition();
  const index_t n = prob.a.n();
  const exec::GraphStats fw_graph = partrisolve::build_forward_dag(part)
                                        .analyze();
  const exec::GraphStats bw_graph = partrisolve::build_backward_dag(part)
                                        .analyze();
  const std::vector<index_t> ms = {1, 7, 0, 30, 1};
  std::vector<std::vector<real_t>> rhs;
  Rng rng(29);
  for (const index_t m : ms) rhs.push_back(sparse::random_rhs(n, m, rng));

  for (const index_t p : {1, 2, 4}) {
    const mapping::SubcubeMapping map = mapping::subtree_to_subcube(part, p);
    for (const bool strict : {false, true}) {
      for (const Pipelining variant : {kCol, kRow, kFan}) {
        Options opt;
        opt.block_size = 3;
        opt.pipelining = variant;
        const auto df =
            partrisolve::DistributedFactor::pack_from(prob.l, map, 3);
        const DistributedFactor* local = strict ? &df : nullptr;
        std::vector<std::vector<real_t>> on_sim;
        for (const Backend kind :
             {Backend::sim, Backend::threads, Backend::tasks}) {
          SCOPED_TRACE(testing::Message()
                       << "p=" << p << " strict=" << strict << " variant="
                       << static_cast<int>(variant) << " backend="
                       << static_cast<int>(kind));
          const auto comm = make_comm(kind, p);
          const DistributedTrisolver reused(prob.l, local, map, opt);
          for (std::size_t i = 0; i < ms.size(); ++i) {
            const index_t m = ms[i];
            std::vector<real_t> x(rhs[i].size(), 0.0);
            const auto [fw, bw] = reused.solve(*comm, rhs[i], x, m);
            expect_same_graph(fw.graph, fw_graph);
            expect_same_graph(bw.graph, bw_graph);

            const DistributedTrisolver fresh(prob.l, local, map, opt);
            std::vector<real_t> x_fresh(rhs[i].size(), 0.0);
            fresh.solve(*comm, rhs[i], x_fresh, m);
            EXPECT_TRUE(bitwise_equal(x, x_fresh)) << "m=" << m;
            if (kind == Backend::sim) {
              on_sim.push_back(x);
            } else {
              EXPECT_TRUE(bitwise_equal(x, on_sim[i])) << "m=" << m;
            }
          }
        }
      }
    }
  }
}

TEST(PlanReuse, OverlappingSweepsAreRejected) {
  // The frontier scratch belongs to one sweep at a time: a sweep started
  // while another runs on the same trisolver must fail loudly, and the
  // trisolver must stay usable afterwards.
  Problem prob = make_grid_problem(7);
  const index_t n = prob.a.n();
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.l.partition(), 2);
  DistributedTrisolver solver(prob.l, map, Options{});
  std::vector<real_t> b(static_cast<std::size_t>(n), 1.0);
  std::vector<real_t> y(b.size(), 0.0);
  simpar::Machine inner = make_machine(2);
  solver.set_forward_prologue([&](exec::Process&, index_t) {
    std::vector<real_t> y2(b.size(), 0.0);
    solver.backward(inner, b, y2, 1);
  });
  simpar::Machine outer = make_machine(2);
  EXPECT_THROW(solver.forward(outer, b, y, 1), Error);
  solver.set_forward_prologue({});
  std::vector<real_t> x(b.size(), 0.0);
  solver.solve(outer, b, x, 1);
  EXPECT_LT(trisolve::relative_residual(prob.a, x, b, 1), 1e-9);
}

TEST(PlanReuse, FusedParallelSolveMatchesUnfused) {
  // parallel_solve's fused path fills the strict factor storage inside the
  // forward sweep, after the trisolver built its plan over that storage.
  const sparse::SymmetricCsc a = sparse::grid2d(17, 15);
  Rng rng(31);
  const index_t m = 7;
  const std::vector<real_t> b = sparse::random_rhs(a.n(), m, rng);
  solver::Options unfused;
  unfused.backend = solver::ExecutionBackend::tasks;
  solver::Options fused = unfused;
  fused.fuse_redistribution = true;
  const auto r0 = solver::parallel_solve(a, b, m, 4, unfused);
  const auto r1 = solver::parallel_solve(a, b, m, 4, fused);
  EXPECT_TRUE(bitwise_equal(r0.x, r1.x));
  EXPECT_LT(trisolve::relative_residual(a, r1.x, b, m), 1e-9);
  expect_same_graph(r1.forward_dag, r0.forward_dag);
  expect_same_graph(r1.backward_dag, r0.backward_dag);
  EXPECT_GT(r1.forward_dag.tasks, 0);
}

TEST(ParTrisolve, LocalSubtreesBitIdenticalToSequential) {
  // Single-rank subtrees run trisolve's per-supernode kernels in their
  // windows, so forward Y on their columns is the sequential Y bit for bit
  // (and at p = 1 the whole solve is trisolve's), and every backend gives
  // the same bytes.
  for (const bool three_d : {true, false}) {
    const index_t k = three_d ? 12 : 31;
    const sparse::SymmetricCsc a = sparse::permute_symmetric(
        three_d ? sparse::grid3d(k, k, k) : sparse::grid2d(k, k),
        three_d ? ordering::nested_dissection_grid3d(k, k, k)
                : ordering::nested_dissection_grid2d(k, k));
    const index_t n = a.n();
    const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
    for (const bool amalgamated : {false, true}) {
      symbolic::SupernodePartition part = symbolic::fundamental_supernodes(sym);
      if (amalgamated) part = symbolic::amalgamate(sym, part, 32, 16);
      const numeric::SupernodalFactor l =
          numeric::multifrontal_cholesky(a, part);
      for (const index_t m : {0, 1, 7}) {
        Rng rng(41);
        const std::vector<real_t> b = sparse::random_rhs(n, m, rng);
        std::vector<real_t> y_seq = b;
        trisolve::forward_solve(l, y_seq.data(), m);
        std::vector<real_t> x_seq = b;
        trisolve::full_solve(l, x_seq.data(), m);
        for (const index_t p : {1, 2, 4, 8}) {
          const mapping::SubcubeMapping map =
              mapping::subtree_to_subcube(part, p);
          std::vector<index_t> local_cols;
          for (index_t s = 0; s < part.num_supernodes(); ++s) {
            if (map.is_parallel(s)) continue;
            for (index_t j = 0; j < part.width(s); ++j) {
              local_cols.push_back(part.first_col[static_cast<std::size_t>(s)] +
                                   j);
            }
          }
          ASSERT_FALSE(local_cols.empty());
          const auto df = DistributedFactor::pack_from(l, map, 8);
          for (const bool strict : {false, true}) {
            std::vector<real_t> y_sim;
            std::vector<real_t> x_sim;
            for (const Backend kind :
                 {Backend::sim, Backend::threads, Backend::tasks}) {
              SCOPED_TRACE(testing::Message()
                           << (three_d ? "grid3d " : "grid2d ") << k
                           << (amalgamated ? " amalgamated" : " fundamental")
                           << " m=" << m << " p=" << p << " strict=" << strict
                           << " backend=" << static_cast<int>(kind));
              const auto comm = make_comm(kind, p);
              const DistributedTrisolver solver(l, strict ? &df : nullptr, map,
                                                Options{});
              std::vector<real_t> y(b.size(), 0.0);
              solver.forward(*comm, b, y, m);
              std::vector<real_t> x(b.size(), 0.0);
              solver.solve(*comm, b, x, m);
              if (p == 1) {
                EXPECT_TRUE(bitwise_equal(y, y_seq));
                EXPECT_TRUE(bitwise_equal(x, x_seq));
              }
              for (index_t c = 0; c < m; ++c) {
                for (const index_t j : local_cols) {
                  const auto at = static_cast<std::size_t>(c * n + j);
                  ASSERT_EQ(std::memcmp(&y[at], &y_seq[at], sizeof(y[at])), 0)
                      << "row " << j << " column " << c;
                }
              }
              if (kind == Backend::sim) {
                y_sim = y;
                x_sim = x;
              } else {
                EXPECT_TRUE(bitwise_equal(y, y_sim));
                EXPECT_TRUE(bitwise_equal(x, x_sim));
              }
            }
          }
        }
      }
    }
  }
}

TEST(DenseParallelForward, MatchesSequential) {
  const index_t n = 96;
  const index_t m = 2;
  Rng rng(13);
  dense::Matrix a(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      a(i, j) = i == j ? static_cast<real_t>(n) : rng.uniform(-1.0, 1.0);
    }
  }
  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);

  // Sequential reference via the dense kernels.
  dense::Matrix bmat(n, m);
  for (index_t c = 0; c < m; ++c) {
    for (index_t i = 0; i < n; ++i) bmat(i, c) = rhs[c * n + i];
  }
  dense::Matrix ref = dense::solve_lower(a, bmat);

  for (index_t p : {1, 4, 8}) {
    std::vector<real_t> x = rhs;
    simpar::Machine machine = make_machine(p);
    partrisolve::dense_parallel_forward(machine, a, x, m, 4);
    for (index_t c = 0; c < m; ++c) {
      for (index_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x[c * n + i], ref(i, c), 1e-9);
      }
    }
  }
}

TEST(DenseParallelForward, ScalesAtPaperSize) {
  // A triangular system the size of the paper's top-level separators:
  // comfortably large enough that pipelining wins under T3D costs.
  const index_t n = 1024;
  const index_t m = 4;
  Rng rng(13);
  dense::Matrix a(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      a(i, j) = i == j ? static_cast<real_t>(n) : rng.uniform(-1.0, 1.0);
    }
  }
  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);
  double t1 = 0.0, t8 = 0.0;
  for (index_t p : {1, 8}) {
    std::vector<real_t> x = rhs;
    simpar::Machine machine = make_machine(p);
    auto stats = partrisolve::dense_parallel_forward(machine, a, x, m, 16);
    (p == 1 ? t1 : t8) = stats.parallel_time();
  }
  EXPECT_GT(t1 / t8, 2.0) << "t1=" << t1 << " t8=" << t8;
}

}  // namespace
}  // namespace sparts
