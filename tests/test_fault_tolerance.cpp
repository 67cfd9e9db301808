// End-to-end fault-tolerance scenarios through solver::parallel_solve:
// the reliability envelope must recover from injected drops, duplicates,
// delays, reorders and stalls with a solution bit-identical to the clean
// run; a crash must surface as a structured SolveError (no hang) on every
// in-process base; and a singular matrix must complete with degraded
// status under the perturbing pivot policy.  Registered under the CTest
// label `faults` and included in the TSan preset, so the threaded
// scenarios run under the race detector.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/flight_recorder.hpp"
#include "solver/sparse_solver.hpp"
#include "sparse/formats.hpp"
#include "sparse/generators.hpp"
#include "trisolve/trisolve.hpp"

namespace sparts {
namespace {

struct Problem {
  sparse::SymmetricCsc a;
  std::vector<real_t> b;
};

Problem make_problem() {
  Problem prob{sparse::grid2d(12, 12), {}};
  Rng rng(17);
  prob.b = sparse::random_rhs(prob.a.n(), 1, rng);
  return prob;
}

using Base = solver::ExecutionBackend;
constexpr Base kBases[] = {Base::simulated, Base::threads, Base::tasks};

solver::ParallelSolveResult clean_solve(const Problem& prob,
                                        Base base = Base::simulated) {
  solver::Options opt;
  opt.backend = base;
  return solver::parallel_solve(prob.a, prob.b, 1, 4, opt);
}

/// Reliable(Faulty(base)) under `plan`, on `p` ranks.
solver::ParallelSolveResult faulty_solve(const Problem& prob,
                                         const std::string& plan,
                                         Base base = Base::simulated,
                                         index_t p = 4) {
  solver::Options opt;
  opt.backend = base;
  opt.fault_plan = exec::FaultPlan::parse(plan);
  return solver::parallel_solve(prob.a, prob.b, 1, p, opt);
}

TEST(FaultTolerance, EnvelopeWithoutFaultsMatchesCleanRunBitwise) {
  const Problem prob = make_problem();
  for (const Base base : kBases) {
    SCOPED_TRACE(solver::execution_backend_info(base).name);
    const auto clean = clean_solve(prob, base);
    const auto r = faulty_solve(prob, "seed=1", base);
    EXPECT_EQ(clean.x, r.x);
    EXPECT_EQ(r.status, solver::SolveStatus::ok);
    EXPECT_EQ(r.faults_injected, 0);
    EXPECT_EQ(r.retransmits, 0);
  }
}

// The envelope's poll loop counts every wait as its full duration, so
// over tasks a wait must last it even while every peer computes: here one
// peer factors a front for longer than the retry horizon has yields, at
// p = 2 and p = 4, and the clean run must not abort.
TEST(FaultTolerance, EnvelopeOverTasksWaitsOutLargeFronts) {
  Problem prob{sparse::grid3d(22, 22, 22), {}};
  Rng rng(17);
  prob.b = sparse::random_rhs(prob.a.n(), 1, rng);
  for (const index_t p : {2, 4}) {
    SCOPED_TRACE(p);
    const auto r = faulty_solve(prob, "seed=1", Base::tasks, p);
    EXPECT_EQ(r.status, solver::SolveStatus::ok);
    EXPECT_LT(trisolve::relative_residual(prob.a, r.x, prob.b, 1), 1e-9);
  }
}

TEST(FaultTolerance, RecoversFromDropsBitIdentical) {
  const Problem prob = make_problem();
  const auto clean = clean_solve(prob);
  for (const int seed : {7, 11, 42}) {
    const auto r = faulty_solve(
        prob, "seed=" + std::to_string(seed) + ",drop=0.25");
    EXPECT_EQ(clean.x, r.x) << "seed " << seed;
    EXPECT_EQ(r.status, solver::SolveStatus::ok);
    EXPECT_GT(r.faults_injected, 0);
    EXPECT_GT(r.retransmits, 0);
  }
}

TEST(FaultTolerance, RecoversFromMixedFaultsBitIdentical) {
  const Problem prob = make_problem();
  const auto clean = clean_solve(prob);
  const auto r = faulty_solve(
      prob, "seed=42,drop=0.1,dup=0.1,delay=0.2:0.0005,reorder=0.1");
  EXPECT_EQ(clean.x, r.x);
  EXPECT_EQ(r.status, solver::SolveStatus::ok);
  EXPECT_GT(r.faults_injected, 0);
  EXPECT_LT(trisolve::relative_residual(prob.a, r.x, prob.b, 1), 1e-9);
}

TEST(FaultTolerance, RecoversFromStall) {
  // A 5 ms stall on rank 2 is well inside the envelope's backed-off retry
  // horizon, so peers NACK through it and the run converges.
  const Problem prob = make_problem();
  const auto clean = clean_solve(prob);
  const auto r = faulty_solve(prob, "seed=1,stall=2@0.005");
  EXPECT_EQ(clean.x, r.x);
  EXPECT_EQ(r.status, solver::SolveStatus::ok);
  EXPECT_GT(r.faults_injected, 0);  // the stall itself is counted
}

TEST(FaultTolerance, ThreadsBackendRecoversFromDropsBitIdentical) {
  // Shrink the wall-clock retransmit timeout (SPARTS_TIMEOUT_MS is the
  // documented knob) so the many recovery waits stay fast even under TSan.
  ::setenv("SPARTS_TIMEOUT_MS", "5", 1);
  const Problem prob = make_problem();
  const auto clean = clean_solve(prob);
  const auto r = faulty_solve(prob, "seed=42,drop=0.15", Base::threads);
  ::unsetenv("SPARTS_TIMEOUT_MS");
  EXPECT_EQ(clean.x, r.x);
  EXPECT_EQ(r.status, solver::SolveStatus::ok);
  EXPECT_GT(r.retransmits, 0);
}

// A rank dying mid-phase must leave no peer blocked on any base: the run
// ends, every rank unwinds, and the caller gets a structured error whose
// flight-recorder dump shows the crash.
TEST(FaultTolerance, CrashProducesStructuredSolveError) {
  const Problem prob = make_problem();
  for (const Base base : kBases) {
    SCOPED_TRACE(solver::execution_backend_info(base).name);
    obs::FlightRecorder::instance().clear();
    try {
      faulty_solve(prob, "seed=1,crash=1@5", base);
      FAIL() << "expected SolveError";
    } catch (const solver::SolveError& e) {
      EXPECT_EQ(e.failed_phase(), "factorization");
      EXPECT_NE(e.cause().find("injected"), std::string::npos) << e.cause();
      // The progress report names every rank and where it was.
      EXPECT_NE(e.progress().find("rank 0"), std::string::npos)
          << e.progress();
      EXPECT_NE(e.progress().find("rank 3"), std::string::npos)
          << e.progress();
      EXPECT_NE(e.flight_dump().find("crash"), std::string::npos)
          << e.flight_dump();
    }
  }
}

// The acceptance gate for shutdown hardening on the real thread backend:
// all threads join and the caller gets a structured error, not a hang.
TEST(FaultTolerance, CrashOnThreadsProducesStructuredSolveErrorNoHang) {
  const Problem prob = make_problem();
  try {
    faulty_solve(prob, "seed=1,crash=1@5", Base::threads);
    FAIL() << "expected SolveError";
  } catch (const solver::SolveError& e) {
    EXPECT_EQ(e.failed_phase(), "factorization");
    EXPECT_FALSE(e.progress().empty());
  }
}

// ---------------------------------------------------------------------------
// Graceful numerical degradation.

/// Free-boundary path-graph Laplacian: tridiagonal, diag = vertex degree,
/// off-diag -1.  Exactly singular (ones spans the null space), and under
/// natural ordering every elimination step is exact integer arithmetic, so
/// the final pivot is an exact floating-point zero — a deterministic
/// tiny-pivot scenario.
sparse::SymmetricCsc path_laplacian(index_t n) {
  sparse::Triplets t(n, n);
  for (index_t i = 0; i < n; ++i) {
    const real_t deg = (i == 0 || i == n - 1) ? 1.0 : 2.0;
    t.add(i, i, deg);
    if (i + 1 < n) t.add(i + 1, i, -1.0);
  }
  return sparse::SymmetricCsc::from_triplets(t);
}

TEST(Degradation, SingularMatrixFailsInDefaultPivotMode) {
  const sparse::SymmetricCsc a = path_laplacian(16);
  std::vector<real_t> v(16, 0.0), b(16, 0.0);
  for (index_t i = 0; i < 16; ++i) v[static_cast<std::size_t>(i)] =
      0.25 * static_cast<real_t>(i + 1);
  a.symv(1.0, v, b);
  solver::Options opt;
  opt.ordering = solver::OrderingMethod::natural;
  EXPECT_THROW(solver::parallel_solve(a, b, 1, 4, opt), NumericalError);
}

TEST(Degradation, SingularMatrixCompletesDegradedWithPerturbedPivots) {
  const sparse::SymmetricCsc a = path_laplacian(16);
  // Consistent right-hand side b = A v: a solution exists even though A is
  // singular, so refinement can drive the residual down.
  std::vector<real_t> v(16, 0.0), b(16, 0.0);
  for (index_t i = 0; i < 16; ++i) v[static_cast<std::size_t>(i)] =
      0.25 * static_cast<real_t>(i + 1);
  a.symv(1.0, v, b);

  solver::Options opt;
  opt.ordering = solver::OrderingMethod::natural;
  opt.pivot_mode = dense::PivotMode::perturb;
  const auto r = solver::parallel_solve(a, b, 1, 4, opt);
  EXPECT_EQ(r.status, solver::SolveStatus::degraded);
  EXPECT_GE(r.perturbed_pivots, 1);
  // Refinement ran (residual was computed) and converged.
  EXPECT_GE(r.residual, 0.0);
  EXPECT_LT(r.residual, 1e-8);
  EXPECT_LT(trisolve::relative_residual(a, r.x, b, 1), 1e-8);
}

TEST(Degradation, PerturbModeLeavesHealthyMatricesUntouched) {
  const Problem prob = make_problem();
  const auto clean = clean_solve(prob);
  solver::Options opt;
  opt.pivot_mode = dense::PivotMode::perturb;
  const auto r = solver::parallel_solve(prob.a, prob.b, 1, 4, opt);
  EXPECT_EQ(r.status, solver::SolveStatus::ok);
  EXPECT_EQ(r.perturbed_pivots, 0);
  EXPECT_EQ(r.refine_iterations, 0);
  EXPECT_EQ(clean.x, r.x);
}

}  // namespace
}  // namespace sparts
