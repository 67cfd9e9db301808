// Sequential supernodal forward elimination and backward substitution
// (paper §2, serial form) — the single-processor baseline of every
// experiment and the reference the parallel solvers are validated against.
//
// Forward elimination (L Y = B) walks the supernodal elimination tree
// bottom-up: at each trapezoidal supernode, solve the t x t dense triangle,
// then subtract the (n_s - t) x t rectangle's product from the entries of
// the right-hand side owned by ancestors.  Backward substitution (L^T X = Y)
// walks top-down with the transposed operations.
//
// Both sweeps are loops over two per-supernode kernels that work on any
// m-column working vector whose rows a supernode's below-row indices name.
// The sequential sweeps pass B itself with global rows; the task-DAG solve
// and the distributed solver's single-rank subtrees (paper §2: below the
// subcube level each processor solves its subtree sequentially) run the
// same kernels, so their arithmetic is this file's.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "numeric/supernodal_factor.hpp"

namespace sparts::trisolve {

/// Statistics of one solver run.
struct SolveStats {
  nnz_t flops = 0;
};

/// Forward product half of one supernode, whose trapezoid `block` has
/// height (and leading dimension) t + below: X1 <- L11^{-1} X1 on the t
/// rows at `x1` (ld ldx), then temp = L21 * X1 (below x m).  Returns flops.
nnz_t forward_supernode_product(const real_t* block, index_t t, index_t below,
                                real_t* x1, index_t ldx, index_t m,
                                std::vector<real_t>& temp);

/// Forward elimination through one supernode on the m-column vector `v`
/// (ld ldv): the product half on the rows at v + j0, then
/// v[below[i]] -= temp[i], `below` being its below rows as rows of v.
nnz_t forward_supernode(const real_t* block, index_t t,
                        std::span<const index_t> below, real_t* v,
                        index_t ldv, index_t j0, index_t m,
                        std::vector<real_t>& temp);

/// Backward substitution through one supernode on `v`: gather v[below]
/// into temp, X1 -= L21^T * temp on the rows at v + j0, then
/// X1 <- L11^{-T} X1.  Returns the flop count.
nnz_t backward_supernode(const real_t* block, index_t t,
                         std::span<const index_t> below, real_t* v,
                         index_t ldv, index_t j0, index_t m,
                         std::vector<real_t>& temp);

/// Solve L Y = B in place.  `b` is n x m column-major with ld = n.
void forward_solve(const numeric::SupernodalFactor& l, real_t* b, index_t m,
                   SolveStats* stats = nullptr);

/// Solve L^T X = Y in place.
void backward_solve(const numeric::SupernodalFactor& l, real_t* b, index_t m,
                    SolveStats* stats = nullptr);

/// Full solve of A X = B given the factor of (permuted) A: forward then
/// backward, in place.
void full_solve(const numeric::SupernodalFactor& l, real_t* b, index_t m,
                SolveStats* stats = nullptr);

/// Relative residual ||A x - b||_2 / ||b||_2, column-wise max, for a
/// computed solution (both column-major n x m).
real_t relative_residual(const sparse::SymmetricCsc& a,
                         std::span<const real_t> x, std::span<const real_t> b,
                         index_t m);

}  // namespace sparts::trisolve
