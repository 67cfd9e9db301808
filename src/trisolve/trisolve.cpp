#include "trisolve/trisolve.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "dense/kernels.hpp"

namespace sparts::trisolve {

nnz_t forward_supernode_product(const real_t* block, index_t t, index_t below,
                                real_t* x1, index_t ldx, index_t m,
                                std::vector<real_t>& temp) {
  const index_t ns = t + below;
  // Dense triangular solve on the supernode's own rows.
  nnz_t flops = dense::panel_trsm_lower(t, m, block, ns, x1, ldx);
  // Rectangle product: temp = L21 * X1.
  if (below > 0) {
    temp.assign(static_cast<std::size_t>(below) * m, 0.0);
    dense::panel_gemm(below, m, t, 1.0, block + t, ns, x1, ldx, temp.data(),
                      below);
    flops += dense::gemm_flops(below, m, t);
  }
  return flops;
}

nnz_t forward_supernode(const real_t* block, index_t t,
                        std::span<const index_t> below, real_t* v,
                        index_t ldv, index_t j0, index_t m,
                        std::vector<real_t>& temp) {
  const auto nb = static_cast<index_t>(below.size());
  const nnz_t flops =
      forward_supernode_product(block, t, nb, v + j0, ldv, m, temp);
  // Scatter the product into the ancestors' rows.
  for (index_t c = 0; c < m; ++c) {
    real_t* vc = v + c * ldv;
    const real_t* tc = temp.data() + static_cast<std::size_t>(c) * nb;
    for (index_t i = 0; i < nb; ++i) {
      vc[below[static_cast<std::size_t>(i)]] -= tc[i];
    }
  }
  return flops;
}

nnz_t backward_supernode(const real_t* block, index_t t,
                         std::span<const index_t> below, real_t* v,
                         index_t ldv, index_t j0, index_t m,
                         std::vector<real_t>& temp) {
  const auto nb = static_cast<index_t>(below.size());
  const index_t ns = t + nb;
  nnz_t flops = 0;
  if (nb > 0) {
    // Gather ancestor rows of X, then X1 -= L21^T * X2.
    temp.assign(static_cast<std::size_t>(nb) * m, 0.0);
    for (index_t c = 0; c < m; ++c) {
      const real_t* vc = v + c * ldv;
      real_t* tc = temp.data() + static_cast<std::size_t>(c) * nb;
      for (index_t i = 0; i < nb; ++i) {
        tc[i] = vc[below[static_cast<std::size_t>(i)]];
      }
    }
    dense::panel_gemm_at(t, m, nb, -1.0, block + t, ns, temp.data(), nb,
                         v + j0, ldv);
    flops += dense::gemm_flops(t, m, nb);
  }
  // Dense transposed-triangular solve on the supernode's own rows.
  flops += dense::panel_trsm_lower_transposed(t, m, block, ns, v + j0, ldv);
  return flops;
}

void forward_solve(const numeric::SupernodalFactor& l, real_t* b, index_t m,
                   SolveStats* stats) {
  const auto& p = l.partition();
  nnz_t flops = 0;
  std::vector<real_t> temp;
  // Supernodes are numbered so that ancestors have higher indices
  // (column-contiguity), so ascending order is a valid bottom-up sweep.
  for (index_t s = 0; s < p.num_supernodes(); ++s) {
    const index_t t = p.width(s);
    const auto below = p.row_indices(s).subspan(static_cast<std::size_t>(t));
    flops += forward_supernode(l.block(s).data(), t, below, b, p.n(),
                               p.first_col[static_cast<std::size_t>(s)], m,
                               temp);
  }
  if (stats != nullptr) stats->flops += flops;
}

void backward_solve(const numeric::SupernodalFactor& l, real_t* b, index_t m,
                    SolveStats* stats) {
  const auto& p = l.partition();
  nnz_t flops = 0;
  std::vector<real_t> temp;
  for (index_t s = p.num_supernodes() - 1; s >= 0; --s) {
    const index_t t = p.width(s);
    const auto below = p.row_indices(s).subspan(static_cast<std::size_t>(t));
    flops += backward_supernode(l.block(s).data(), t, below, b, p.n(),
                                p.first_col[static_cast<std::size_t>(s)], m,
                                temp);
  }
  if (stats != nullptr) stats->flops += flops;
}

void full_solve(const numeric::SupernodalFactor& l, real_t* b, index_t m,
                SolveStats* stats) {
  forward_solve(l, b, m, stats);
  backward_solve(l, b, m, stats);
}

real_t relative_residual(const sparse::SymmetricCsc& a,
                         std::span<const real_t> x, std::span<const real_t> b,
                         index_t m) {
  const index_t n = a.n();
  SPARTS_CHECK(static_cast<index_t>(x.size()) == n * m);
  SPARTS_CHECK(static_cast<index_t>(b.size()) == n * m);
  real_t worst = 0.0;
  std::vector<real_t> r(static_cast<std::size_t>(n));
  for (index_t c = 0; c < m; ++c) {
    for (index_t i = 0; i < n; ++i) {
      r[static_cast<std::size_t>(i)] = -b[static_cast<std::size_t>(c * n + i)];
    }
    a.symv(1.0, x.subspan(static_cast<std::size_t>(c * n),
                          static_cast<std::size_t>(n)),
           r);
    real_t rn = 0.0, bn = 0.0;
    for (index_t i = 0; i < n; ++i) {
      rn += r[static_cast<std::size_t>(i)] * r[static_cast<std::size_t>(i)];
      const real_t bi = b[static_cast<std::size_t>(c * n + i)];
      bn += bi * bi;
    }
    worst = std::max(worst, std::sqrt(rn) / std::max(std::sqrt(bn), 1e-300));
  }
  return worst;
}

}  // namespace sparts::trisolve
