#include "numeric/multifrontal.hpp"

#include <algorithm>

#include "common/checks.hpp"
#include "common/error.hpp"
#include "dense/kernels.hpp"
#include "ordering/etree.hpp"

namespace sparts::numeric {

nnz_t factor_supernode_panel(const sparse::SymmetricCsc& a,
                             const symbolic::SupernodePartition& p, index_t s,
                             std::span<const index_t> children,
                             std::vector<UpdateMatrix>& updates,
                             SupernodalFactor& factor,
                             std::vector<real_t>& front,
                             std::vector<index_t>& pos_of_row) {
  const index_t t = p.width(s);
  const index_t ns = p.height(s);
  auto rows = p.row_indices(s);
  const index_t j0 = p.first_col[static_cast<std::size_t>(s)];

  // Frontal matrix: ns x ns, column-major, lower triangle used.
  front.assign(static_cast<std::size_t>(ns) * ns, 0.0);

  for (index_t i = 0; i < ns; ++i) {
    pos_of_row[static_cast<std::size_t>(rows[static_cast<std::size_t>(i)])] =
        i;
  }

  // Assemble original entries of the pivot columns.
  for (index_t k = 0; k < t; ++k) {
    const index_t j = j0 + k;
    auto arow = a.col_rows(j);
    auto aval = a.col_values(j);
    for (std::size_t q = 0; q < arow.size(); ++q) {
      const index_t i = pos_of_row[static_cast<std::size_t>(arow[q])];
      SPARTS_DCHECK(i >= 0);
      front[static_cast<std::size_t>(k * ns + i)] += aval[q];
    }
  }

  // Extend-add the children's update matrices.
  for (index_t c : children) {
    UpdateMatrix& u = updates[static_cast<std::size_t>(c)];
    const index_t m = u.size();
    for (index_t cj = 0; cj < m; ++cj) {
      const index_t fj =
          pos_of_row[static_cast<std::size_t>(u.rows[static_cast<std::size_t>(cj)])];
      SPARTS_DCHECK(fj >= 0);
      for (index_t ci = cj; ci < m; ++ci) {
        const index_t fi = pos_of_row[static_cast<std::size_t>(
            u.rows[static_cast<std::size_t>(ci)])];
        // Positions are ascending with rows, so fi >= fj.
        front[static_cast<std::size_t>(fj * ns + fi)] +=
            u.values[static_cast<std::size_t>(cj * m + ci)];
      }
    }
    u = UpdateMatrix{};  // free
  }

  // Dense partial factorization of the pivot block.
  const nnz_t flops = dense::panel_cholesky(ns, t, front.data(), ns);

  // Copy the factored pivot columns into the supernodal factor.  (The
  // Schur update only touches the trailing block, columns >= t, so the
  // pivot columns are final here.)
  auto block = factor.block(s);
  for (index_t k = 0; k < t; ++k) {
    const real_t* src = front.data() + static_cast<std::size_t>(k) * ns;
    real_t* dst = block.data() + static_cast<std::size_t>(k) * ns;
    // Zero above the diagonal of the pivot triangle, copy the rest.
    for (index_t i = 0; i < k; ++i) dst[i] = 0.0;
    for (index_t i = k; i < ns; ++i) dst[i] = src[i];
  }

  for (index_t i = 0; i < ns; ++i) {
    pos_of_row[static_cast<std::size_t>(rows[static_cast<std::size_t>(i)])] =
        -1;
  }
  return flops;
}

nnz_t supernode_schur_update(const symbolic::SupernodePartition& p, index_t s,
                             std::vector<real_t>& front, UpdateMatrix* out) {
  const index_t t = p.width(s);
  const index_t ns = p.height(s);
  const index_t b = ns - t;
  if (b <= 0) return 0;

  // Schur complement of the trailing block: F22 -= L21 * L21^T.
  dense::panel_syrk(b, b, t, front.data() + t, ns, front.data() + t, ns,
                    front.data() + static_cast<std::size_t>(t) * ns + t, ns,
                    /*lower_only=*/true);
  const nnz_t flops = dense::syrk_flops(b, b, t, /*lower_only=*/true);
  if (out == nullptr) return flops;

  // Emit the update matrix for the parent.
  auto rows = p.row_indices(s);
  UpdateMatrix u;
  u.rows.assign(rows.begin() + t, rows.end());
  u.values.assign(static_cast<std::size_t>(b) * b, 0.0);
  for (index_t cj = 0; cj < b; ++cj) {
    const real_t* src =
        front.data() + static_cast<std::size_t>(t + cj) * ns + t;
    real_t* dst = u.values.data() + static_cast<std::size_t>(cj) * b;
    for (index_t ci = cj; ci < b; ++ci) dst[ci] = src[ci];
  }
  *out = std::move(u);
  return flops;
}

SupernodalFactor multifrontal_cholesky(const sparse::SymmetricCsc& a,
                                       const symbolic::SupernodePartition& p,
                                       FactorizationStats* stats) {
  const index_t nsup = p.num_supernodes();
  SPARTS_CHECK(p.n() == a.n(), "partition does not match matrix");
  SPARTS_VALIDATE_EXPENSIVE(p.check_consistent());
  SupernodalFactor factor(p);
  FactorizationStats local_stats;

  auto order = ordering::postorder(p.stree);
  auto children = ordering::tree_children(p.stree);

  std::vector<UpdateMatrix> updates(static_cast<std::size_t>(nsup));
  nnz_t stack_entries = 0;

  // Scratch: position of a global row inside the current front.
  std::vector<index_t> pos_of_row(static_cast<std::size_t>(p.n()), -1);
  std::vector<real_t> front;

  for (index_t s : order) {
    const auto& ch = children[static_cast<std::size_t>(s)];
    for (index_t c : ch) {
      stack_entries -=
          static_cast<nnz_t>(updates[static_cast<std::size_t>(c)].values.size());
    }
    local_stats.flops += factor_supernode_panel(a, p, s, ch, updates, factor,
                                                front, pos_of_row);
    local_stats.peak_front_entries = std::max(
        local_stats.peak_front_entries, static_cast<nnz_t>(front.size()));

    UpdateMatrix u;
    local_stats.flops += supernode_schur_update(p, s, front, &u);
    if (u.size() > 0) {
      stack_entries += static_cast<nnz_t>(u.values.size());
      local_stats.peak_stack_entries =
          std::max(local_stats.peak_stack_entries, stack_entries);
      updates[static_cast<std::size_t>(s)] = std::move(u);
    }
  }

  if (stats != nullptr) *stats = local_stats;
  return factor;
}

SupernodalFactor multifrontal_cholesky(const sparse::SymmetricCsc& a,
                                       FactorizationStats* stats) {
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  const symbolic::SupernodePartition part =
      symbolic::fundamental_supernodes(sym);
  return multifrontal_cholesky(a, part, stats);
}

}  // namespace sparts::numeric
