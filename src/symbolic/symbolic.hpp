// Symbolic Cholesky factorization: the nonzero structure of L.
//
// struct(L_j) = struct(A_{j:n, j})  ∪  ∪_{c : parent(c) = j} (struct(L_c) \ {c})
//
// computed in O(nnz(L)) with the elimination tree.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "ordering/etree.hpp"
#include "sparse/formats.hpp"

namespace sparts::symbolic {

/// Flops charged to eliminating one column with `count` entries on and
/// below the diagonal: one sqrt, count - 1 divisions and (count - 1) *
/// count for the multiply-adds of the rank-1 update (2 flops each).
constexpr nnz_t column_factorization_flops(nnz_t count) {
  return 1 + (count - 1) + (count - 1) * count;
}

/// Nonzero structure of the Cholesky factor L (lower triangular, CSC,
/// row indices sorted ascending; the diagonal leads every column).
struct SymbolicFactor {
  index_t n = 0;
  ordering::EliminationTree etree;
  std::vector<nnz_t> colptr;    ///< size n+1
  std::vector<index_t> rowind;  ///< concatenated column structures

  nnz_t nnz() const { return colptr.empty() ? 0 : colptr.back(); }

  std::span<const index_t> col_rows(index_t j) const {
    const nnz_t b = colptr[static_cast<std::size_t>(j)];
    const nnz_t e = colptr[static_cast<std::size_t>(j) + 1];
    return {rowind.data() + b, static_cast<std::size_t>(e - b)};
  }

  /// Column counts |struct(L_j)| including the diagonal.
  std::vector<index_t> column_counts() const;

  /// Exact flop count of the numerical factorization:
  /// sum_j column_factorization_flops(|L_j|)  ~  sum |L_j|^2.
  nnz_t factorization_flops() const;

  /// Exact flop count of one forward + backward solve with m RHS:
  /// 4 * nnz(L) * m  (2 flops per nonzero per solve direction).
  nnz_t solve_flops(index_t m) const { return 4 * nnz() * m; }
};

/// Compute the symbolic factor of (the pattern of) A.
SymbolicFactor symbolic_cholesky(const sparse::SymmetricCsc& a);

}  // namespace sparts::symbolic
