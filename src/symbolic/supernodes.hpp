// Supernode detection and the supernodal elimination tree.
//
// A supernode is a maximal set of consecutive columns {j, j+1, ..., j+t-1}
// with identical below-diagonal structure, where each column's parent in the
// elimination tree is the next column (paper §2.1).  The portion of L owned
// by a supernode is a dense trapezoid of width t and height n_s =
// |struct(L_j)|.
//
// Relaxed amalgamation optionally merges a child supernode into its parent
// when doing so introduces at most `relax_zeros` explicit zeros per merged
// column, trading a little fill for larger dense blocks (and shallower
// trees) — the standard multifrontal engineering trick.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "ordering/etree.hpp"
#include "symbolic/symbolic.hpp"

namespace sparts::symbolic {

/// Partition of the columns 0..n-1 into supernodes with their merged row
/// structures and the supernodal elimination tree.
struct SupernodePartition {
  /// first_col[s] .. first_col[s+1]-1 are the columns of supernode s.
  /// Size nsup+1; first_col[0] = 0, first_col[nsup] = n.
  std::vector<index_t> first_col;
  /// sup_of_col[j] = supernode containing column j.  Size n.
  std::vector<index_t> sup_of_col;
  /// Row structure of each supernode: rows[rowptr[s]..rowptr[s+1}) are the
  /// row indices of the *first* column of s (ascending).  The first t
  /// entries are exactly the supernode's own columns.
  std::vector<nnz_t> rowptr;
  std::vector<index_t> rows;
  /// Supernodal elimination tree: parent supernode or -1 for the root(s).
  ordering::EliminationTree stree;

  index_t num_supernodes() const {
    return static_cast<index_t>(first_col.size()) - 1;
  }
  index_t n() const { return first_col.empty() ? 0 : first_col.back(); }

  /// Number of columns in supernode s.
  index_t width(index_t s) const {
    return first_col[static_cast<std::size_t>(s) + 1] -
           first_col[static_cast<std::size_t>(s)];
  }
  /// Number of rows (height of the trapezoid) of supernode s.
  index_t height(index_t s) const {
    return static_cast<index_t>(rowptr[static_cast<std::size_t>(s) + 1] -
                                rowptr[static_cast<std::size_t>(s)]);
  }
  /// Row indices of supernode s.
  std::span<const index_t> row_indices(index_t s) const {
    const nnz_t b = rowptr[static_cast<std::size_t>(s)];
    const nnz_t e = rowptr[static_cast<std::size_t>(s) + 1];
    return {rows.data() + b, static_cast<std::size_t>(e - b)};
  }

  /// Dense storage of the trapezoid of supernode s (height * width).
  nnz_t block_entries(index_t s) const {
    return static_cast<nnz_t>(height(s)) * width(s);
  }
  /// Total dense storage over all supernodes.
  nnz_t total_block_entries() const;

  /// nnz(L) as stored: column k of supernode s holds height(s) - k
  /// entries on and below the diagonal, explicit zeros of an amalgamated
  /// partition included.
  nnz_t factor_nnz() const;
  /// Flops of factoring the stored factor: the per-column formula of
  /// SymbolicFactor::factorization_flops over the column counts
  /// height(s) - k.  Both equal the symbolic values on the fundamental
  /// partition.
  nnz_t factorization_flops() const;

  /// Flops of a forward (or backward) solve with m RHS through supernode s:
  /// t^2 m for the triangle + 2 t (n_s - t) m for the rectangle update.
  nnz_t solve_flops(index_t s, index_t m) const {
    const nnz_t t = width(s);
    const nnz_t ns = height(s);
    return t * t * m + 2 * t * (ns - t) * m;
  }

  /// Validates internal invariants (used by tests; throws on violation).
  void check_consistent() const;
};

/// Detect fundamental supernodes of a symbolic factor.
SupernodePartition fundamental_supernodes(const SymbolicFactor& f);

/// Relaxed amalgamation: greedily merge a supernode into its parent when
/// both are narrow (combined width <= max_width) and the merge introduces
/// at most `relax_zeros` artificial zero entries per column of the child.
/// Returns a new partition with merged row structures (supersets).
SupernodePartition amalgamate(const SymbolicFactor& f,
                              const SupernodePartition& p, index_t max_width,
                              nnz_t relax_zeros);

}  // namespace sparts::symbolic
