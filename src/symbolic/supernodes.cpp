#include "symbolic/supernodes.hpp"

#include <algorithm>

#include "common/checks.hpp"
#include "common/error.hpp"

namespace sparts::symbolic {

nnz_t SupernodePartition::total_block_entries() const {
  nnz_t total = 0;
  for (index_t s = 0; s < num_supernodes(); ++s) total += block_entries(s);
  return total;
}

nnz_t SupernodePartition::factor_nnz() const {
  nnz_t count = 0;
  for (index_t s = 0; s < num_supernodes(); ++s) {
    const nnz_t ns = height(s);
    const nnz_t t = width(s);
    count += t * ns - t * (t - 1) / 2;
  }
  return count;
}

nnz_t SupernodePartition::factorization_flops() const {
  nnz_t flops = 0;
  for (index_t s = 0; s < num_supernodes(); ++s) {
    for (index_t k = 0; k < width(s); ++k) {
      flops += column_factorization_flops(static_cast<nnz_t>(height(s) - k));
    }
  }
  return flops;
}

void SupernodePartition::check_consistent() const {
  const index_t nsup = num_supernodes();
  SPARTS_CHECK(first_col.front() == 0,
               "[supernode-contiguity] first_col[0] must be 0");
  SPARTS_CHECK(static_cast<index_t>(sup_of_col.size()) == n(),
               "[supernode-contiguity] sup_of_col must cover all "
                   << n() << " columns");
  ordering::validate_etree(stree);
  for (index_t s = 0; s < nsup; ++s) {
    SPARTS_CHECK(width(s) >= 1,
                 "[supernode-contiguity] supernode " << s << " is empty");
    auto ri = row_indices(s);
    SPARTS_CHECK(static_cast<index_t>(ri.size()) >= width(s),
                 "[supernode-structure] supernode "
                     << s << " has fewer rows than columns");
    // First t rows are the supernode's own columns.
    for (index_t k = 0; k < width(s); ++k) {
      SPARTS_CHECK(ri[static_cast<std::size_t>(k)] ==
                       first_col[static_cast<std::size_t>(s)] + k,
                   "[supernode-contiguity] supernode "
                       << s << " does not own its column block: row "
                       << ri[static_cast<std::size_t>(k)] << " at position "
                       << k);
    }
    // Rows ascending, remaining rows strictly below the supernode.
    for (std::size_t k = 1; k < ri.size(); ++k) {
      SPARTS_CHECK(ri[k] > ri[k - 1],
                   "[supernode-structure] row indices of supernode "
                       << s << " must be strictly ascending");
    }
    for (index_t j = first_col[static_cast<std::size_t>(s)];
         j < first_col[static_cast<std::size_t>(s) + 1]; ++j) {
      SPARTS_CHECK(sup_of_col[static_cast<std::size_t>(j)] == s,
                   "[supernode-contiguity] column "
                       << j << " not mapped to its supernode " << s);
    }
    // Parent supernode owns the first below-supernode row.
    const index_t parent = stree.parent[static_cast<std::size_t>(s)];
    if (static_cast<index_t>(ri.size()) > width(s)) {
      SPARTS_CHECK(parent != -1,
                   "[supernode-structure] supernode "
                       << s << " has below-diagonal rows but no parent");
      const index_t below = ri[static_cast<std::size_t>(width(s))];
      SPARTS_CHECK(sup_of_col[static_cast<std::size_t>(below)] == parent,
                   "[supernode-structure] first below row of supernode "
                       << s << " must land in its parent supernode");
    } else {
      SPARTS_CHECK(parent == -1,
                   "[supernode-structure] supernode "
                       << s << " has a parent but no below-diagonal rows");
    }
  }
}

SupernodePartition fundamental_supernodes(const SymbolicFactor& f) {
  const index_t n = f.n;
  SupernodePartition p;
  p.sup_of_col.assign(static_cast<std::size_t>(n), 0);
  p.first_col.push_back(0);

  // Column j extends the current supernode iff parent(j-1) == j and
  // |struct(j)| == |struct(j-1)| - 1 (then struct(j) = struct(j-1) \ {j-1},
  // which for sorted structures is implied by the counts and the etree).
  for (index_t j = 1; j < n; ++j) {
    const bool chain =
        f.etree.parent[static_cast<std::size_t>(j - 1)] == j &&
        static_cast<index_t>(f.col_rows(j).size()) ==
            static_cast<index_t>(f.col_rows(j - 1).size()) - 1;
    // Fundamental supernodes additionally require j-1 to be the *only*
    // child of j that chains — equivalently j must have exactly one child
    // with this property; for Cholesky structures the count test suffices
    // only if no other child exists.  Enforce it: j starts a new supernode
    // if any other column c < j-1 has parent j.
    bool other_child = false;
    if (chain) {
      // Cheap check: column j's structure minus itself must equal column
      // j-1's structure minus its first two entries.  With sorted arrays
      // this is a direct comparison and also rules out other children.
      auto sj = f.col_rows(j);
      auto sp = f.col_rows(j - 1);
      for (std::size_t k = 1; k < sj.size(); ++k) {
        if (sj[k] != sp[k + 1]) {
          other_child = true;
          break;
        }
      }
    }
    if (!(chain && !other_child)) {
      p.first_col.push_back(j);
    }
    p.sup_of_col[static_cast<std::size_t>(j)] =
        static_cast<index_t>(p.first_col.size()) - 1;
  }
  p.first_col.push_back(n);

  const index_t nsup = p.num_supernodes();
  p.rowptr.assign(static_cast<std::size_t>(nsup) + 1, 0);
  for (index_t s = 0; s < nsup; ++s) {
    const index_t j0 = p.first_col[static_cast<std::size_t>(s)];
    p.rowptr[static_cast<std::size_t>(s) + 1] =
        p.rowptr[static_cast<std::size_t>(s)] +
        static_cast<nnz_t>(f.col_rows(j0).size());
  }
  p.rows.resize(static_cast<std::size_t>(p.rowptr.back()));
  for (index_t s = 0; s < nsup; ++s) {
    const index_t j0 = p.first_col[static_cast<std::size_t>(s)];
    auto src = f.col_rows(j0);
    std::copy(src.begin(), src.end(),
              p.rows.begin() +
                  static_cast<std::ptrdiff_t>(p.rowptr[static_cast<std::size_t>(s)]));
  }

  // Supernodal elimination tree: parent of s owns the first row of s's
  // structure below s's own columns.
  p.stree.parent.assign(static_cast<std::size_t>(nsup), -1);
  for (index_t s = 0; s < nsup; ++s) {
    auto ri = p.row_indices(s);
    if (static_cast<index_t>(ri.size()) > p.width(s)) {
      const index_t below = ri[static_cast<std::size_t>(p.width(s))];
      p.stree.parent[static_cast<std::size_t>(s)] =
          p.sup_of_col[static_cast<std::size_t>(below)];
    }
  }
  SPARTS_VALIDATE_EXPENSIVE(p.check_consistent());
  return p;
}

SupernodePartition amalgamate(const SymbolicFactor& f,
                              const SupernodePartition& p, index_t max_width,
                              nnz_t relax_zeros) {
  const index_t nsup = p.num_supernodes();
  // Greedy bottom-up: a supernode merges into its parent when the parent
  // immediately follows it column-wise, combined width stays within
  // max_width, and the artificial zeros introduced per child column stay
  // within relax_zeros.  Union-find over supernode chains.
  std::vector<index_t> merged_into(static_cast<std::size_t>(nsup));
  for (index_t s = 0; s < nsup; ++s) merged_into[static_cast<std::size_t>(s)] = s;
  auto find = [&](index_t s) {
    while (merged_into[static_cast<std::size_t>(s)] != s) {
      s = merged_into[static_cast<std::size_t>(s)];
    }
    return s;
  };

  std::vector<index_t> group_width(static_cast<std::size_t>(nsup));
  std::vector<index_t> group_height(static_cast<std::size_t>(nsup));
  for (index_t s = 0; s < nsup; ++s) {
    group_width[static_cast<std::size_t>(s)] = p.width(s);
    group_height[static_cast<std::size_t>(s)] = p.height(s);
  }

  for (index_t s = 0; s < nsup; ++s) {
    const index_t parent = p.stree.parent[static_cast<std::size_t>(s)];
    if (parent == -1) continue;
    // Candidate only when the parent's columns start right after s's.
    if (p.first_col[static_cast<std::size_t>(parent)] !=
        p.first_col[static_cast<std::size_t>(s) + 1]) {
      continue;
    }
    const index_t gs = find(s);
    const index_t gp = find(parent);
    if (gs == gp) continue;
    const index_t w = group_width[static_cast<std::size_t>(gs)] +
                      group_width[static_cast<std::size_t>(gp)];
    if (w > max_width) continue;
    // Artificial zeros per child column if the child adopts the merged
    // height: merged height = child width + parent height; child's own
    // height may be smaller.
    const index_t merged_height =
        group_width[static_cast<std::size_t>(gs)] +
        group_height[static_cast<std::size_t>(gp)];
    const nnz_t zeros_per_col =
        static_cast<nnz_t>(merged_height) -
        group_height[static_cast<std::size_t>(gs)];
    if (zeros_per_col > relax_zeros) continue;
    merged_into[static_cast<std::size_t>(gs)] = gp;
    group_width[static_cast<std::size_t>(gp)] = w;
    group_height[static_cast<std::size_t>(gp)] = merged_height;
  }

  // Rebuild the partition: a new supernode per surviving group, columns
  // remain contiguous because we only merged column-adjacent supernodes.
  const index_t n = p.n();
  SupernodePartition q;
  q.sup_of_col.assign(static_cast<std::size_t>(n), -1);
  q.first_col.push_back(0);
  index_t current_group = find(p.sup_of_col[0]);
  for (index_t j = 1; j < n; ++j) {
    const index_t g = find(p.sup_of_col[static_cast<std::size_t>(j)]);
    if (g != current_group) {
      q.first_col.push_back(j);
      current_group = g;
    }
  }
  q.first_col.push_back(n);
  const index_t nq = q.num_supernodes();
  for (index_t s = 0; s < nq; ++s) {
    for (index_t j = q.first_col[static_cast<std::size_t>(s)];
         j < q.first_col[static_cast<std::size_t>(s) + 1]; ++j) {
      q.sup_of_col[static_cast<std::size_t>(j)] = s;
    }
  }

  // Row structure of a merged supernode: union of the first column's
  // structure with the supernode's own columns (the union equals
  // {own columns} ∪ struct(first column of the *parent-most* member)…
  // computed directly from the symbolic factor for robustness).
  q.rowptr.assign(static_cast<std::size_t>(nq) + 1, 0);
  std::vector<std::vector<index_t>> rows_of(static_cast<std::size_t>(nq));
  std::vector<index_t> mark(static_cast<std::size_t>(n), -1);
  for (index_t s = 0; s < nq; ++s) {
    auto& out = rows_of[static_cast<std::size_t>(s)];
    for (index_t j = q.first_col[static_cast<std::size_t>(s)];
         j < q.first_col[static_cast<std::size_t>(s) + 1]; ++j) {
      for (index_t i : f.col_rows(j)) {
        if (mark[static_cast<std::size_t>(i)] != s) {
          mark[static_cast<std::size_t>(i)] = s;
          out.push_back(i);
        }
      }
    }
    std::sort(out.begin(), out.end());
    q.rowptr[static_cast<std::size_t>(s) + 1] =
        q.rowptr[static_cast<std::size_t>(s)] +
        static_cast<nnz_t>(out.size());
  }
  q.rows.resize(static_cast<std::size_t>(q.rowptr.back()));
  for (index_t s = 0; s < nq; ++s) {
    const auto& out = rows_of[static_cast<std::size_t>(s)];
    std::copy(out.begin(), out.end(),
              q.rows.begin() + static_cast<std::ptrdiff_t>(
                                   q.rowptr[static_cast<std::size_t>(s)]));
  }

  q.stree.parent.assign(static_cast<std::size_t>(nq), -1);
  for (index_t s = 0; s < nq; ++s) {
    auto ri = q.row_indices(s);
    if (static_cast<index_t>(ri.size()) > q.width(s)) {
      const index_t below = ri[static_cast<std::size_t>(q.width(s))];
      q.stree.parent[static_cast<std::size_t>(s)] =
          q.sup_of_col[static_cast<std::size_t>(below)];
    }
  }
  SPARTS_VALIDATE_EXPENSIVE(q.check_consistent());
  return q;
}

}  // namespace sparts::symbolic
