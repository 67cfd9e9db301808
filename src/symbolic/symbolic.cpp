#include "symbolic/symbolic.hpp"

#include <algorithm>

#include "common/checks.hpp"
#include "common/error.hpp"
#include "sparse/validate.hpp"

namespace sparts::symbolic {

SymbolicFactor symbolic_cholesky(const sparse::SymmetricCsc& a) {
  SPARTS_VALIDATE_EXPENSIVE(sparse::validate_symmetric_csc(a));
  const index_t n = a.n();
  SymbolicFactor f;
  f.n = n;
  f.etree = ordering::elimination_tree(a);
  auto children = ordering::tree_children(f.etree);

  // Build column structures bottom-up.  A marker array deduplicates the
  // merge of A's column with the children's structures.
  std::vector<std::vector<index_t>> cols(static_cast<std::size_t>(n));
  std::vector<index_t> mark(static_cast<std::size_t>(n), -1);
  nnz_t total = 0;
  for (index_t j = 0; j < n; ++j) {
    std::vector<index_t>& out = cols[static_cast<std::size_t>(j)];
    mark[static_cast<std::size_t>(j)] = j;
    out.push_back(j);
    for (index_t i : a.col_rows(j)) {
      if (i > j && mark[static_cast<std::size_t>(i)] != j) {
        mark[static_cast<std::size_t>(i)] = j;
        out.push_back(i);
      }
    }
    for (index_t c : children[static_cast<std::size_t>(j)]) {
      for (index_t i : cols[static_cast<std::size_t>(c)]) {
        if (i > j && mark[static_cast<std::size_t>(i)] != j) {
          mark[static_cast<std::size_t>(i)] = j;
          out.push_back(i);
        }
      }
    }
    std::sort(out.begin(), out.end());
    SPARTS_DCHECK(out.front() == j);
    total += static_cast<nnz_t>(out.size());
  }

  f.colptr.assign(static_cast<std::size_t>(n) + 1, 0);
  f.rowind.reserve(static_cast<std::size_t>(total));
  for (index_t j = 0; j < n; ++j) {
    f.colptr[static_cast<std::size_t>(j)] =
        static_cast<nnz_t>(f.rowind.size());
    const auto& cj = cols[static_cast<std::size_t>(j)];
    f.rowind.insert(f.rowind.end(), cj.begin(), cj.end());
  }
  f.colptr[static_cast<std::size_t>(n)] = static_cast<nnz_t>(f.rowind.size());
  return f;
}

std::vector<index_t> SymbolicFactor::column_counts() const {
  std::vector<index_t> counts(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    counts[static_cast<std::size_t>(j)] =
        static_cast<index_t>(col_rows(j).size());
  }
  return counts;
}

nnz_t SymbolicFactor::factorization_flops() const {
  nnz_t flops = 0;
  for (index_t j = 0; j < n; ++j) {
    flops +=
        column_factorization_flops(static_cast<nnz_t>(col_rows(j).size()));
  }
  return flops;
}

}  // namespace sparts::symbolic
