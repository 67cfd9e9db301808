#include "numeric/supernodal_factor.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sparts::numeric {

SupernodalFactor::SupernodalFactor(symbolic::SupernodePartition partition)
    : part_(std::move(partition)) {
  const index_t nsup = part_.num_supernodes();
  offset_.assign(static_cast<std::size_t>(nsup) + 1, 0);
  for (index_t s = 0; s < nsup; ++s) {
    offset_[static_cast<std::size_t>(s) + 1] =
        offset_[static_cast<std::size_t>(s)] + part_.block_entries(s);
  }
  values_.assign(static_cast<std::size_t>(offset_.back()), 0.0);
}

std::span<real_t> SupernodalFactor::block(index_t s) {
  SPARTS_DCHECK(s >= 0 && s < num_supernodes());
  return {values_.data() + offset_[static_cast<std::size_t>(s)],
          static_cast<std::size_t>(part_.block_entries(s))};
}

std::span<const real_t> SupernodalFactor::block(index_t s) const {
  SPARTS_DCHECK(s >= 0 && s < num_supernodes());
  return {values_.data() + offset_[static_cast<std::size_t>(s)],
          static_cast<std::size_t>(part_.block_entries(s))};
}

real_t SupernodalFactor::at(index_t i, index_t j) const {
  SPARTS_CHECK(i >= j, "at() expects lower-triangle coordinates");
  const index_t s = part_.sup_of_col[static_cast<std::size_t>(j)];
  const index_t k = j - part_.first_col[static_cast<std::size_t>(s)];
  auto rows = part_.row_indices(s);
  auto it = std::lower_bound(rows.begin(), rows.end(), i);
  if (it == rows.end() || *it != i) return 0.0;
  const index_t pos = static_cast<index_t>(it - rows.begin());
  return block(s)[static_cast<std::size_t>(k * part_.height(s) + pos)];
}

nnz_t SupernodalFactor::solve_flops(index_t m) const {
  nnz_t flops = 0;
  for (index_t s = 0; s < num_supernodes(); ++s) {
    flops += 2 * part_.solve_flops(s, m);  // forward + backward
  }
  return flops;
}

}  // namespace sparts::numeric
