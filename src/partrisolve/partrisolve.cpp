#include "partrisolve/partrisolve.hpp"

#include <algorithm>

#include "common/checks.hpp"
#include "common/error.hpp"
#include "common/finite.hpp"
#include "common/prefetch.hpp"
#include "dense/kernels.hpp"
#include "obs/span.hpp"
#include "mapping/block_cyclic.hpp"
#include "ordering/etree.hpp"
#include "partrisolve/layout.hpp"
#include "partrisolve/packets.hpp"
#include "partrisolve/solve_dag.hpp"
#include "exec/collectives.hpp"
#include "exec/reliable.hpp"

namespace sparts::partrisolve {

namespace {

// Message tags.  Contribution and copy packets are one-shot per
// (edge, supernode), so they key on the supernode id.  Tokens of the
// pipelined kernels key on the *global pivot-block id* (the supernode's
// block_base plus the block index): several tokens of one supernode can
// be in flight on the same ring edge at once, and no two in-flight
// messages may share a (src, dst, tag) triple.  The residues mod 4 keep
// the four streams disjoint.
int tag_fw_contrib(index_t s) { return static_cast<int>(4 * s + 0); }
int tag_bw_copy(index_t s) { return static_cast<int>(4 * s + 2); }

}  // namespace

namespace detail {

/// Rows one rank sends to one peer across a child/parent edge.
struct Packet {
  index_t peer = -1;               ///< destination world rank
  std::vector<index_t> positions;  ///< positions in the receiver's rows
  std::vector<index_t> local;      ///< sender's packed local offsets
};

/// A child supernode the backward sweep sends rows down to.
struct ChildLink {
  index_t child = -1;           ///< supernode id (message tag)
  index_t step = -1;            ///< the child's step on this rank when rows
                                ///< are copied locally, else -1
  std::vector<Packet> packets;  ///< remote rows, ascending peer
};

/// One rank's share of one supernode: everything a sweep needs that
/// depends only on the factor structure, the mapping and the block size.
struct Step {
  index_t s = 0;
  index_t r = 0;  ///< rank within s's group
  Layout lay;
  index_t nloc = 0;  ///< packed rows this rank holds
  /// Factor view: the packed local block under strict storage (read at the
  /// step, so a fused prologue may fill it first), else the shared block.
  const PanelVector* panel = nullptr;
  const real_t* shared = nullptr;
  /// (packed local offset, global row) of the owned pivot rows.
  std::vector<std::pair<index_t, index_t>> pivots;
  /// Row offsets of the fragment in the rank's forward / backward
  /// frontier scratch.
  index_t fw_offset = 0;
  index_t bw_offset = 0;
  /// Forward: no local child hand-off touched the fragment before this
  /// step, so the step zero-fills and gathers it itself.
  bool fw_init = true;
  /// Forward: this step's hand-off is the first touch of the parent's
  /// fragment on this rank.
  bool fw_init_parent = false;
  /// The parent's step on this rank when rows hand off locally, else -1.
  index_t parent_step = -1;
  /// (my local offset, parent's local offset) of the below rows whose
  /// child and parent owners are both this rank, ascending position.  The
  /// forward sweep adds along it; the backward sweep copies back along it.
  std::vector<std::pair<index_t, index_t>> handoff;
  /// Forward: (source world rank, child) contributions to receive, in the
  /// order they are consumed.
  std::vector<std::pair<index_t, index_t>> fw_recv;
  std::vector<Packet> fw_send;      ///< rows for remote parent owners
  std::vector<index_t> bw_recv;     ///< parent ranks that send rows down
  std::vector<ChildLink> children;  ///< backward sends, children order
};

struct RankPlan {
  std::vector<Step> steps;  ///< forward order; backward walks it reversed
  index_t frontier_rows = 0;  ///< scratch rows (times m) either sweep uses
};

}  // namespace detail

namespace {

using detail::ChildLink;
using detail::Packet;
using detail::RankPlan;
using detail::Step;

/// Row ranges of one rank's frontier scratch, handed out in sweep order.
/// First fit: a fragment takes the lowest free gap it fits in, else the
/// top, so the scratch stays close to the sweep frontier's peak.
class FrontierArena {
 public:
  /// Place a fragment of `rows` rows; returns its offset.
  index_t place(index_t rows) {
    if (rows == 0) return 0;
    for (auto it = gaps_.begin(); it != gaps_.end(); ++it) {
      if (it->rows < rows) continue;
      const index_t at = it->offset;
      it->offset += rows;
      it->rows -= rows;
      if (it->rows == 0) gaps_.erase(it);
      return at;
    }
    const index_t at = top_;
    top_ += rows;
    peak_ = std::max(peak_, top_);
    return at;
  }
  /// Free the fragment place() put at `offset`.
  void release(index_t offset, index_t rows) {
    if (rows == 0) return;
    auto next = std::lower_bound(
        gaps_.begin(), gaps_.end(), offset,
        [](const Gap& g, index_t off) { return g.offset < off; });
    const bool joins_prev =
        next != gaps_.begin() && std::prev(next)->offset +
                                         std::prev(next)->rows == offset;
    const bool joins_next =
        next != gaps_.end() && offset + rows == next->offset;
    if (joins_prev && joins_next) {
      std::prev(next)->rows += rows + next->rows;
      gaps_.erase(next);
    } else if (joins_prev) {
      std::prev(next)->rows += rows;
    } else if (joins_next) {
      next->offset = offset;
      next->rows += rows;
    } else {
      gaps_.insert(next, Gap{offset, rows});
    }
    if (!gaps_.empty() && gaps_.back().offset + gaps_.back().rows == top_) {
      top_ = gaps_.back().offset;
      gaps_.pop_back();
    }
  }
  index_t peak() const { return peak_; }

 private:
  struct Gap {
    index_t offset;
    index_t rows;
  };
  std::vector<Gap> gaps_;  ///< free ranges below top_, ascending, coalesced
  index_t top_ = 0;
  index_t peak_ = 0;
};

/// Append the row of position `pos` (local offset `lo`) to the packet for
/// `peer`, keeping one packet per peer.
void add_to_packet(std::vector<Packet>& packets, index_t peer, index_t pos,
                   index_t lo) {
  auto it = std::find_if(packets.rbegin(), packets.rend(),
                         [peer](const Packet& p) { return p.peer == peer; });
  Packet* pk = nullptr;
  if (it == packets.rend()) {
    pk = &packets.emplace_back();
    pk->peer = peer;
  } else {
    pk = &*it;
  }
  pk->positions.push_back(pos);
  pk->local.push_back(lo);
}

void sort_by_peer(std::vector<Packet>& packets) {
  std::sort(packets.begin(), packets.end(),
            [](const Packet& a, const Packet& b) { return a.peer < b.peer; });
}

/// Everything a shared-supernode kernel needs, bundled to keep lambdas
/// small.
struct PhaseContext {
  const mapping::SubcubeMapping& map;
  const std::vector<index_t>& block_base;  ///< global id of first pivot block
  index_t m;
};

/// Token tag for pivot block k of supernode s (see the tag notes above).
int tag_fw_token(const PhaseContext& ctx, index_t s, index_t k) {
  return static_cast<int>(
      4 * (ctx.block_base[static_cast<std::size_t>(s)] + k) + 1);
}
int tag_bw_token(const PhaseContext& ctx, index_t s, index_t k) {
  return static_cast<int>(
      4 * (ctx.block_base[static_cast<std::size_t>(s)] + k) + 3);
}

/// View of one supernode's factor trapezoid as seen by one rank: either
/// the shared host-resident block (rows indexed by global position) or the
/// rank's packed local copy from a DistributedFactor (rows indexed by
/// packed local offset).  Every access in the kernels below is to a row
/// the rank owns, so both forms serve the same requests.
struct LView {
  const real_t* base = nullptr;
  index_t ld = 0;
  bool packed = false;
  const Layout* lay = nullptr;

  index_t row(index_t pos) const { return packed ? lay->local_of(pos) : pos; }
  const real_t* col(index_t c) const { return base + c * ld; }
};

/// First block > K owned by rank r (blocks are owned cyclically).
index_t first_owned_block_after(index_t k, index_t r, index_t q) {
  const index_t start = k + 1;
  const index_t shift = ((r - start) % q + q) % q;
  return start + shift;
}

// ---------------------------------------------------------------------------
// Forward elimination kernels on one shared supernode.
// ---------------------------------------------------------------------------

/// Apply token x_K to every block row of rank r strictly below block K.
void fw_apply_token_to_my_blocks(exec::Process& proc, const PhaseContext& ctx,
                                 const Layout& lay, index_t r,
                                 const LView& lv, index_t k,
                                 std::span<const real_t> token, real_t* v,
                                 index_t ldv) {
  const index_t c0 = lay.col_begin(k);
  const index_t bk = lay.col_end(k) - c0;
  for (index_t i = first_owned_block_after(k, r, lay.q); i < lay.num_blocks();
       i += lay.q) {
    const index_t i0 = lay.block_begin(i);
    const index_t len = lay.block_end(i) - i0;
    // Warm the next owned block's L panel while this GEMM runs: the walk
    // is strided by q, so the hardware prefetcher does not see it coming.
    const index_t inext = i + lay.q;
    if (inext < lay.num_blocks()) {
      common::prefetch_panel(
          lv.col(c0) + lv.row(lay.block_begin(inext)),
          static_cast<std::size_t>(lay.block_end(inext) -
                                   lay.block_begin(inext)) *
              sizeof(real_t));
    }
    dense::panel_gemm(len, ctx.m, bk, -1.0, lv.col(c0) + lv.row(i0), lv.ld,
                      token.data(), bk, v + lay.local_of(i0), ldv);
    proc.compute_at(static_cast<double>(dense::gemm_flops(len, ctx.m, bk)),
                    proc.cost().panel_flop(ctx.m));
  }
}

/// Column-priority pipelined forward elimination (paper Fig. 3c).
void fw_pipelined_column_priority(exec::Process& proc, const PhaseContext& ctx,
                                  index_t s, const Layout& lay, index_t r,
                                  const LView& lv, real_t* v,
                                  index_t ldv) {
  const index_t q = lay.q;
  const exec::Group g = ctx.map.group[static_cast<std::size_t>(s)];
  const index_t next = g.base + (r + 1) % q;
  const index_t prev = g.base + (r + q - 1) % q;
  const index_t tb = lay.num_pivot_blocks();
  const index_t m = ctx.m;

  for (index_t k = 0; k < tb; ++k) {
    SPARTS_TRACE_SPAN(proc, obs::Category::compute, "fw.block",
                      static_cast<std::int64_t>(k),
                      static_cast<std::int64_t>(s));
    const index_t owner = lay.owner_of_block(k);
    const index_t c0 = lay.col_begin(k);
    const index_t c1 = lay.col_end(k);
    const index_t bk = c1 - c0;
    std::vector<real_t> token;
    if (r == owner) {
      // The diagonal block's rows of V are fully updated; solve.
      const index_t lo = lay.local_of(c0);
      proc.compute_at(static_cast<double>(dense::panel_trsm_lower(
                          bk, m, lv.col(c0) + lv.row(c0), lv.ld, v + lo, ldv)),
                      proc.cost().panel_flop(m));
      token.resize(static_cast<std::size_t>(bk * m));
      for (index_t c = 0; c < m; ++c) {
        for (index_t i = 0; i < bk; ++i) {
          token[static_cast<std::size_t>(c * bk + i)] = v[c * ldv + lo + i];
        }
      }
      proc.compute_at(static_cast<double>(bk * m), proc.cost().t_mem);
      if (q > 1) {
        proc.send_values<real_t>(next, tag_fw_token(ctx, s, k), token);
      }
      // Mixed tail: below-part rows sharing block K (only the last pivot
      // block when b does not divide t).
      const index_t tail0 = c1;
      const index_t tail1 = lay.block_end(k);
      if (tail1 > tail0) {
        const index_t len = tail1 - tail0;
        dense::panel_gemm(len, m, bk, -1.0, lv.col(c0) + lv.row(tail0), lv.ld,
                          token.data(), bk, v + lay.local_of(tail0), ldv);
        proc.compute_at(static_cast<double>(dense::gemm_flops(len, m, bk)),
                        proc.cost().panel_flop(m));
      }
    } else {
      token = proc.recv_values<real_t>(prev, tag_fw_token(ctx, s, k));
      check_finite_cheap(token, "fw token", s);
      if ((r + 1) % q != owner) {
        proc.send_values<real_t>(next, tag_fw_token(ctx, s, k), token);
      }
    }
    fw_apply_token_to_my_blocks(proc, ctx, lay, r, lv, k, token, v,
                                ldv);
  }
}

/// Row-priority pipelined forward elimination (paper Fig. 3b): each rank
/// walks its own block rows in ascending order, buffering tokens.
void fw_pipelined_row_priority(exec::Process& proc, const PhaseContext& ctx,
                               index_t s, const Layout& lay, index_t r,
                               const LView& lv, real_t* v,
                               index_t ldv) {
  const index_t q = lay.q;
  const exec::Group g = ctx.map.group[static_cast<std::size_t>(s)];
  const index_t next = g.base + (r + 1) % q;
  const index_t prev = g.base + (r + q - 1) % q;
  const index_t tb = lay.num_pivot_blocks();
  const index_t m = ctx.m;

  std::vector<std::vector<real_t>> tokens(static_cast<std::size_t>(tb));
  // Which tokens are in hand (an empty token is valid: m may be 0).
  std::vector<char> have(static_cast<std::size_t>(tb), 0);
  index_t next_foreign = 0;
  auto advance_foreign = [&] {
    while (next_foreign < tb && lay.owner_of_block(next_foreign) == r) {
      ++next_foreign;
    }
  };
  advance_foreign();
  auto obtain = [&](index_t k) -> const std::vector<real_t>& {
    // Foreign tokens arrive in ascending order over the ring; my own were
    // produced when I processed their diagonal block.
    while (have[static_cast<std::size_t>(k)] == 0) {
      SPARTS_CHECK(next_foreign <= k, "token ordering violated");
      auto tok =
          proc.recv_values<real_t>(prev, tag_fw_token(ctx, s, next_foreign));
      check_finite_cheap(tok, "fw token", s);
      if ((r + 1) % q != lay.owner_of_block(next_foreign)) {
        proc.send_values<real_t>(next, tag_fw_token(ctx, s, next_foreign),
                                 tok);
      }
      tokens[static_cast<std::size_t>(next_foreign)] = std::move(tok);
      have[static_cast<std::size_t>(next_foreign)] = 1;
      ++next_foreign;
      advance_foreign();
    }
    return tokens[static_cast<std::size_t>(k)];
  };
  auto apply = [&](index_t k, index_t i0, index_t len,
                   const std::vector<real_t>& tok) {
    const index_t c0 = lay.col_begin(k);
    const index_t bk = lay.col_end(k) - c0;
    dense::panel_gemm(len, m, bk, -1.0, lv.col(c0) + lv.row(i0), lv.ld, tok.data(),
                      bk, v + lay.local_of(i0), ldv);
    proc.compute_at(static_cast<double>(dense::gemm_flops(len, m, bk)),
                    proc.cost().panel_flop(m));
  };

  for (index_t i = r; i < lay.num_blocks(); i += q) {
    SPARTS_TRACE_SPAN(proc, obs::Category::compute, "fw.row_block",
                      static_cast<std::int64_t>(i),
                      static_cast<std::int64_t>(s));
    const index_t i0 = lay.block_begin(i);
    const index_t i1 = lay.block_end(i);
    if (i < tb) {
      // Update this row block with all earlier columns, then solve its
      // diagonal block (I always own column block i of my own row block).
      for (index_t k = 0; k < i; ++k) apply(k, i0, i1 - i0, obtain(k));
      const index_t c1 = lay.col_end(i);
      const index_t bk = c1 - i0;
      const index_t lo = lay.local_of(i0);
      proc.compute_at(static_cast<double>(dense::panel_trsm_lower(
                          bk, m, lv.col(i0) + lv.row(i0), lv.ld, v + lo, ldv)),
                      proc.cost().panel_flop(m));
      std::vector<real_t> token(static_cast<std::size_t>(bk * m));
      for (index_t c = 0; c < m; ++c) {
        for (index_t ii = 0; ii < bk; ++ii) {
          token[static_cast<std::size_t>(c * bk + ii)] = v[c * ldv + lo + ii];
        }
      }
      proc.compute_at(static_cast<double>(bk * m), proc.cost().t_mem);
      if (q > 1) proc.send_values<real_t>(next, tag_fw_token(ctx, s, i), token);
      if (i1 > c1) {
        // Mixed tail rows of this block need my fresh token as well.
        apply(i, c1, i1 - c1, token);
      }
      tokens[static_cast<std::size_t>(i)] = std::move(token);
      have[static_cast<std::size_t>(i)] = 1;
    } else {
      for (index_t k = 0; k < tb; ++k) apply(k, i0, i1 - i0, obtain(k));
    }
  }
  // Drain tokens this rank never needed locally (it must still forward
  // them so downstream ranks receive the full stream).
  while (next_foreign < tb) {
    auto tok =
        proc.recv_values<real_t>(prev, tag_fw_token(ctx, s, next_foreign));
    if ((r + 1) % q != lay.owner_of_block(next_foreign)) {
      proc.send_values<real_t>(next, tag_fw_token(ctx, s, next_foreign), tok);
    }
    tokens[static_cast<std::size_t>(next_foreign)] = std::move(tok);
    ++next_foreign;
    advance_foreign();
  }
}

/// Fan-out (non-pipelined) forward elimination: the owner of each pivot
/// block broadcasts the solved sub-vector to the whole group.  Costs
/// ~log q startups per block instead of overlapping them — the baseline
/// the paper's ring pipeline improves on.
void fw_fan_out(exec::Process& proc, const PhaseContext& ctx, index_t s,
                const Layout& lay, index_t r, const LView& lv,
                real_t* v, index_t ldv) {
  const exec::Group g = ctx.map.group[static_cast<std::size_t>(s)];
  const index_t tb = lay.num_pivot_blocks();
  const index_t m = ctx.m;

  for (index_t k = 0; k < tb; ++k) {
    SPARTS_TRACE_SPAN(proc, obs::Category::compute, "fw.block",
                      static_cast<std::int64_t>(k),
                      static_cast<std::int64_t>(s));
    const index_t owner = lay.owner_of_block(k);
    const index_t c0 = lay.col_begin(k);
    const index_t c1 = lay.col_end(k);
    const index_t bk = c1 - c0;
    std::vector<real_t> token;
    if (r == owner) {
      const index_t lo = lay.local_of(c0);
      proc.compute_at(static_cast<double>(dense::panel_trsm_lower(
                          bk, m, lv.col(c0) + lv.row(c0), lv.ld, v + lo, ldv)),
                      proc.cost().panel_flop(m));
      token.resize(static_cast<std::size_t>(bk * m));
      for (index_t c = 0; c < m; ++c) {
        for (index_t i = 0; i < bk; ++i) {
          token[static_cast<std::size_t>(c * bk + i)] = v[c * ldv + lo + i];
        }
      }
      proc.compute_at(static_cast<double>(bk * m), proc.cost().t_mem);
      const index_t tail0 = c1;
      const index_t tail1 = lay.block_end(k);
      if (tail1 > tail0) {
        const index_t len = tail1 - tail0;
        dense::panel_gemm(len, m, bk, -1.0, lv.col(c0) + lv.row(tail0), lv.ld,
                          token.data(), bk, v + lay.local_of(tail0), ldv);
        proc.compute_at(static_cast<double>(dense::gemm_flops(len, m, bk)),
                        proc.cost().panel_flop(m));
      }
    }
    exec::broadcast_from(proc, g, owner, token, tag_fw_token(ctx, s, k));
    fw_apply_token_to_my_blocks(proc, ctx, lay, r, lv, k, token, v,
                                ldv);
  }
}

// ---------------------------------------------------------------------------
// Backward substitution kernel on one shared supernode (paper Fig. 4).
// ---------------------------------------------------------------------------

void bw_pipelined(exec::Process& proc, const PhaseContext& ctx, index_t s,
                  const Layout& lay, index_t r, const LView& lv,
                  real_t* w, index_t ldw) {
  const index_t q = lay.q;
  const exec::Group g = ctx.map.group[static_cast<std::size_t>(s)];
  // The partial-sum token for column K travels the ring in the -1
  // direction, starting at owner(K)-1 and ending at owner(K).  This order
  // matters: the chain's early links only need x-values of long-finished
  // columns, and the freshest dependency (x_{K+1}, solved by the
  // immediately preceding chain) is added at the second-to-last link — so
  // successive columns' chains overlap in a wavefront exactly as in the
  // paper's Fig. 4.  (Running the chain the other way serializes every
  // chain behind the completion of the previous column: tb*q hops instead
  // of ~q + tb.)
  const index_t next = g.base + (r + q - 1) % q;
  const index_t prev = g.base + (r + 1) % q;
  const index_t tb = lay.num_pivot_blocks();
  const index_t m = ctx.m;

  for (index_t k = tb - 1; k >= 0; --k) {
    SPARTS_TRACE_SPAN(proc, obs::Category::compute, "bw.block",
                      static_cast<std::int64_t>(k),
                      static_cast<std::int64_t>(s));
    const index_t owner = lay.owner_of_block(k);
    const index_t c0 = lay.col_begin(k);
    const index_t c1 = lay.col_end(k);
    const index_t bk = c1 - c0;

    // Local partial sum: L(I, K)^T * w_I over my block rows below K.
    std::vector<real_t> acc(static_cast<std::size_t>(bk * m), 0.0);
    for (index_t i = first_owned_block_after(k, r, q); i < lay.num_blocks();
         i += q) {
      const index_t i0 = lay.block_begin(i);
      const index_t len = lay.block_end(i) - i0;
      // Warm the next owned block's L panel (q-strided walk, see the
      // forward sweep).
      const index_t inext = i + q;
      if (inext < lay.num_blocks()) {
        common::prefetch_panel(
            lv.col(c0) + lv.row(lay.block_begin(inext)),
            static_cast<std::size_t>(lay.block_end(inext) -
                                     lay.block_begin(inext)) *
                sizeof(real_t));
      }
      dense::panel_gemm_at(bk, m, len, 1.0, lv.col(c0) + lv.row(i0), lv.ld,
                           w + lay.local_of(i0), ldw, acc.data(), bk);
      proc.compute_at(static_cast<double>(dense::gemm_flops(bk, m, len)),
                      proc.cost().panel_flop(m));
    }
    if (r == owner && lay.block_end(k) > c1) {
      // Mixed tail rows of block K (below-part rows in the pivot block).
      const index_t len = lay.block_end(k) - c1;
      dense::panel_gemm_at(bk, m, len, 1.0, lv.col(c0) + lv.row(c1), lv.ld,
                           w + lay.local_of(c1), ldw, acc.data(), bk);
      proc.compute_at(static_cast<double>(dense::gemm_flops(bk, m, len)),
                      proc.cost().panel_flop(m));
    }

    const index_t chain_pos = ((k - 1 - r) % q + q) % q;
    if (r != owner) {
      if (chain_pos != 0) {
        auto in = proc.recv_values<real_t>(prev, tag_bw_token(ctx, s, k));
        check_finite_cheap(in, "bw token", s);
        SPARTS_CHECK(in.size() == acc.size());
        for (std::size_t z = 0; z < acc.size(); ++z) acc[z] += in[z];
        proc.compute_at(static_cast<double>(acc.size()),
                        proc.cost().t_mem);
      }
      proc.send_values<real_t>(next, tag_bw_token(ctx, s, k), acc);
    } else {
      if (q > 1) {
        auto in = proc.recv_values<real_t>(prev, tag_bw_token(ctx, s, k));
        check_finite_cheap(in, "bw token", s);
        SPARTS_CHECK(in.size() == acc.size());
        for (std::size_t z = 0; z < acc.size(); ++z) acc[z] += in[z];
        proc.compute_at(static_cast<double>(acc.size()),
                        proc.cost().t_mem);
      }
      // w_K <- L(K,K)^{-T} (w_K - acc).
      const index_t lo = lay.local_of(c0);
      for (index_t c = 0; c < m; ++c) {
        for (index_t i = 0; i < bk; ++i) {
          w[c * ldw + lo + i] -= acc[static_cast<std::size_t>(c * bk + i)];
        }
      }
      proc.compute_at(static_cast<double>(bk * m), proc.cost().t_mem);
      proc.compute_at(
          static_cast<double>(dense::panel_trsm_lower_transposed(
              bk, m, lv.col(c0) + lv.row(c0), lv.ld, w + lo, ldw)),
          proc.cost().panel_flop(m));
    }
  }
}

/// Fan-in (non-pipelined) backward substitution: each column's partial
/// sums are combined with a log-q reduction to the diagonal owner instead
/// of flowing along the ring.
void bw_fan_in(exec::Process& proc, const PhaseContext& ctx, index_t s,
               const Layout& lay, index_t r, const LView& lv,
               real_t* w, index_t ldw) {
  const index_t q = lay.q;
  const exec::Group g = ctx.map.group[static_cast<std::size_t>(s)];
  const index_t tb = lay.num_pivot_blocks();
  const index_t m = ctx.m;

  for (index_t k = tb - 1; k >= 0; --k) {
    SPARTS_TRACE_SPAN(proc, obs::Category::compute, "bw.block",
                      static_cast<std::int64_t>(k),
                      static_cast<std::int64_t>(s));
    const index_t owner = lay.owner_of_block(k);
    const index_t c0 = lay.col_begin(k);
    const index_t c1 = lay.col_end(k);
    const index_t bk = c1 - c0;

    std::vector<real_t> acc(static_cast<std::size_t>(bk * m), 0.0);
    for (index_t i = first_owned_block_after(k, r, q); i < lay.num_blocks();
         i += q) {
      const index_t i0 = lay.block_begin(i);
      const index_t len = lay.block_end(i) - i0;
      // Warm the next owned block's L panel (q-strided walk, see the
      // forward sweep).
      const index_t inext = i + q;
      if (inext < lay.num_blocks()) {
        common::prefetch_panel(
            lv.col(c0) + lv.row(lay.block_begin(inext)),
            static_cast<std::size_t>(lay.block_end(inext) -
                                     lay.block_begin(inext)) *
                sizeof(real_t));
      }
      dense::panel_gemm_at(bk, m, len, 1.0, lv.col(c0) + lv.row(i0), lv.ld,
                           w + lay.local_of(i0), ldw, acc.data(), bk);
      proc.compute_at(static_cast<double>(dense::gemm_flops(bk, m, len)),
                      proc.cost().panel_flop(m));
    }
    if (r == owner && lay.block_end(k) > c1) {
      const index_t len = lay.block_end(k) - c1;
      dense::panel_gemm_at(bk, m, len, 1.0, lv.col(c0) + lv.row(c1), lv.ld,
                           w + lay.local_of(c1), ldw, acc.data(), bk);
      proc.compute_at(static_cast<double>(dense::gemm_flops(bk, m, len)),
                      proc.cost().panel_flop(m));
    }
    exec::reduce_sum_to(proc, g, owner, acc, tag_bw_token(ctx, s, k));
    if (r == owner) {
      const index_t lo = lay.local_of(c0);
      for (index_t c = 0; c < m; ++c) {
        for (index_t i = 0; i < bk; ++i) {
          w[c * ldw + lo + i] -= acc[static_cast<std::size_t>(c * bk + i)];
        }
      }
      proc.compute_at(static_cast<double>(bk * m), proc.cost().t_mem);
      proc.compute_at(
          static_cast<double>(dense::panel_trsm_lower_transposed(
              bk, m, lv.col(c0) + lv.row(c0), lv.ld, w + lo, ldw)),
          proc.cost().panel_flop(m));
    }
  }
}


// ---------------------------------------------------------------------------
// The solve plan: built once per trisolver, walked by every sweep.
// ---------------------------------------------------------------------------

/// Every rank's share of every supernode it belongs to, in the forward
/// sweep order `schedule`, with the hand-off maps, packet routing and
/// frontier placement resolved.
std::vector<RankPlan> build_plan(const numeric::SupernodalFactor& factor,
                                 const DistributedFactor* local_values,
                                 const mapping::SubcubeMapping& map,
                                 index_t b,
                                 const std::vector<exec::TaskId>& schedule) {
  const auto& part = factor.partition();
  const index_t nsup = part.num_supernodes();
  auto group = [&](index_t s) -> const exec::Group& {
    return map.group[static_cast<std::size_t>(s)];
  };
  auto layout = [&](index_t s) {
    return Layout{group(s).count, b, part.height(s), part.width(s)};
  };

  // Steps, in schedule order per rank.  Rank r's step of supernode s is
  // plan[base + r].steps[step_at[share[s] + r]].
  std::vector<RankPlan> plan(static_cast<std::size_t>(map.p));
  std::vector<index_t> share(static_cast<std::size_t>(nsup) + 1, 0);
  std::vector<std::size_t> steps_of_rank(static_cast<std::size_t>(map.p), 0);
  for (index_t s = 0; s < nsup; ++s) {
    const exec::Group& g = group(s);
    share[static_cast<std::size_t>(s) + 1] =
        share[static_cast<std::size_t>(s)] + g.count;
    for (index_t r = 0; r < g.count; ++r) {
      ++steps_of_rank[static_cast<std::size_t>(g.base + r)];
    }
  }
  for (std::size_t w = 0; w < plan.size(); ++w) {
    plan[w].steps.reserve(steps_of_rank[w]);
  }
  std::vector<index_t> step_at(
      static_cast<std::size_t>(share[static_cast<std::size_t>(nsup)]));
  auto step_index = [&](index_t s, index_t r) {
    return step_at[static_cast<std::size_t>(
        share[static_cast<std::size_t>(s)] + r)];
  };
  auto step_of = [&](index_t s, index_t r) -> Step& {
    return plan[static_cast<std::size_t>(group(s).base + r)]
        .steps[static_cast<std::size_t>(step_index(s, r))];
  };
  for (const index_t s : schedule) {
    const exec::Group& g = group(s);
    const Layout lay = layout(s);
    const auto rows = part.row_indices(s);
    for (index_t r = 0; r < g.count; ++r) {
      const index_t w = g.base + r;
      auto& steps = plan[static_cast<std::size_t>(w)].steps;
      step_at[static_cast<std::size_t>(share[static_cast<std::size_t>(s)] +
                                       r)] =
          static_cast<index_t>(steps.size());
      Step& st = steps.emplace_back();
      st.s = s;
      st.r = r;
      st.lay = lay;
      st.nloc = lay.local_count(r);
      if (local_values != nullptr) {
        st.panel = &local_values->local_block(w, s);
        SPARTS_CHECK(local_values->local_rows(w, s) == st.nloc,
                     "DistributedFactor layout does not match the mapping");
      } else {
        st.shared = factor.block(s).data();
      }
      for (index_t blk = r; blk < lay.num_pivot_blocks(); blk += lay.q) {
        const index_t end = std::min(lay.block_end(blk), lay.t);
        for (index_t i = lay.block_begin(blk); i < end; ++i) {
          st.pivots.emplace_back(lay.local_of(i),
                                 rows[static_cast<std::size_t>(i)]);
        }
      }
    }
  }

  // Owner and packed offset of a position; a sequential supernode (q = 1)
  // holds every position at its own offset, without block arithmetic.
  auto owner = [](const Layout& l, index_t pos) {
    return l.q == 1 ? 0 : l.owner_of(pos);
  };
  auto local = [](const Layout& l, index_t pos) {
    return l.q == 1 ? pos : l.local_of(pos);
  };

  // Child -> parent edges: every below row of a child lands at one
  // position of its parent.  Owners equal on both sides make a local
  // hand-off; otherwise the row travels in the forward packet to the
  // parent owner and in the backward packet to the child owner.
  const auto children = ordering::tree_children(part.stree);
  std::vector<std::pair<index_t, index_t>> pairs;
  for (index_t parent = 0; parent < nsup; ++parent) {
    const exec::Group& pg = group(parent);
    const Layout play = layout(parent);
    const auto prows = part.row_indices(parent);
    for (const index_t c : children[static_cast<std::size_t>(parent)]) {
      const exec::Group& cg = group(c);
      const Layout clay = layout(c);
      const auto rows = part.row_indices(c);
      pairs.clear();
      // Every row hands off locally: size the map exactly.
      if (cg.count == 1 && pg.count == 1 && cg.base == pg.base) {
        step_of(c, 0).handoff.reserve(
            static_cast<std::size_t>(clay.ns - clay.t));
      }
      Step* cs = nullptr;
      Step* ps = nullptr;
      std::size_t j = 0;  // both row lists ascend: merge
      for (index_t pos = clay.t; pos < clay.ns; ++pos) {
        const index_t row = rows[static_cast<std::size_t>(pos)];
        while (j < prows.size() && prows[j] < row) ++j;
        SPARTS_CHECK(j < prows.size() && prows[j] == row,
                     "child row " << row << " missing from parent structure");
        const index_t ppos = static_cast<index_t>(j);
        const index_t rc = owner(clay, pos);
        const index_t rp = owner(play, ppos);
        const index_t wc = cg.base + rc;
        const index_t wp = pg.base + rp;
        const index_t lo = local(clay, pos);
        const index_t plo = local(play, ppos);
        if (cs == nullptr || cs->r != rc) cs = &step_of(c, rc);
        if (ps == nullptr || ps->r != rp) ps = &step_of(parent, rp);
        if (ps->children.empty() || ps->children.back().child != c) {
          ps->children.emplace_back().child = c;
        }
        ChildLink& link = ps->children.back();
        if (wc == wp) {
          cs->handoff.emplace_back(lo, plo);
          cs->parent_step = step_index(parent, rp);
          link.step = step_index(c, rc);
        } else {
          add_to_packet(cs->fw_send, wp, ppos, lo);
          add_to_packet(link.packets, wc, pos, plo);
          pairs.emplace_back(wc, wp);
        }
      }
      // Receive order: children in order, then (src, dst) ascending.
      std::sort(pairs.begin(), pairs.end());
      pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
      for (const auto& [src, dst] : pairs) {
        step_of(parent, dst - pg.base).fw_recv.emplace_back(src, c);
        step_of(c, src - cg.base).bw_recv.push_back(dst);
      }
    }
  }

  // Sends go out in ascending peer order; fragments get their frontier
  // rows in sweep order, forward and backward separately.
  std::vector<char> placed;
  for (RankPlan& rp : plan) {
    auto& steps = rp.steps;
    for (Step& st : steps) {
      sort_by_peer(st.fw_send);
      for (ChildLink& link : st.children) sort_by_peer(link.packets);
    }
    FrontierArena fw;
    placed.assign(steps.size(), 0);
    for (std::size_t i = 0; i < steps.size(); ++i) {
      Step& st = steps[i];
      if (placed[i] == 0) {
        st.fw_offset = fw.place(st.nloc);
      } else {
        st.fw_init = false;
      }
      if (st.parent_step >= 0) {
        const auto pj = static_cast<std::size_t>(st.parent_step);
        if (placed[pj] == 0) {
          placed[pj] = 1;
          steps[pj].fw_offset = fw.place(steps[pj].nloc);
          st.fw_init_parent = true;
        }
      }
      fw.release(st.fw_offset, st.nloc);
    }
    FrontierArena bw;
    placed.assign(steps.size(), 0);
    for (std::size_t i = steps.size(); i-- > 0;) {
      Step& st = steps[i];
      if (placed[i] == 0) st.bw_offset = bw.place(st.nloc);
      for (const ChildLink& link : st.children) {
        if (link.step < 0) continue;
        const auto cj = static_cast<std::size_t>(link.step);
        placed[cj] = 1;
        steps[cj].bw_offset = bw.place(steps[cj].nloc);
      }
      bw.release(st.bw_offset, st.nloc);
    }
    rp.frontier_rows = std::max(fw.peak(), bw.peak());
  }
  return plan;
}

/// Zero-fill a fragment and gather its owned pivot rows from `source` (B
/// for forward, Y for backward); below rows start at zero.
void init_fragment(const Step& st, real_t* v, std::span<const real_t> source,
                   index_t n, index_t m) {
  std::fill_n(v, static_cast<std::size_t>(st.nloc * m), 0.0);
  for (const auto& [lo, row] : st.pivots) {
    for (index_t c = 0; c < m; ++c) v[c * st.nloc + lo] = source[c * n + row];
  }
}

/// The factor view of a step: the packed local copy under strict storage,
/// the shared host block otherwise.
LView view_of(const Step& st) {
  LView lv;
  lv.lay = &st.lay;
  if (st.panel != nullptr) {
    lv.base = st.panel->data();
    lv.ld = st.nloc;
    lv.packed = true;
  } else {
    lv.base = st.shared;
    lv.ld = st.lay.ns;
  }
  return lv;
}

/// Serialize the rows of fragment `v` (ld `nloc`) that `pk` routes.
exec::Payload pack_rows(const Packet& pk, const real_t* v, index_t nloc,
                        index_t m) {
  RhsPacket pkt;
  pkt.positions = pk.positions;
  pkt.values.reserve(pk.local.size() * static_cast<std::size_t>(m));
  for (const index_t lo : pk.local) {
    for (index_t c = 0; c < m; ++c) pkt.values.push_back(v[c * nloc + lo]);
  }
  return pack_rhs(pkt, m);
}

}  // namespace

DistributedTrisolver::DistributedTrisolver(
    const numeric::SupernodalFactor& factor, const mapping::SubcubeMapping& map,
    Options options)
    : DistributedTrisolver(factor, nullptr, map, options) {}

DistributedTrisolver::DistributedTrisolver(
    const numeric::SupernodalFactor& factor,
    const DistributedFactor* local_values, const mapping::SubcubeMapping& map,
    Options options)
    : factor_(factor), map_(map), options_(options) {
  if (local_values != nullptr) {
    SPARTS_CHECK(local_values->block_size() == options_.block_size,
                 "DistributedFactor block size must match solver options");
  }
  SPARTS_CHECK(options_.block_size >= 1);
  const auto& part = factor_.partition();
  SPARTS_VALIDATE_CHEAP(map_.check_consistent(part));
  // Expensive: the 1-D block-cyclic ownership of every shared supernode's
  // trapezoid must partition its positions (the solver's routing tables
  // are derived from exactly this arithmetic).
  if (checks_at_least(CheckLevel::expensive)) {
    for (index_t s = 0; s < part.num_supernodes(); ++s) {
      const exec::Group& g = map_.group[static_cast<std::size_t>(s)];
      if (g.count == 1) continue;
      mapping::validate_block_cyclic(
          mapping::BlockCyclic1d{options_.block_size, g.count},
          part.height(s));
    }
  }

  const index_t nsup = part.num_supernodes();
  const index_t b = options_.block_size;
  block_base_.resize(static_cast<std::size_t>(nsup));
  index_t next_block = 0;
  for (index_t s = 0; s < nsup; ++s) {
    block_base_[static_cast<std::size_t>(s)] = next_block;
    next_block += (part.width(s) + b - 1) / b;
  }

  // The SPMD sweeps are lowerings of the solve DAGs (solve_dag.hpp): each
  // rank walks the forward DAG's deterministic topological schedule —
  // exactly ascending supernode order for this child -> ancestor graph —
  // and executes the supernodes its group owns.  The backward DAG is the
  // forward DAG with every edge reversed, so the reverse of that schedule
  // (descending supernode order) is a valid topological order of it, and
  // the one that reproduces the historical top-down sweep byte for byte.
  // Each DAG is built once, here; only its schedule and stats are kept.
  {
    const exec::TaskGraph fdag = build_forward_dag(part);
    forward_graph_ = fdag.analyze();
    plan_ = build_plan(factor_, local_values, map_, b, fdag.topo_schedule());
  }
  backward_graph_ = build_backward_dag(part).analyze();
  frontier_.resize(static_cast<std::size_t>(map_.p));
}

DistributedTrisolver::~DistributedTrisolver() = default;

int DistributedTrisolver::tag_limit() const {
  const auto& part = factor_.partition();
  const index_t nsup = part.num_supernodes();
  if (nsup == 0) return 0;
  // Every solver tag is 4 * <global block id> + {0..3} (contribution and
  // copy tags use the supernode id, which is <= its first block id), so
  // 4 * total blocks bounds them all.
  const index_t b = options_.block_size;
  const index_t total = block_base_.back() + (part.width(nsup - 1) + b - 1) / b;
  return static_cast<int>(4 * total);
}

exec::RunStats DistributedTrisolver::run_sweep(
    exec::Comm& machine, index_t m,
    const std::function<void(exec::Process&)>& spmd) const {
  SPARTS_CHECK(machine.nprocs() == map_.p,
               "machine size does not match the mapping");
  const bool busy = sweeping_.exchange(true);
  SPARTS_CHECK(!busy, "sweeps on one DistributedTrisolver must not overlap");
  struct Release {
    std::atomic<bool>& flag;
    ~Release() { flag.store(false); }
  } release{sweeping_};
  return machine.run([&](exec::Process& proc) {
    const auto w = static_cast<std::size_t>(proc.rank());
    // Grown (never shrunk) inside the rank, so its pages are first
    // touched by the thread that uses them.
    const auto rows = static_cast<std::size_t>(plan_[w].frontier_rows);
    std::vector<real_t>& scratch = frontier_[w];
    if (scratch.size() < rows * static_cast<std::size_t>(m)) {
      scratch.resize(rows * static_cast<std::size_t>(m));
    }
    spmd(proc);
  });
}

PhaseReport DistributedTrisolver::forward(exec::Comm& machine,
                                          std::span<const real_t> b_in,
                                          std::span<real_t> y_out,
                                          index_t m) const {
  const index_t n = factor_.partition().n();
  SPARTS_CHECK(static_cast<index_t>(b_in.size()) == n * m);
  SPARTS_CHECK(static_cast<index_t>(y_out.size()) == n * m);
  const PhaseContext ctx{map_, block_base_, m};

  auto spmd = [&](exec::Process& proc) {
    const index_t w = proc.rank();
    const std::vector<Step>& steps = plan_[static_cast<std::size_t>(w)].steps;
    real_t* frontier = frontier_[static_cast<std::size_t>(w)].data();
    for (const Step& st : steps) {
      const index_t s = st.s;
      const index_t q = st.lay.q;
      exec::note_progress(proc, "fw supernode", s);
      SPARTS_TRACE_SPAN(proc, obs::Category::compute, "fw.supernode",
                        static_cast<std::int64_t>(s),
                        static_cast<std::int64_t>(q));
      // Fusion hook: runs before any factor block of s is read, so a
      // fused redistribution can deliver the supernode's 1-D fragments
      // just in time for the solve below (tags disjoint by tag_limit()).
      if (forward_prologue_) forward_prologue_(proc, s);
      const Layout& lay = st.lay;
      const index_t nloc = st.nloc;
      real_t* v = frontier + st.fw_offset * m;
      if (st.fw_init) init_fragment(st, v, b_in, n, m);

      // Receive remote child contributions.
      for (const auto& [src, c] : st.fw_recv) {
        auto msg = proc.recv(src, tag_fw_contrib(c));
        RhsPacket pkt = unpack_rhs(msg.payload, m);
        check_finite_cheap(pkt.values, "fw child contribution", c);
        // The child's tail already holds -L21*y, so contributions add.
        for (std::size_t z = 0; z < pkt.positions.size(); ++z) {
          const index_t lo = lay.local_of(pkt.positions[z]);
          for (index_t col = 0; col < m; ++col) {
            v[col * nloc + lo] += pkt.values[z * static_cast<std::size_t>(m) +
                                             static_cast<std::size_t>(col)];
          }
        }
        proc.compute_at(static_cast<double>(pkt.positions.size()) *
                            static_cast<double>(m),
                        proc.cost().t_mem);
      }

      const LView lv = view_of(st);
      if (q == 1) {
        // Entire trapezoid local: dense triangular solve + rectangle update.
        proc.compute_at(static_cast<double>(dense::panel_trsm_lower(
                            lay.t, m, lv.base, lv.ld, v, nloc)),
                        proc.cost().panel_flop(m));
        const index_t below = lay.ns - lay.t;
        if (below > 0) {
          dense::panel_gemm(below, m, lay.t, -1.0, lv.base + lv.row(lay.t),
                            lv.ld, v, nloc, v + lay.t, nloc);
          proc.compute_at(
              static_cast<double>(dense::gemm_flops(below, m, lay.t)),
              proc.cost().panel_flop(m));
        }
      } else if (options_.pipelining == Pipelining::column_priority) {
        fw_pipelined_column_priority(proc, ctx, s, lay, st.r, lv, v, nloc);
      } else if (options_.pipelining == Pipelining::row_priority) {
        fw_pipelined_row_priority(proc, ctx, s, lay, st.r, lv, v, nloc);
      } else {
        fw_fan_out(proc, ctx, s, lay, st.r, lv, v, nloc);
      }

      // Publish Y at my pivot positions.
      for (const auto& [lo, row] : st.pivots) {
        for (index_t c = 0; c < m; ++c) y_out[c * n + row] = v[c * nloc + lo];
      }

      // Route the tail to the parent.  Local hand-off: the tail holds
      // -L21*y, so it adds directly into the parent fragment.
      if (st.parent_step >= 0) {
        const Step& ps = steps[static_cast<std::size_t>(st.parent_step)];
        real_t* pv = frontier + ps.fw_offset * m;
        if (st.fw_init_parent) init_fragment(ps, pv, b_in, n, m);
        for (const auto& [lo, plo] : st.handoff) {
          for (index_t c = 0; c < m; ++c) {
            pv[c * ps.nloc + plo] += v[c * nloc + lo];
          }
        }
        proc.compute_at(static_cast<double>(st.handoff.size()) *
                            static_cast<double>(m),
                        proc.cost().t_mem);
      }
      for (const Packet& pk : st.fw_send) {
        proc.send_owned(pk.peer, tag_fw_contrib(s), pack_rows(pk, v, nloc, m));
      }
    }
  };

  PhaseReport report;
  report.stats = run_sweep(machine, m, spmd);
  report.graph = forward_graph_;
  return report;
}

PhaseReport DistributedTrisolver::backward(exec::Comm& machine,
                                           std::span<const real_t> y_in,
                                           std::span<real_t> x_out,
                                           index_t m) const {
  const index_t n = factor_.partition().n();
  SPARTS_CHECK(static_cast<index_t>(y_in.size()) == n * m);
  SPARTS_CHECK(static_cast<index_t>(x_out.size()) == n * m);
  const PhaseContext ctx{map_, block_base_, m};

  auto spmd = [&](exec::Process& proc) {
    const index_t w = proc.rank();
    const std::vector<Step>& steps = plan_[static_cast<std::size_t>(w)].steps;
    real_t* frontier = frontier_[static_cast<std::size_t>(w)].data();
    for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
      const Step& st = *it;
      const index_t s = st.s;
      const index_t q = st.lay.q;
      exec::note_progress(proc, "bw supernode", s);
      SPARTS_TRACE_SPAN(proc, obs::Category::compute, "bw.supernode",
                        static_cast<std::int64_t>(s),
                        static_cast<std::int64_t>(q));
      const Layout& lay = st.lay;
      const index_t nloc = st.nloc;
      real_t* wv = frontier + st.bw_offset * m;
      // A fragment the parent copied rows into was set up by the parent.
      if (st.handoff.empty()) init_fragment(st, wv, y_in, n, m);

      // Receive the below-part values from the parent.
      for (const index_t src : st.bw_recv) {
        auto msg = proc.recv(src, tag_bw_copy(s));
        RhsPacket pkt = unpack_rhs(msg.payload, m);
        check_finite_cheap(pkt.values, "bw parent values", s);
        for (std::size_t z = 0; z < pkt.positions.size(); ++z) {
          const index_t lo = lay.local_of(pkt.positions[z]);
          for (index_t col = 0; col < m; ++col) {
            wv[col * nloc + lo] = pkt.values[z * static_cast<std::size_t>(m) +
                                             static_cast<std::size_t>(col)];
          }
        }
        proc.compute_at(static_cast<double>(pkt.positions.size()) *
                            static_cast<double>(m),
                        proc.cost().t_mem);
      }

      const LView lv = view_of(st);
      if (q == 1) {
        const index_t below = lay.ns - lay.t;
        if (below > 0) {
          dense::panel_gemm_at(lay.t, m, below, -1.0,
                               lv.base + lv.row(lay.t), lv.ld,
                               wv + lay.t, nloc, wv, nloc);
          proc.compute_at(
              static_cast<double>(dense::gemm_flops(lay.t, m, below)),
              proc.cost().panel_flop(m));
        }
        proc.compute_at(
            static_cast<double>(dense::panel_trsm_lower_transposed(
                lay.t, m, lv.base, lv.ld, wv, nloc)),
            proc.cost().panel_flop(m));
      } else if (options_.pipelining == Pipelining::fan_out) {
        bw_fan_in(proc, ctx, s, lay, st.r, lv, wv, nloc);
      } else {
        bw_pipelined(proc, ctx, s, lay, st.r, lv, wv, nloc);
      }

      // Publish X at my pivot positions.
      for (const auto& [lo, row] : st.pivots) {
        for (index_t c = 0; c < m; ++c) x_out[c * n + row] = wv[c * nloc + lo];
      }

      // Send each child the values its below-part positions need.
      for (const ChildLink& link : st.children) {
        if (link.step >= 0) {
          const Step& cs = steps[static_cast<std::size_t>(link.step)];
          real_t* cv = frontier + cs.bw_offset * m;
          init_fragment(cs, cv, y_in, n, m);
          for (const auto& [clo, lo] : cs.handoff) {
            for (index_t col = 0; col < m; ++col) {
              cv[col * cs.nloc + clo] = wv[col * nloc + lo];
            }
          }
          proc.compute_at(static_cast<double>(cs.handoff.size()) *
                              static_cast<double>(m),
                          proc.cost().t_mem);
        }
        for (const Packet& pk : link.packets) {
          proc.send_owned(pk.peer, tag_bw_copy(link.child),
                          pack_rows(pk, wv, nloc, m));
        }
      }
    }
  };

  PhaseReport report;
  report.stats = run_sweep(machine, m, spmd);
  report.graph = backward_graph_;
  return report;
}

std::pair<PhaseReport, PhaseReport> DistributedTrisolver::solve(
    exec::Comm& machine, std::span<const real_t> b_in,
    std::span<real_t> x_out, index_t m) const {
  const index_t n = factor_.partition().n();
  std::vector<real_t> y(static_cast<std::size_t>(n * m), 0.0);
  PhaseReport fw = forward(machine, b_in, y, m);
  PhaseReport bw = backward(machine, y, x_out, m);
  return {fw, bw};
}

}  // namespace sparts::partrisolve
