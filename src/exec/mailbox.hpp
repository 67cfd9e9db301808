// The one message-matching mailbox of the wall-clock backends: every
// (src|kAnySource, tag) receive on the thread, task and socket backends is
// matched by find_match() below.
//
// A Mailbox belongs to one receiving rank (the consumer) and holds:
//   * a lock-free SPSC ring per source rank (exec/spsc_ring.hpp), plus a
//     hint bitmask the producers set after a push, so a drain visits only
//     rings with traffic — O(active sources) instead of O(p);
//   * the overflow queue, taken when a ring is full or the rings are off
//     (SPARTS_SPSC=off, or more than kMaxRingRanks ranks), so send() never
//     blocks.  Its lock belongs to the caller, who holds it around every
//     *_locked call: ParkingSlot::mutex() on threads, the task backend's
//     state mutex on tasks;
//   * the consumer-private pending list that drained messages wait in,
//     matched by find_match().
// How a consumer waits (parking a thread, suspending a fiber) stays with
// the backends.
//
// Per-source FIFO: a source that spills keeps spilling until the consumer
// has drained the overflow queue (the per-source `spilled` flag), and each
// overflow drain first drains the rings under the same lock.  A ring
// message therefore never overtakes a spilled one from the same source.
//
// The memory_order sites are spelled through SPARTS_MO (atomics_policy.hpp):
// tests/test_verify.cpp model-checks this protocol and
// tests/test_verify_mutations.cpp weakens each site in turn.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/atomics_policy.hpp"
#include "exec/process.hpp"
#include "exec/spsc_ring.hpp"

namespace sparts::exec {

/// Rings are O(p^2) per backend; past this rank count every message takes
/// the overflow queue (which is O(p)).
inline constexpr index_t kMaxRingRanks = 128;

/// The SPARTS_SPSC switch: "off" or "0" disables the ring lane, any other
/// non-empty value enables it, unset or empty keeps `fallback`.
inline bool spsc_enabled(bool fallback) {
  const char* v = std::getenv("SPARTS_SPSC");
  if (v == nullptr || *v == '\0') return fallback;
  return !(std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0);
}

/// Does a message from `msg_src` with `msg_tag` satisfy recv(src, tag)?
inline bool matches(index_t msg_src, int msg_tag, index_t src, int tag) {
  return msg_tag == tag && (src == kAnySource || msg_src == src);
}

/// The first message in `pending` matching (src|kAnySource, tag), or
/// pending.end().  The single first-match rule of every wall-clock backend.
template <typename Queue>
auto find_match(Queue& pending, index_t src, int tag) {
  return std::find_if(pending.begin(), pending.end(),
                      [&](const ReceivedMessage& m) {
                        return matches(m.source, m.tag, src, tag);
                      });
}

/// Remove the first match for (src|kAnySource, tag) from `pending` into
/// `*out`; false, leaving `pending` as it was, when none matches.
inline bool take_match(std::deque<ReceivedMessage>& pending, index_t src,
                       int tag, ReceivedMessage* out) {
  const auto it = find_match(pending, src, tag);
  if (it == pending.end()) return false;
  *out = std::move(*it);
  pending.erase(it);
  return true;
}

template <typename Policy = common::StdAtomics>
class Mailbox {
 public:
  using Ring = SpscRing<ReceivedMessage, Policy>;

  /// A mailbox for `sources` sending ranks; with `rings` (and sources <=
  /// kMaxRingRanks) each gets a ring lane of `ring_capacity`.
  Mailbox(index_t sources, bool rings,
          std::size_t ring_capacity = Ring::kDefaultCapacity) {
    if (!rings || sources > kMaxRingRanks) return;
    lanes_.reserve(static_cast<std::size_t>(sources));
    for (index_t s = 0; s < sources; ++s) {
      lanes_.push_back(std::make_unique<Lane>(ring_capacity));
    }
  }
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  bool has_rings() const { return !lanes_.empty(); }

  // ---- producer side (one producer per source rank) --------------------

  /// The lock-free lane: push into msg.source's ring and flag it.  Returns
  /// false, leaving `msg` intact, when the rings are off, the ring is
  /// full, or the source is still spilling; the caller then takes its
  /// lock and calls push_overflow_locked().
  bool try_push_ring(ReceivedMessage& msg) {
    if (lanes_.empty()) return false;
    const auto s = static_cast<std::size_t>(msg.source);
    Lane& lane = *lanes_[s];
    // Relaxed: only this producer sets the flag and only the consumer
    // clears it, after draining this source's overflow messages into
    // pending; a ring push that reads the clear can only be drained
    // after it (see the FIFO note in the header comment).
    if (lane.spilled.load(SPARTS_MO(mailbox_spilled_probe,
                                    std::memory_order_relaxed)) ||
        !lane.ring.try_push(msg)) {
      return false;
    }
    // Release half of the hint handshake: a consumer whose exchange
    // reads this bit also sees the ring push, so its try_pop cannot read
    // a stale tail and strand the message behind a consumed hint.
    // seq_cst also orders the flag before the backends' park probes.
    hint_[s >> 6].fetch_or(std::uint64_t{1} << (s & 63),
                           SPARTS_MO(mailbox_hint_publish,
                                     std::memory_order_seq_cst));
    return true;
  }

  /// The spill lane.  Caller holds the mailbox's lock.
  void push_overflow_locked(ReceivedMessage&& msg) {
    if (!lanes_.empty()) {
      lanes_[static_cast<std::size_t>(msg.source)]->spilled.store(
          true, SPARTS_MO(mailbox_spilled_set, std::memory_order_relaxed));
    }
    overflow_.push_back(std::move(msg));
    publish_overflow_size();
  }

  // ---- consumer side (the owning rank only) ----------------------------

  /// Move every message of the flagged rings into pending.  Lock-free.
  /// Returns whether anything moved.
  bool drain_rings() {
    bool any = false;
    ReceivedMessage m;
    // exchange(0) claims a whole hint word: a bit set during the drain is
    // either satisfied now (the pop finds its message anyway) or seen by
    // the next drain; a stale bit costs one empty try_pop.
    for (std::size_t w = 0; w < hint_words(); ++w) {
      std::uint64_t bits = hint_[w].exchange(
          0, SPARTS_MO(mailbox_hint_claim, std::memory_order_seq_cst));
      while (bits != 0) {
        const std::size_t s =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        while (lanes_[s]->ring.try_pop(&m)) {
          pending_.push_back(std::move(m));
          any = true;
        }
      }
    }
    return any;
  }

  /// Caller holds the mailbox's lock: drain the rings, then the overflow
  /// queue, clearing the spilled flag of every source drained.  Returns
  /// whether anything moved.
  bool drain_locked() {
    const bool any = drain_rings();
    if (overflow_.empty()) return any;
    for (ReceivedMessage& m : overflow_) {
      if (!lanes_.empty()) {
        // Clear once per source: a store per message would bounce the
        // flag's line with its producer.
        auto& spilled = lanes_[static_cast<std::size_t>(m.source)]->spilled;
        if (spilled.load(SPARTS_MO(mailbox_spilled_clear_probe,
                                   std::memory_order_relaxed))) {
          spilled.store(false, SPARTS_MO(mailbox_spilled_clear,
                                         std::memory_order_relaxed));
        }
      }
      pending_.push_back(std::move(m));
    }
    overflow_.clear();
    publish_overflow_size();
    return true;
  }

  /// Lock-free probe: may the overflow queue hold messages?  A stale
  /// false is harmless — callers re-poll, and the producer's wake-up
  /// covers a consumer that parks.
  bool overflow_pending() const {
    // Advisory: the queue itself is read under the caller's lock, which
    // orders its contents; this count only decides whether to lock.
    return overflow_size_.load(SPARTS_MO_ADVISORY(
               mailbox_overflow_size_probe, std::memory_order_acquire)) != 0;
  }

  /// Lock-free probe: did anything arrive since the last drain?  Peeks
  /// the hint words without claiming them, so the next drain still sees
  /// the arrival.
  bool arrivals_pending() const {
    if (overflow_pending()) return true;
    for (std::size_t w = 0; w < hint_words(); ++w) {
      // Advisory: callers that park re-check after arming, and the park
      // protocol's fences (exec/parking.hpp) order that re-check.
      if (hint_[w].load(SPARTS_MO_ADVISORY(mailbox_hint_peek,
                                           std::memory_order_seq_cst)) != 0) {
        return true;
      }
    }
    return false;
  }

  /// Pop the first pending match for (src|kAnySource, tag).
  bool take(index_t src, int tag, ReceivedMessage* out) {
    return take_match(pending_, src, tag, out);
  }

  /// Is a match for (src|kAnySource, tag) pending?
  bool has_match(index_t src, int tag) const {
    return find_match(pending_, src, tag) != pending_.end();
  }

 private:
  // The two hint words cover kMaxRingRanks sources.
  static_assert(kMaxRingRanks <= 128,
                "hint_ words must cover every ring source rank");

  struct Lane {
    explicit Lane(std::size_t capacity) : ring(capacity) {}
    Ring ring;
    /// This source has messages in the overflow queue: keep spilling.
    alignas(64) typename Policy::template Atomic<bool> spilled{false};
  };

  /// Hint words in use: one per 64 ring lanes (0 when the rings are off).
  std::size_t hint_words() const { return (lanes_.size() + 63) / 64; }

  void publish_overflow_size() {
    overflow_size_.store(overflow_.size(),
                         SPARTS_MO_ADVISORY(mailbox_overflow_size_publish,
                                            std::memory_order_release));
  }

  // One cache line per writer group, so producers' hint and overflow
  // writes do not bounce the read-mostly lanes_ or the consumer's pending_.
  std::vector<std::unique_ptr<Lane>> lanes_;  ///< empty when rings are off
  alignas(64) typename Policy::template Atomic<std::uint64_t> hint_[2]{};
  alignas(64) std::deque<ReceivedMessage> overflow_;  ///< caller's lock
  /// overflow_.size(), readable without the lock.
  typename Policy::template Atomic<std::size_t> overflow_size_{0};
  alignas(64) std::deque<ReceivedMessage> pending_;  ///< consumer-private
};

}  // namespace sparts::exec
