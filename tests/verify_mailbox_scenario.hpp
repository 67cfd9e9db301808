// The exec::Mailbox model-checking scenario, shared by tests/test_verify.cpp
// (every interleaving must pass) and tests/test_verify_mutations.cpp (each
// weakened memory order must be caught or, for advisory sites, survive).
//
// Two producers send into one mailbox whose ring lanes hold ONE message,
// so producer 0's second message spills to the overflow queue whenever the
// consumer has not yet popped its first — and its third may find the ring
// empty again, the case where a ring message could overtake a spilled one.
// The consumer receives by (src, tag) the way the backends do — drain the
// rings lock-free, drain rings+overflow under the caller's lock when the
// overflow count says so — and checks that nothing is lost or duplicated
// and that producer 0's three same-tag messages arrive in send order (the
// payload size names each message).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/mailbox.hpp"
#include "verify/verify.hpp"

namespace sparts::verify_scenarios {

inline void mailbox_scenario(verify::Scheduler& sch) {
  using exec::ReceivedMessage;
  using MutexT = verify::VerifyAtomics::Mutex;
  constexpr int kTag = 7;
  struct World {
    exec::Mailbox<verify::VerifyAtomics> mail{2, /*rings=*/true,
                                              /*ring_capacity=*/1};
    MutexT mutex;  ///< the caller-held overflow lock
    verify::VerifyAtomics::Atomic<int> producers_done{0};
    std::vector<std::size_t> got;  ///< payload sizes in receive order
  };
  auto w = std::make_shared<World>();
  const auto send = [w](index_t src, std::size_t size) {
    ReceivedMessage m{src, kTag, exec::Payload(size)};
    if (!w->mail.try_push_ring(m)) {
      std::lock_guard<MutexT> lock(w->mutex);
      w->mail.push_overflow_locked(std::move(m));
    }
  };
  sch.thread("producer0", [w, send] {
    send(0, 1);
    send(0, 2);
    send(0, 4);
    w->producers_done.fetch_add(1, std::memory_order_release);
  });
  sch.thread("producer1", [w, send] {
    send(1, 3);
    w->producers_done.fetch_add(1, std::memory_order_release);
  });
  sch.thread("consumer", [w] {
    const auto recv = [w](index_t src) -> std::size_t {
      ReceivedMessage m;
      for (;;) {
        w->mail.drain_rings();
        if (w->mail.take(src, kTag, &m)) return m.payload.size();
        if (w->mail.overflow_pending()) {
          std::lock_guard<MutexT> lock(w->mutex);
          w->mail.drain_locked();
          if (w->mail.take(src, kTag, &m)) return m.payload.size();
        }
        if (!w->mail.arrivals_pending()) verify::spin_yield();
      }
    };
    w->got.push_back(recv(0));
    w->got.push_back(recv(1));
    w->got.push_back(recv(0));
    w->got.push_back(recv(0));
    // Every message was received once: after both producers finish,
    // nothing may be left anywhere in the mailbox.
    while (w->producers_done.load(std::memory_order_acquire) < 2) {
      verify::spin_yield();
    }
    std::lock_guard<MutexT> lock(w->mutex);
    w->mail.drain_locked();
    ReceivedMessage extra;
    verify::check(!w->mail.take(exec::kAnySource, kTag, &extra),
                  "mailbox delivered a message twice");
  });
  sch.finally([w] {
    verify::check(w->got == std::vector<std::size_t>({1, 3, 2, 4}),
                  "mailbox lost a message or broke per-source FIFO");
  });
}

}  // namespace sparts::verify_scenarios
