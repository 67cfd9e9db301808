// Memory-order mutation sweep (ctest -L verify): every load-bearing
// memory_order in exec/spsc_ring.hpp, exec/parking.hpp and
// exec/mailbox.hpp is weakened to
// relaxed ONE SITE AT A TIME, and the model checker must catch each
// mutant (a surviving mutant means either the order is unnecessary or —
// worse — the checker is blind to that failure mode).  Sites annotated
// SPARTS_MO_ADVISORY are asserted to SURVIVE: their order is documented
// belt-and-braces, and this sweep is what keeps that claim honest.
//
// This TU redefines SPARTS_MO/SPARTS_MO_ADVISORY *before* including the
// primitives' headers, routing every site through the runtime mutation
// registry (src/verify/mutation.hpp).  It must stay a separate binary
// from any TU using the production expansion (ODR).
#include "verify/mutation.hpp"

#define SPARTS_MO(site, order) (::sparts::verify::mutable_order(#site, (order)))
#define SPARTS_MO_ADVISORY(site, order) \
  (::sparts::verify::mutable_order_advisory(#site, (order)))

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exec/parking.hpp"
#include "exec/spsc_ring.hpp"
#include "verify/verify.hpp"
#include "verify_mailbox_scenario.hpp"

namespace {

using sparts::verify::explore;
using sparts::verify::MutationSite;
using sparts::verify::Result;
using sparts::verify::Scheduler;
using sparts::verify::spin_yield;
using sparts::verify::VerifyAtomics;
using sparts::verify_scenarios::mailbox_scenario;

// Core ring harness: bare try_push/try_pop spin loops, NO probes.  The
// probes' advisory acquires would otherwise synchronize head_/tail_ on
// the side and mask a weakened order inside try_push/try_pop (observed:
// has_space()'s head acquire hides the spsc_push_head_acquire mutant).
// Capacity 1 with two messages forces slot reuse across wraparound — the
// scenario the head acquire/release pair exists for.
void core_ring_scenario(Scheduler& sch) {
  struct World {
    sparts::exec::SpscRing<int, VerifyAtomics> ring{1};
    std::vector<int> got;
  };
  auto w = std::make_shared<World>();
  sch.thread("producer", [w] {
    for (int m = 1; m <= 2; ++m) {
      int v = m;
      while (!w->ring.try_push(v)) spin_yield();
    }
  });
  sch.thread("consumer", [w] {
    while (w->got.size() < 2) {
      int v = 0;
      if (w->ring.try_pop(&v)) {
        w->got.push_back(v);
      } else {
        spin_yield();
      }
    }
  });
  sch.finally([w] {
    sparts::verify::check(w->got == std::vector<int>({1, 2}),
                          "ring lost, duplicated, or reordered elements");
  });
}

// Probe ring harness: both loop guards go through has_space()/has_items(),
// so the four spsc_has_* sites execute on every iteration — this is the
// harness that proves the probes' advisory acquires really are advisory.
void probe_ring_scenario(Scheduler& sch) {
  struct World {
    sparts::exec::SpscRing<int, VerifyAtomics> ring{1};
    std::vector<int> got;
  };
  auto w = std::make_shared<World>();
  sch.thread("producer", [w] {
    for (int m = 1; m <= 2; ++m) {
      while (!w->ring.has_space()) spin_yield();
      int v = m;
      while (!w->ring.try_push(v)) spin_yield();
    }
  });
  sch.thread("consumer", [w] {
    while (w->got.size() < 2) {
      if (!w->ring.has_items()) {
        spin_yield();
        continue;
      }
      int v = 0;
      if (w->ring.try_pop(&v)) w->got.push_back(v);
    }
  });
  sch.finally([w] {
    sparts::verify::check(w->got == std::vector<int>({1, 2}),
                          "ring lost, duplicated, or reordered elements");
  });
}

// Combined harness: ring publish + the park/wake handshake.  The park_*
// sites only matter against a lock-free work source, so the arm-fence /
// notify-fence mutants need the ring in the loop to manifest (as a lost
// wakeup -> deadlock).
void park_scenario(Scheduler& sch) {
  struct World {
    sparts::exec::SpscRing<int, VerifyAtomics> ring{1};
    sparts::exec::ParkingSlot<VerifyAtomics> park;
    std::vector<int> got;
  };
  auto w = std::make_shared<World>();
  sch.thread("producer", [w] {
    for (int m = 1; m <= 2; ++m) {
      while (!w->ring.has_space()) spin_yield();
      int v = m;
      while (!w->ring.try_push(v)) spin_yield();
      w->park.notify_if_armed();
    }
  });
  sch.thread("owner", [w] {
    using MutexT = sparts::exec::ParkingSlot<VerifyAtomics>::MutexT;
    while (w->got.size() < 2) {
      int v = 0;
      if (w->ring.try_pop(&v)) {
        w->got.push_back(v);
        continue;
      }
      std::unique_lock<MutexT> lock(w->park.mutex());
      w->park.arm();
      if (w->ring.has_items()) {
        w->park.disarm();
        continue;
      }
      w->park.park_until(lock,
                         std::chrono::steady_clock::now() +
                             std::chrono::hours(1));
      w->park.disarm();
    }
  });
  sch.finally([w] {
    sparts::verify::check(w->got == std::vector<int>({1, 2}),
                          "handshake lost or reordered a message");
  });
}

/// Pick the harness in which `site` actually executes AND is not masked
/// by a neighboring site's ordering.
Result explore_site_scenario(const std::string& site) {
  if (site.rfind("park_", 0) == 0) return explore(park_scenario);
  if (site.rfind("mailbox_", 0) == 0) return explore(mailbox_scenario);
  if (site.rfind("spsc_has_", 0) == 0) return explore(probe_ring_scenario);
  return explore(core_ring_scenario);
}

/// Static scan of a header for SPARTS_MO / SPARTS_MO_ADVISORY site names
/// (the macro's first argument, possibly on the next line).
void scan_header(const std::string& path, std::set<std::string>* plain,
                 std::set<std::string>* advisory) {
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::regex re(R"(SPARTS_MO(_ADVISORY)?\(\s*([A-Za-z0-9_]+)\s*,)");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
       it != std::sregex_iterator(); ++it) {
    if ((*it)[1].matched) {
      advisory->insert((*it)[2].str());
    } else {
      plain->insert((*it)[2].str());
    }
  }
}

/// Baseline exploration of every harness with no mutation active; this
/// also populates the runtime site registry.  Returns the sites seen.
std::vector<MutationSite> run_baselines() {
  sparts::verify::mutation_reset();
  const Result core = explore(core_ring_scenario);
  EXPECT_TRUE(core.ok) << core.error << "\n" << core.trace;
  EXPECT_TRUE(core.complete);
  const Result probe = explore(probe_ring_scenario);
  EXPECT_TRUE(probe.ok) << probe.error << "\n" << probe.trace;
  EXPECT_TRUE(probe.complete);
  const Result park = explore(park_scenario);
  EXPECT_TRUE(park.ok) << park.error << "\n" << park.trace;
  EXPECT_TRUE(park.complete);
  const Result mailbox = explore(mailbox_scenario);
  EXPECT_TRUE(mailbox.ok) << mailbox.error << "\n" << mailbox.trace;
  EXPECT_TRUE(mailbox.complete);
  std::printf(
      "[ baseline ] core ring: %llu   probe ring: %llu   park: %llu   "
      "mailbox: %llu schedules\n",
      static_cast<unsigned long long>(core.schedules),
      static_cast<unsigned long long>(probe.schedules),
      static_cast<unsigned long long>(park.schedules),
      static_cast<unsigned long long>(mailbox.schedules));
  return sparts::verify::mutation_sites();
}

TEST(VerifyMutations, RegistryMatchesStaticScan) {
  // Every macro site in the three headers must have EXECUTED during the
  // baseline explorations — a site the harness never exercises is a site
  // the sweep silently does not protect.
  std::set<std::string> scan_plain;
  std::set<std::string> scan_advisory;
  const std::string root = SPARTS_SOURCE_DIR;
  scan_header(root + "/src/exec/spsc_ring.hpp", &scan_plain, &scan_advisory);
  scan_header(root + "/src/exec/parking.hpp", &scan_plain, &scan_advisory);
  scan_header(root + "/src/exec/mailbox.hpp", &scan_plain, &scan_advisory);
  ASSERT_FALSE(scan_plain.empty());
  ASSERT_FALSE(scan_advisory.empty());

  std::set<std::string> run_plain;
  std::set<std::string> run_advisory;
  for (const MutationSite& s : run_baselines()) {
    (s.advisory ? run_advisory : run_plain).insert(s.name);
  }
  EXPECT_EQ(scan_plain, run_plain);
  EXPECT_EQ(scan_advisory, run_advisory);
}

TEST(VerifyMutations, SweepKillsEveryWeakening) {
  const std::vector<MutationSite> sites = run_baselines();
  ASSERT_FALSE(sites.empty());

  // The load-bearing sites this sweep exists for; if a rename drops one,
  // fail here rather than silently sweeping a smaller set.
  const std::set<std::string> expected_killable = {
      "spsc_push_head_acquire", "spsc_push_tail_release",
      "spsc_pop_tail_acquire",  "spsc_pop_head_release",
      "park_arm_fence",         "park_notify_fence",
      "mailbox_hint_publish",   "mailbox_hint_claim",
  };
  std::set<std::string> seen_killable;

  int killed = 0;
  int survived_advisory = 0;
  int skipped_relaxed = 0;
  for (const MutationSite& site : sites) {
    if (site.original == std::memory_order_relaxed) {
      ++skipped_relaxed;  // already weakest; nothing to weaken
      continue;
    }
    sparts::verify::mutation_set_target(site.name);
    const Result res = explore_site_scenario(site.name);
    sparts::verify::mutation_set_target("");
    if (site.advisory) {
      // Advisory orders are documented as belt-and-braces: weakening
      // them must still verify on every interleaving.
      EXPECT_TRUE(res.ok) << "advisory site " << site.name
                          << " is load-bearing after all:\n"
                          << res.error << "\n"
                          << res.trace;
      EXPECT_TRUE(res.complete) << site.name;
      ++survived_advisory;
      std::printf("[ survived ] %-28s (advisory, %llu schedules)\n",
                  site.name.c_str(),
                  static_cast<unsigned long long>(res.schedules));
    } else {
      EXPECT_FALSE(res.ok)
          << "MUTANT SURVIVED: weakening " << site.name
          << " to relaxed was not caught — either the order is "
             "unnecessary or the checker is blind to this failure mode";
      if (!res.ok) {
        ++killed;
        seen_killable.insert(site.name);
        std::printf("[  killed  ] %-28s after %llu schedules: %s\n",
                    site.name.c_str(),
                    static_cast<unsigned long long>(res.schedules),
                    res.error.substr(0, res.error.find('\n')).c_str());
      }
    }
  }
  EXPECT_EQ(seen_killable, expected_killable);
  std::printf("[  sweep   ] %d killed, %d advisory survived, %d relaxed "
              "skipped of %zu sites\n",
              killed, survived_advisory, skipped_relaxed, sites.size());
}

}  // namespace
