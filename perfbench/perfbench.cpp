// perfbench: the factor-once / solve-many benchmark of the sparts pipeline.
//
// One process runs one workload as a closed loop with a single client and
// one solve in flight.  A run is a sequence of rounds after an untimed
// warm-up round; each round
//   1. composes the pipeline from the layers' public functions and times
//      each call from outside: analysis (ordering, permutation, symbolic,
//      mappings, backend construction), factorization (parfact, redist,
//      trisolver construction), then a batch of forward+backward solves on
//      that factor and that live backend;
//   2. calls the solver facade, solver::parallel_solve, as a user would;
//   3. runs the sequential baseline, SparseSolver::factorize + solve, then
//      a batch of sequential solves on that factor.
// Rounds repeat until --seconds have elapsed.  Every timing is reported as
// the median of its samples, so one noisy round cannot move a metric; the
// solve's p95 is printed beside them.  Every output is checked: a max-column relative
// residual <= 1e-10, and bitwise-identical repeated solves on one factor.
//
// With --trace 1 the rounds also record spans around every layer call (kept
// in memory, summarised at exit) and the per-layer counters of RunStats and
// the executed-DAG critical path; the solve batch alternates untraced and
// traced halves so the tracing overhead is measured in the same process.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--grid K]   (K^3 grid instead of 26^3; smoke tests)
#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dense/kernels.hpp"
#include "exec/task_backend.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/multifrontal.hpp"
#include "obs/critical_path.hpp"
#include "ordering/nested_dissection.hpp"
#include "parfact/parfact.hpp"
#include "partrisolve/partrisolve.hpp"
#include "redist/redist.hpp"
#include "solver/sparse_solver.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "symbolic/supernodes.hpp"
#include "symbolic/symbolic.hpp"
#include "trisolve/trisolve.hpp"

extern char** environ;

namespace sparts::perfbench {
namespace {

constexpr index_t kAmalgamationWidth = 32;
constexpr nnz_t kAmalgamationZeros = 16;
constexpr real_t kResidualLimit = 1e-10;
// Few solves per round and many rounds: the once-per-round timings
// (setup, factor, time to solution) get as many samples as the budget
// allows, while kMinRounds rounds still give 200 solves, ten beyond p95.
constexpr int kSolvesPerRound = 25;
constexpr int kSeqSolvesPerRound = 10;
constexpr int kMinRounds = 8;
constexpr int kGemmN = 256;
constexpr int kGemmReps = 21;

struct Workload {
  const char* name;
  index_t p;
  index_t m;
};

// The p=4 workloads run but are not in BENCHMARK.json: they need every
// core of a 4-core host, so their medians follow the hypervisor's steal
// time from run to run (README.md).
constexpr Workload kWorkloads[] = {
    {"grid3d26-p1-m1", 1, 1},
    {"grid3d26-p1-m32", 1, 32},
    {"grid3d26-p4-m1", 4, 1},
    {"grid3d26-p4-m32", 4, 32},
};

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// Spans recorded around the layer calls (trace mode only).

struct Span {
  const char* name;  ///< a string literal
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int round = -1;  ///< spans of one round share this identifier
};

class Tracer {
 public:
  bool on = false;
  int round = -1;

  class Scope {
   public:
    Scope(Tracer* t, const char* name) : t_(t) {
      if (!t_->on) return;
      id_ = static_cast<int>(t_->spans_.size());
      t_->spans_.push_back({name, now(), 0.0, t_->open_, t_->round});
      t_->open_ = id_;
    }
    ~Scope() {
      if (id_ < 0) return;
      t_->spans_[static_cast<std::size_t>(id_)].end = now();
      t_->open_ = t_->spans_[static_cast<std::size_t>(id_)].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_ = -1;
  };

  Scope scope(const char* name) { return Scope(this, name); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every span called `name`.
  std::vector<double> durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.end - s.start);
    }
    return out;
  }

  /// Total and self time (duration minus child coverage) per span name.
  std::map<std::string, std::pair<double, double>> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, std::pair<double, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double d = spans_[i].end - spans_[i].start;
      auto& [total, self] = out[spans_[i].name];
      total += d;
      self += d - child[i];
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

// ---------------------------------------------------------------------------
// The composed pipeline.

/// Everything the analysis produces; heap-held because the trisolver keeps
/// references into it.
struct Analysis {
  sparse::Permutation perm;
  sparse::SymmetricCsc a_perm;
  symbolic::SupernodePartition part;
  mapping::SubcubeMapping fact_map;
  mapping::SubcubeMapping solve_map;
  std::unique_ptr<exec::TaskBackend> backend;
};

struct Factored {
  numeric::SupernodalFactor factor;
  partrisolve::DistributedFactor local;
  std::unique_ptr<partrisolve::DistributedTrisolver> solver;
  exec::RunStats parfact_stats;
  exec::RunStats redist_stats;
  double parfact_wall = 0.0;
  double redist_wall = 0.0;
};

std::unique_ptr<Analysis> analyze(const sparse::SymmetricCsc& a, index_t p,
                                  Tracer& tr) {
  auto an = std::make_unique<Analysis>();
  {
    auto s = tr.scope("ordering.nested_dissection");
    an->perm = ordering::nested_dissection(a);
  }
  {
    auto s = tr.scope("sparse.permute");
    an->a_perm = sparse::permute_symmetric(a, an->perm);
  }
  {
    auto s = tr.scope("symbolic.analyze");
    const symbolic::SymbolicFactor sym =
        symbolic::symbolic_cholesky(an->a_perm);
    an->part = symbolic::amalgamate(sym, symbolic::fundamental_supernodes(sym),
                                    kAmalgamationWidth, kAmalgamationZeros);
  }
  {
    auto s = tr.scope("mapping.subcube");
    an->fact_map = mapping::subtree_to_subcube(
        an->part, p, mapping::factor_work_weights(an->part));
    an->solve_map = mapping::subtree_to_subcube(an->part, p);
  }
  {
    auto s = tr.scope("exec.backend_ctor");
    exec::TaskBackend::Config cfg;
    cfg.nprocs = p;
    cfg.cost = exec::CostModel::t3d();
    an->backend = std::make_unique<exec::TaskBackend>(cfg);
  }
  return an;
}

std::unique_ptr<Factored> factorize(const Analysis& an, Tracer& tr) {
  auto f = std::make_unique<Factored>();
  const redist::Options redist_options;
  {
    auto s = tr.scope("parfact.wall");
    const double t0 = now();
    f->parfact_stats = parfact::parallel_multifrontal(
                           *an.backend, an.a_perm, an.part, an.fact_map,
                           f->factor)
                           .stats;
    f->parfact_wall = now() - t0;
  }
  {
    auto s = tr.scope("redist.wall");
    const double t0 = now();
    f->redist_stats =
        redist::redistribute_factor(*an.backend, f->factor, an.solve_map,
                                    redist_options, &f->local)
            .stats;
    f->redist_wall = now() - t0;
  }
  {
    auto s = tr.scope("partrisolve.ctor");
    partrisolve::Options so;
    so.block_size = redist_options.block_1d;
    f->solver = std::make_unique<partrisolve::DistributedTrisolver>(
        f->factor, &f->local, an.solve_map, so);
  }
  return f;
}

// ---------------------------------------------------------------------------
// Metric bookkeeping.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Per-phase counters of one parallel run (means over ranks for times).
struct PhaseCounters {
  std::vector<double> wall, compute, wait, send, messages, mbytes, copied,
      flops, t1, tinf, parallelism;

  void add(const exec::RunStats& rs, double wall_s) {
    double c = 0.0, w = 0.0, s = 0.0;
    for (const exec::ProcStats& ps : rs.procs) {
      c += ps.compute_time;
      w += ps.idle_time;
      s += ps.send_time;
    }
    const double np =
        static_cast<double>(std::max<std::size_t>(rs.procs.size(), 1));
    wall.push_back(wall_s);
    compute.push_back(c / np);
    wait.push_back(w / np);
    send.push_back(s / np);
    messages.push_back(static_cast<double>(rs.total_messages()));
    mbytes.push_back(8e-6 * static_cast<double>(rs.total_words()));
    copied.push_back(1e-6 * static_cast<double>(rs.total_bytes_copied()));
    flops.push_back(static_cast<double>(rs.total_flops()));
  }

  void add_path(const exec::TaskBackend& backend) {
    const obs::CriticalPathReport cp =
        obs::critical_path(backend.last_executed_profile(),
                           backend.last_scheduler_stats().workers);
    t1.push_back(cp.t1);
    tinf.push_back(cp.t_inf);
    parallelism.push_back(cp.avg_parallelism);
  }
};

struct Host {
  int cores = 0;
  double llc_mbytes = 0.0;
};

/// Core count and last-level cache size, both from sysfs.
Host probe_host() {
  Host h;
  // The online list reads like "0-3" or "0,2-5".
  std::ifstream online("/sys/devices/system/cpu/online");
  std::string range;
  while (std::getline(online, range, ',')) {
    const std::size_t dash = range.find('-');
    h.cores += dash == std::string::npos
                   ? 1
                   : std::atoi(range.c_str() + dash + 1) -
                         std::atoi(range.c_str()) + 1;
  }
  int best_level = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level_in(dir + "level"), size_in(dir + "size");
    int level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size) || level < best_level) {
      continue;
    }
    double v = std::atof(size.c_str());  // "307200K", "32M"
    if (size.back() == 'K') v /= 1024.0;
    if (size.back() == 'G') v *= 1024.0;
    best_level = level;
    h.llc_mbytes = v;
  }
  return h;
}

/// Aggregate CPU time from /proc/stat: {steal, total} in clock ticks.
/// Steal is time the hypervisor ran something else on this guest's CPUs.
std::pair<double, double> cpu_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v = 0.0, total = 0.0, steal = 0.0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && (in >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Median GFLOP/s of dense::panel_gemm on kGemmN^3 (the compute ceiling).
double gemm_gflops(Tracer& tr) {
  const std::size_t n2 = static_cast<std::size_t>(kGemmN) * kGemmN;
  std::vector<real_t> a(n2), b(n2), c(n2, 0.0);
  Rng rng(7);
  for (std::size_t i = 0; i < n2; ++i) {
    a[i] = rng.uniform(-1.0, 1.0);
    b[i] = rng.uniform(-1.0, 1.0);
  }
  std::vector<double> t;
  for (int r = 0; r < kGemmReps; ++r) {
    auto s = tr.scope("dense.gemm");
    const double t0 = now();
    dense::panel_gemm(kGemmN, kGemmN, kGemmN, -1.0, a.data(), kGemmN,
                      b.data(), kGemmN, c.data(), kGemmN);
    t.push_back(now() - t0);
  }
  const double flops = 2.0 * kGemmN * kGemmN * static_cast<double>(kGemmN);
  return flops / median(t) / 1e9;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  index_t grid = 26;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--grid K]\nworkloads:",
               why.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (k == "--grid") {
      a.grid = std::atoll(v.c_str());
    } else {
      usage("unknown option " + k);
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0 ||
      (a.trace != 0 && a.trace != 1) || a.grid < 2) {
    usage("bad arguments");
  }
  return a;
}

/// Environment variables that select a different program than the one
/// being benchmarked (kernel tier, worker count, arena, rings, tracing...).
bool environment_clean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SPARTS_", 7) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      clean = false;
    }
  }
  return clean;
}

/// Puts every thread on glibc's main malloc arena.  By default glibc gives
/// a thread that finds an arena locked a new one, up to 8 per core, and
/// each arena keeps the memory freed into it.  Which threads collide
/// depends on scheduling, so under contention peak_rss_mb read 118 MB in
/// some runs and 182 MB in others for the same work; with one arena it
/// reads the program's own footprint.  In alternating runs with and without
/// this setting the timings differed no more than runs of one build do.
void use_one_malloc_arena() {
#if defined(__GLIBC__)
  mallopt(M_ARENA_MAX, 1);
#endif
}

int run(const Args& args) {
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) usage("unknown workload " + args.workload);
  const index_t p = wl->p;
  const index_t m = wl->m;
  const bool traced = args.trace == 1;

  const sparse::SymmetricCsc a =
      sparse::grid3d(args.grid, args.grid, args.grid, 7);
  const index_t n = a.n();
  Rng rng(args.seed);
  const std::vector<real_t> b = sparse::random_rhs(n, m, rng);

  solver::Options facade;
  facade.ordering = solver::OrderingMethod::nested_dissection;
  facade.amalgamation_max_width = kAmalgamationWidth;
  facade.amalgamation_relax_zeros = kAmalgamationZeros;
  facade.backend = solver::ExecutionBackend::tasks;

  std::int64_t attempted = 0, failed = 0;
  // One operation: counts it, turns a throw into a failure.
  auto attempt = [&](const char* what, const std::function<bool()>& op) {
    ++attempted;
    bool ok = false;
    try {
      ok = op();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s threw: %s\n", what, e.what());
    }
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s failed\n", what);
    }
    return ok;
  };
  auto residual_ok = [&](const char* what, const sparse::SymmetricCsc& mat,
                         std::span<const real_t> x,
                         std::span<const real_t> rhs) {
    const real_t r = trisolve::relative_residual(mat, x, rhs, m);
    if (!(r <= kResidualLimit)) {
      std::fprintf(stderr, "perfbench: %s residual %.3e > %.0e\n", what, r,
                   kResidualLimit);
      return false;
    }
    return true;
  };

  Tracer tr;
  std::vector<double> setup_s, factor_s, solve_s, solve_traced_s, tts_s,
      seq_tts_s, seq_solve_s, numeric_s, numeric_gflops, trisolve_s;
  PhaseCounters parfact_c, redist_c, fwd_c, bwd_c;
  double gemm = 0.0;
  nnz_t stored_entries = 0, solve_flops = 0;
  index_t supernodes = 0;

  // One round of the closed loop; `record` is false for the warm-up.
  auto round = [&](int id, bool record) {
    tr.round = id;
    tr.on = traced && record;
    std::unique_ptr<Analysis> an;
    if (!attempt("setup", [&] {
          auto s = tr.scope("setup");
          const double t0 = now();
          an = analyze(a, p, tr);
          if (record) setup_s.push_back(now() - t0);
          return true;
        })) {
      return;
    }
    std::unique_ptr<Factored> f;
    if (!attempt("factor", [&] {
          auto s = tr.scope("factor");
          const double t0 = now();
          f = factorize(*an, tr);
          const double t = now() - t0;
          if (record) {
            factor_s.push_back(t);
            if (traced) {
              parfact_c.add(f->parfact_stats, f->parfact_wall);
              redist_c.add(f->redist_stats, f->redist_wall);
            }
          }
          return true;
        })) {
      return;
    }
    stored_entries = f->factor.stored_entries();
    solve_flops = f->factor.solve_flops(m);
    supernodes = an->part.num_supernodes();

    std::vector<real_t> b_perm(b.size()), y(b.size()), x(b.size()),
        x_first;
    for (index_t c = 0; c < m; ++c) {
      for (index_t k = 0; k < n; ++k) {
        b_perm[static_cast<std::size_t>(c * n + k)] =
            b[static_cast<std::size_t>(c * n + an->perm.old_of_new(k))];
      }
    }
    for (int i = 0; i < kSolvesPerRound; ++i) {
      // Trace mode: alternate untraced and traced solves (which comes first
      // flips every round) so the tracing overhead is measured in place.
      const bool span_this = traced && record && ((i + id) % 2 == 1);
      tr.on = span_this;
      attempt("solve", [&] {
        exec::RunStats fw, bw;
        double t_fw = 0.0, t_bw = 0.0;
        const double t0 = now();
        {
          auto sf = tr.scope("forward.wall");
          fw = f->solver->forward(*an->backend, b_perm, y, m).stats;
          t_fw = now() - t0;
        }
        // The critical-path analysis reads the profile forward() left
        // behind; it runs between the two timed halves.
        if (span_this) fwd_c.add_path(*an->backend);
        const double t1 = now();
        {
          auto sb = tr.scope("backward.wall");
          bw = f->solver->backward(*an->backend, y, x, m).stats;
        }
        t_bw = now() - t1;
        if (span_this) bwd_c.add_path(*an->backend);
        const double t = span_this ? t_fw + t_bw : now() - t0;
        if (record) {
          (span_this ? solve_traced_s : solve_s).push_back(t);
          if (span_this) {
            fwd_c.add(fw, t_fw);
            bwd_c.add(bw, t_bw);
          }
        }
        if (i == 0) {
          x_first = x;
          return residual_ok("solve", an->a_perm, x, b_perm);
        }
        if (std::memcmp(x.data(), x_first.data(), x.size() * sizeof(real_t)) !=
            0) {
          std::fprintf(stderr, "perfbench: repeated solve differs bitwise\n");
          return false;
        }
        return true;
      });
    }
    tr.on = traced && record;
    if (traced && record) {
      // Sequential kernels on the same analysis, timed alone.
      numeric::FactorizationStats st;
      numeric::SupernodalFactor seq;
      {
        auto s = tr.scope("numeric.factor");
        const double t0 = now();
        seq = numeric::multifrontal_cholesky(an->a_perm, an->part, &st);
        numeric_s.push_back(now() - t0);
      }
      numeric_gflops.push_back(static_cast<double>(st.flops) /
                               numeric_s.back() / 1e9);
      for (int i = 0; i < kSeqSolvesPerRound; ++i) {
        std::vector<real_t> xs = b_perm;
        auto s = tr.scope("trisolve.solve");
        const double t0 = now();
        trisolve::full_solve(seq, xs.data(), m);
        trisolve_s.push_back(now() - t0);
      }
    }
    f.reset();
    an.reset();

    attempt("parallel_solve", [&] {
      auto s = tr.scope("solver.parallel_solve");
      const double t0 = now();
      const solver::ParallelSolveResult r =
          solver::parallel_solve(a, b, m, p, facade);
      if (record) tts_s.push_back(now() - t0);
      return residual_ok("parallel_solve", a, r.x, b);
    });

    std::vector<real_t> xs_first;
    attempt("seq_time_to_solution", [&] {
      auto s = tr.scope("solver.sequential");
      const double t0 = now();
      const solver::SparseSolver seq =
          solver::SparseSolver::factorize(a, facade);
      xs_first = seq.solve(b, m);
      if (record) seq_tts_s.push_back(now() - t0);
      if (!residual_ok("sequential", a, xs_first, b)) return false;
      for (int i = 0; i < kSeqSolvesPerRound; ++i) {
        attempt("seq_solve", [&] {
          const double t1 = now();
          const std::vector<real_t> xs = seq.solve(b, m);
          if (record) seq_solve_s.push_back(now() - t1);
          return std::memcmp(xs.data(), xs_first.data(),
                             xs.size() * sizeof(real_t)) == 0;
        });
      }
      return true;
    });
  };

  const double start = now();
  tr.on = traced;
  if (traced) gemm = gemm_gflops(tr);
  round(0, false);  // warm-up: first-touch costs, lazily built state
  const double t_measure = now();
  const auto [steal0, ticks0] = cpu_steal_ticks();
  int rounds = 0;
  while (failed == 0 &&
         (rounds < kMinRounds || now() - t_measure < args.seconds)) {
    round(++rounds, true);
  }
  tr.on = false;

  // ---- report ---------------------------------------------------------
  const Host host = probe_host();
  const auto [steal1, ticks1] = cpu_steal_ticks();
  const double steal_pct =
      ticks1 > ticks0 ? 100.0 * (steal1 - steal0) / (ticks1 - ticks0) : 0.0;
  const double factor_mbytes = 8e-6 * static_cast<double>(stored_entries);
  std::printf(
      "context: {\"workload\": \"%s\", \"seed\": %llu, \"p\": %lld, \"m\": "
      "%lld, \"n\": %lld, \"nnz_a\": %lld, \"supernodes\": %lld, "
      "\"factor.mbytes\": %.3f, \"host.cores\": %d, \"host.llc_mbytes\": "
      "%.1f, \"host.steal_pct\": %.2f, \"rounds\": %d, \"measure_s\": "
      "%.2f, \"total_s\": %.2f}\n",
      wl->name, static_cast<unsigned long long>(args.seed),
      static_cast<long long>(p), static_cast<long long>(m),
      static_cast<long long>(n), static_cast<long long>(a.nnz_full()),
      static_cast<long long>(supernodes), factor_mbytes, host.cores,
      host.llc_mbytes, steal_pct, rounds, now() - t_measure, now() - start);
  if (factor_mbytes < host.llc_mbytes) {
    std::printf(
        "note: the %.1f MB factor fits in the %.0f MB last-level cache, so "
        "no memory-bandwidth ratio is reported (a valid probe needs arrays "
        ">= 4x the LLC)\n",
        factor_mbytes, host.llc_mbytes);
  }
  const double error_rate =
      attempted > 0
          ? static_cast<double>(failed) / static_cast<double>(attempted)
          : 1.0;
  std::printf("error_rate %.6f (failed %lld of %lld operations)\n", error_rate,
              static_cast<long long>(failed),
              static_cast<long long>(attempted));

  std::vector<Metric> out;
  auto put = [&](const char* name, double v, const char* unit, std::size_t k) {
    out.push_back({name, v, unit, k});
  };
  // Bytes one forward+backward solve must touch: the stored factor twice
  // (forward and backward) and the right-hand side four times (read b,
  // write y, read y, write x).  Computed from sizes, not measured.
  const double solve_bytes = 8.0 * (2.0 * static_cast<double>(stored_entries) +
                                    4.0 * static_cast<double>(n * m));
  if (!traced) {
    put("time_to_solution_s", median(tts_s), "s", tts_s.size());
    put("setup_s", median(setup_s), "s", setup_s.size());
    put("factor_s", median(factor_s), "s", factor_s.size());
    put("solve_p50_s", median(solve_s), "s", solve_s.size());
    put("seq_time_to_solution_s", median(seq_tts_s), "s", seq_tts_s.size());
    put("seq_solve_p50_s", median(seq_solve_s), "s", seq_solve_s.size());
    put("peak_rss_mb", peak_rss_mb(), "MB", 1);
  } else {
    auto span_median = [&](const char* span, const char* metric) {
      const std::vector<double> d = tr.durations(span);
      put(metric, median(d), "s", d.size());
    };
    span_median("ordering.nested_dissection", "ordering.nested_dissection_s");
    span_median("sparse.permute", "sparse.permute_s");
    span_median("symbolic.analyze", "symbolic.analyze_s");
    span_median("mapping.subcube", "mapping.subcube_s");
    span_median("exec.backend_ctor", "exec.backend_ctor_s");
    auto phase = [&](const std::string& pre, const PhaseCounters& c,
                     bool full) {
      const std::size_t k = c.wall.size();
      out.push_back({pre + ".wall_s", median(c.wall), "s", k});
      if (full) out.push_back({pre + ".compute_s", median(c.compute), "s", k});
      out.push_back({pre + ".wait_s", median(c.wait), "s", k});
      if (full) out.push_back({pre + ".send_s", median(c.send), "s", k});
      out.push_back({pre + ".messages", median(c.messages), "count", k});
      out.push_back({pre + ".mbytes", median(c.mbytes), "MB", k});
    };
    phase("parfact", parfact_c, true);
    {
      std::vector<double> g;
      for (std::size_t i = 0; i < parfact_c.wall.size(); ++i) {
        g.push_back(parfact_c.flops[i] / parfact_c.wall[i] / 1e9);
      }
      put("parfact.gflops", median(g), "GFLOP/s", g.size());
    }
    phase("redist", redist_c, false);
    span_median("partrisolve.ctor", "partrisolve.ctor_s");
    for (const auto& [pre, c] :
         {std::pair<std::string, const PhaseCounters*>{"forward", &fwd_c},
          {"backward", &bwd_c}}) {
      phase(pre, *c, true);
      const std::size_t k = c->wall.size();
      out.push_back({pre + ".copied_mbytes", median(c->copied), "MB", k});
      out.push_back({pre + ".t1_s", median(c->t1), "s", c->t1.size()});
      out.push_back({pre + ".tinf_s", median(c->tinf), "s", c->tinf.size()});
      out.push_back({pre + ".parallelism", median(c->parallelism), "ratio",
                     c->parallelism.size()});
    }
    const double p50 = median(solve_s);
    put("partrisolve.ops_per_byte",
        static_cast<double>(solve_flops) / solve_bytes, "flop/B", 1);
    put("partrisolve.gbytes_per_s", solve_bytes / p50 / 1e9, "GB/s",
        solve_s.size());
    put("numeric.factor_s", median(numeric_s), "s", numeric_s.size());
    put("numeric.gflops", median(numeric_gflops), "GFLOP/s",
        numeric_gflops.size());
    put("trisolve.solve_s", median(trisolve_s), "s", trisolve_s.size());
    put("trisolve.gbytes_per_s", solve_bytes / median(trisolve_s) / 1e9,
        "GB/s", trisolve_s.size());
    put("dense.gemm_gflops", gemm, "GFLOP/s", kGemmReps);
    put("solver.overhead_s",
        median(tts_s) - (median(setup_s) + median(factor_s) + p50), "s",
        tts_s.size());
    put("trace.overhead_pct",
        100.0 * (median(solve_traced_s) - p50) / p50, "%",
        solve_traced_s.size());

    std::printf("spans: %zu recorded; total and self time per layer call\n",
                tr.spans().size());
    for (const auto& [name, ts] : tr.self_times()) {
      std::printf("  span %-28s total %10.4f s  self %10.4f s\n", name.c_str(),
                  ts.first, ts.second);
    }
  }

  for (const Metric& mt : out) {
    std::printf("metric %-32s %14.6g %-8s samples=%zu\n", mt.name.c_str(),
                mt.value, mt.unit.c_str(), mt.samples);
  }
  if (!traced) {
    // Printed, not bounded: bursts of host interference move the tail far
    // more than the median between runs (see README.md).
    std::printf("info   %-32s %14.6g %-8s samples=%zu\n", "solve_p95_s",
                quantile(solve_s, 0.95), "s", solve_s.size());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < out.size(); ++i) {
    // A failed run can leave a metric without samples (0/0); JSON has no
    // NaN, and such a run is already marked incorrect.
    const double v = std::isfinite(out[i].value) ? out[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out[i].name.c_str(), v,
                out[i].unit.c_str());
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sparts::perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: built without NDEBUG; benchmark a Release build\n");
  return 2;
#endif
  const sparts::perfbench::Args args = sparts::perfbench::parse(argc, argv);
  if (!sparts::perfbench::environment_clean()) return 2;
  sparts::perfbench::use_one_malloc_arena();
  return sparts::perfbench::run(args);
}
