#include "solver/sparse_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "dense/pivot.hpp"
#include "exec/checked_backend.hpp"
#include "exec/collectives.hpp"
#include "exec/fault_backend.hpp"
#include "exec/reliable.hpp"
#include "exec/socket_backend.hpp"
#include "exec/task_backend.hpp"
#include "exec/thread_backend.hpp"
#include "numeric/factor_io.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/multifrontal.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "ordering/mindeg.hpp"
#include "ordering/nested_dissection.hpp"
#include "ordering/rcm.hpp"
#include "parfact/parfact.hpp"
#include "partrisolve/partrisolve.hpp"
#include "redist/redist.hpp"
#include "symbolic/symbolic.hpp"
#include "trisolve/trisolve.hpp"

namespace sparts::solver {

namespace {

// The single registry the CLI help text, the parser, and make_backend all
// read; adding a backend means adding exactly one row here (plus its
// make_backend case, which the compiler enforces via the enum switch).
constexpr BackendInfo kBackends[] = {
    {"sim", ExecutionBackend::simulated,
     "deterministic simulator, T3D cost model"},
    {"threads", ExecutionBackend::threads,
     "one std::thread per rank, wall clock"},
    {"tasks", ExecutionBackend::tasks,
     "rank fibers on a work-stealing task-DAG scheduler, wall clock"},
    {"proc", ExecutionBackend::proc,
     "each rank an OS process over TCP (tools/sparts_launch forks the "
     "cohort); CRC-checked frames under the reliability envelope, "
     "heartbeat failure detection"},
};

sparse::Permutation compute_ordering(const sparse::SymmetricCsc& a,
                                     OrderingMethod method) {
  switch (method) {
    case OrderingMethod::natural:
      return sparse::Permutation(a.n());
    case OrderingMethod::nested_dissection:
      return ordering::nested_dissection(a);
    case OrderingMethod::minimum_degree:
      return ordering::minimum_degree(a);
    case OrderingMethod::rcm:
      return ordering::rcm(a);
  }
  throw InvalidArgument("unknown ordering method");
}

symbolic::SupernodePartition analyze(const sparse::SymmetricCsc& a_perm,
                                     const Options& options,
                                     AnalysisInfo* info) {
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a_perm);
  symbolic::SupernodePartition part = symbolic::fundamental_supernodes(sym);
  if (options.amalgamation_max_width > 0) {
    part = symbolic::amalgamate(sym, part, options.amalgamation_max_width,
                                options.amalgamation_relax_zeros);
  }
  if (info != nullptr) {
    // What is stored and computed: amalgamation's explicit zeros count.
    info->factor_nnz = part.factor_nnz();
    info->factor_flops = part.factorization_flops();
    info->num_supernodes = part.num_supernodes();
    // SupernodalFactor::solve_flops(1) of the factor this partition holds.
    info->solve_flops_per_rhs = 0;
    for (index_t s = 0; s < part.num_supernodes(); ++s) {
      info->solve_flops_per_rhs += 2 * part.solve_flops(s, 1);
    }
  }
  return part;
}

/// The Comm stack of one phase, with the layers the result accounting
/// reads (null where the stack has no such layer).
struct BackendStack {
  std::unique_ptr<exec::Comm> comm;  ///< the top of the stack
  const exec::TaskBackend* tasks = nullptr;
  const exec::FaultyBackend* faulty = nullptr;
  const exec::ReliableBackend* reliable = nullptr;
  const exec::CheckedBackend* checked = nullptr;
};

/// The one place a stack is composed: the base, then Reliable(Faulty(.))
/// when a fault plan is set, then Checked(.) under Options::check.  One
/// fresh stack per phase, so each phase's stats start from zero (the
/// simulator additionally requires a fresh Machine per run for determinism
/// of message sequence numbers).
BackendStack make_backend(index_t p, const Options& options) {
  BackendStack s;
  switch (options.backend) {
    case ExecutionBackend::simulated: {
      simpar::Machine::Config cfg;
      cfg.nprocs = p;
      cfg.cost = exec::CostModel::t3d();
      cfg.topology = exec::TopologyKind::hypercube;
      s.comm = std::make_unique<simpar::Machine>(cfg);
      break;
    }
    case ExecutionBackend::threads: {
      exec::ThreadBackend::Config cfg;
      cfg.nprocs = p;
      cfg.cost = exec::CostModel::t3d();
      s.comm = std::make_unique<exec::ThreadBackend>(cfg);
      break;
    }
    case ExecutionBackend::tasks: {
      exec::TaskBackend::Config cfg;
      cfg.nprocs = p;
      cfg.cost = exec::CostModel::t3d();
      auto tasks = std::make_unique<exec::TaskBackend>(cfg);
      s.tasks = tasks.get();
      s.comm = std::move(tasks);
      break;
    }
    case ExecutionBackend::proc: {
      // Reliable(Socket): the wire delivers only frames whose CRC checks
      // out (chaos-injected corruption surfaces as a silent drop up here),
      // and the envelope's NACK-driven retransmission recovers the drops.
      // The envelope timeout derives from the heartbeat RTT measured
      // during the connection handshake, so localhost and a congested
      // real network get proportionate NACK cadences.
      exec::SocketConfig scfg;
      scfg.rank = options.proc_rank;
      scfg.nprocs = p;
      scfg.rendezvous_dir = options.proc_rendezvous_dir;
      scfg.rankfile = options.proc_rankfile;
      scfg.cost = exec::CostModel::t3d();
      scfg.from_env();
      auto sock = std::make_unique<exec::SocketBackend>(scfg);
      exec::ReliableConfig rcfg =
          exec::ReliableConfig::for_wire(sock->measured_rtt());
      rcfg.from_env();
      auto reliable =
          std::make_unique<exec::ReliableBackend>(std::move(sock), rcfg);
      s.reliable = reliable.get();
      s.comm = std::move(reliable);
      return s;  // validate_backend_stack: no decorators over proc
    }
  }
  if (options.fault_plan) {
    // Faults are injected below the envelope, so the envelope has to
    // recover from them.  validate_backend_stack keeps Checked out of this
    // stack: its FIFO bookkeeping would (correctly) flag the injected
    // duplicates as protocol violations.
    auto faulty = std::make_unique<exec::FaultyBackend>(std::move(s.comm),
                                                        *options.fault_plan);
    s.faulty = faulty.get();
    exec::ReliableConfig rcfg =
        options.backend == ExecutionBackend::simulated
            ? exec::ReliableConfig::for_simulated()
            : exec::ReliableConfig::for_threads();
    rcfg.from_env();
    auto reliable =
        std::make_unique<exec::ReliableBackend>(std::move(faulty), rcfg);
    s.reliable = reliable.get();
    s.comm = std::move(reliable);
  }
  if (options.check) {
    exec::CheckedBackend::Options copts;
    copts.throw_on_findings = true;
    auto checked =
        std::make_unique<exec::CheckedBackend>(std::move(s.comm), copts);
    s.checked = checked.get();
    s.comm = std::move(checked);
  }
  return s;
}

/// Fold the stack's per-phase reports into the result totals.
void accumulate_report(const BackendStack& s, ParallelSolveResult* r) {
  if (s.checked != nullptr) {
    r->analysis_findings +=
        static_cast<std::int64_t>(s.checked->report().findings.size());
    r->checked_messages += s.checked->report().sends;
  }
  if (s.tasks != nullptr) {
    const exec::SchedulerStats st = s.tasks->last_scheduler_stats();
    r->task_scheduler.workers = st.workers;
    r->task_scheduler.jobs_run += st.jobs_run;
    r->task_scheduler.steals += st.steals;
    r->task_scheduler.parks += st.parks;
  }
  if (s.reliable != nullptr) {
    r->retransmits += s.reliable->stats().retransmits;
    r->dup_discarded += s.reliable->stats().dup_discarded;
  }
  if (s.faulty != nullptr) r->faults_injected += s.faulty->stats().injected();
}

/// Per-rank progress of an enveloped run, empty for other stacks.
std::string progress_of(const BackendStack& s) {
  return s.reliable != nullptr ? s.reliable->progress_report() : std::string();
}

/// Critical-path analysis of the phase the tasks backend just executed
/// (its measured fiber-segment DAG); an invalid report for every other
/// base, which records no executed profile.
obs::CriticalPathReport critical_path_of(const BackendStack& s) {
  if (s.tasks == nullptr) return {};
  return obs::critical_path(s.tasks->last_executed_profile(),
                            s.tasks->last_scheduler_stats().workers);
}

/// Tag plane of the post-phase cohort mirrors (allmerge_nonzero uses
/// kMirrorTagBase .. +p-2, the perturbation allreduce kMirrorTagBase+p);
/// mirrors run in their own Comm::run(), so these tags cannot collide
/// with any phase traffic.
constexpr int kMirrorTagBase = 0;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* b = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= static_cast<std::uint64_t>(b[i]);
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_span(std::uint64_t h, std::span<const T> s) {
  return fnv1a(h, s.data(), s.size() * sizeof(T));
}

/// Fingerprint of everything the numeric factor depends on: the permuted
/// matrix (structure and values) plus the factor-relevant options and the
/// processor count (summation order, and hence the exact bit patterns,
/// follows the mapping).  A checkpoint is only trusted when this matches.
std::uint64_t factor_fingerprint(const sparse::SymmetricCsc& a_perm,
                                 const Options& options, index_t p) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  const index_t n = a_perm.n();
  h = fnv1a(h, &n, sizeof(n));
  h = fnv1a_span(h, a_perm.colptr());
  h = fnv1a_span(h, a_perm.rowind());
  h = fnv1a_span(h, a_perm.values());
  const std::int64_t knobs[] = {
      static_cast<std::int64_t>(options.ordering),
      static_cast<std::int64_t>(options.amalgamation_max_width),
      static_cast<std::int64_t>(options.amalgamation_relax_zeros),
      static_cast<std::int64_t>(options.kernels),
      static_cast<std::int64_t>(options.pivot_mode),
      static_cast<std::int64_t>(p),
  };
  h = fnv1a(h, knobs, sizeof(knobs));
  h = fnv1a(h, &options.pivot_rel_floor, sizeof(options.pivot_rel_floor));
  return h;
}

std::string checkpoint_factor_path(const Options& options) {
  return options.checkpoint_dir + "/factor.bin";
}
std::string checkpoint_meta_path(const Options& options) {
  return options.checkpoint_dir + "/factor.meta";
}

/// Load the cached factor if the meta file's fingerprint matches.  Any
/// mismatch, absence, or torn file is a silent miss (we just factorize).
/// `perturbations_out` receives the cohort-wide perturbed-pivot count the
/// cached factorization incurred (the result must still be reported
/// degraded and refined even when factorization is skipped).
bool try_load_checkpoint(const Options& options, std::uint64_t fingerprint,
                         numeric::SupernodalFactor* factor,
                         std::int64_t* perturbations_out) {
  if (options.checkpoint_dir.empty()) return false;
  std::ifstream meta(checkpoint_meta_path(options));
  if (!meta) return false;
  std::string magic;
  std::uint64_t stored = 0;
  std::int64_t perturbed = 0;
  if (!(meta >> magic >> std::hex >> stored >> std::dec >> perturbed) ||
      magic != "SPTSMETA1" || stored != fingerprint || perturbed < 0) {
    return false;
  }
  try {
    *factor = numeric::read_factor(checkpoint_factor_path(options));
  } catch (const IoError&) {
    return false;
  }
  *perturbations_out = perturbed;
  if (obs::metrics_enabled()) {
    obs::metrics().counter("solve.checkpoint_hits").add(1);
  }
  return true;
}

/// Persist the factor for crash recovery.  Written tmp-then-rename, values
/// before meta, so a rank killed mid-write can never leave a checkpoint a
/// later run would trust: the meta file is the commit record.  In a proc
/// cohort only rank 0 writes (the factor is mirrored, so its copy is the
/// complete one); every rank reads on recovery, which is why the
/// checkpoint dir must be shared across the cohort's machines.
void write_checkpoint(const Options& options, std::uint64_t fingerprint,
                      const numeric::SupernodalFactor& factor,
                      std::int64_t perturbations) {
  if (options.checkpoint_dir.empty()) return;
  if (options.backend == ExecutionBackend::proc && options.proc_rank != 0) {
    return;
  }
  const std::string factor_path = checkpoint_factor_path(options);
  const std::string factor_tmp = factor_path + ".tmp";
  numeric::write_factor(factor, factor_tmp);
  if (std::rename(factor_tmp.c_str(), factor_path.c_str()) != 0) {
    throw IoError("cannot rename " + factor_tmp + " to " + factor_path);
  }
  const std::string meta_path = checkpoint_meta_path(options);
  const std::string meta_tmp = meta_path + ".tmp";
  {
    std::ofstream meta(meta_tmp, std::ios::trunc);
    meta << "SPTSMETA1 " << std::hex << fingerprint << std::dec << " "
         << perturbations << "\n";
    if (!meta) throw IoError("cannot write " + meta_tmp);
  }
  if (std::rename(meta_tmp.c_str(), meta_path.c_str()) != 0) {
    throw IoError("cannot rename " + meta_tmp + " to " + meta_path);
  }
  if (obs::metrics_enabled()) {
    obs::metrics().counter("solve.checkpoint_writes").add(1);
  }
}

/// SPARTS_TEST_KILL=RANK@PHASE[+N]: SIGKILL this process after its N-th
/// (default: first) data frame of the named phase.  The crash-semantics
/// tests use it to take one rank down at a deterministic mid-sweep point;
/// a no-op on every backend but proc and on every rank but RANK.
void maybe_arm_test_kill(const Options& options, const char* phase) {
  if (options.backend != ExecutionBackend::proc) return;
  const char* env = std::getenv("SPARTS_TEST_KILL");
  if (env == nullptr || *env == '\0') return;
  const std::string spec(env);
  const auto bad = [&spec]() {
    return InvalidArgument("SPARTS_TEST_KILL: expected RANK@PHASE[+N], got '" +
                           spec + "'");
  };
  const std::size_t at = spec.find('@');
  if (at == std::string::npos || at == 0 || at + 1 == spec.size()) throw bad();
  index_t rank = 0;
  std::string ph = spec.substr(at + 1);
  int count = 1;
  try {
    std::size_t used = 0;
    rank = static_cast<index_t>(std::stol(spec.substr(0, at), &used));
    if (used != at || rank < 0) throw bad();
    if (const std::size_t plus = ph.find('+'); plus != std::string::npos) {
      count = std::stoi(ph.substr(plus + 1), &used);
      if (used != ph.size() - plus - 1 || count < 1) throw bad();
      ph.resize(plus);
    }
  } catch (const InvalidArgument&) {
    throw;
  } catch (const std::exception&) {
    throw bad();
  }
  if (rank != options.proc_rank || ph != phase) return;
  exec::socket_test_kill_after(count);
}

/// Run one parallel phase; exec-level failures (injected crash, envelope
/// deadline, deadlock) become a structured SolveError naming the phase,
/// carrying the flight recorder's recent-event window as the postmortem.
template <typename Fn>
auto run_phase(const char* phase, const BackendStack& stack,
               ParallelSolveResult* result, Fn&& fn) {
  const auto failed = [&](const Error& e, std::string progress) {
    accumulate_report(stack, result);
    return SolveError(phase, e.what(), std::move(progress),
                      obs::FlightRecorder::instance().dump_text());
  };
  try {
    return fn();
  } catch (const TimeoutError& e) {
    // The envelope already appended its progress report to the message.
    throw failed(e, "");
  } catch (const InjectedFault& e) {
    throw failed(e, progress_of(stack));
  } catch (const DeadlockError& e) {
    throw failed(e, progress_of(stack));
  } catch (const exec::PeerFailure& e) {
    // Socket backend: a peer stopped heartbeating (crashed, was killed,
    // or sits behind a partition past the suspicion window).  The message
    // names the suspected rank and its last-contact age.
    throw failed(e, progress_of(stack));
  } catch (const exec::RemoteAbort& e) {
    // A peer rank aborted first (its exception was broadcast); surface
    // the originating rank's cause here so every survivor reports the
    // same root cause instead of a cascade of secondary timeouts.
    throw failed(e, progress_of(stack));
  }
}

}  // namespace

std::span<const BackendInfo> execution_backends() { return kBackends; }

std::string execution_backend_names() {
  std::string names;
  for (const BackendInfo& info : kBackends) {
    if (!names.empty()) names += " | ";
    names += info.name;
  }
  return names;
}

ExecutionBackend parse_execution_backend(const std::string& name) {
  for (const BackendInfo& info : kBackends) {
    if (name == info.name) return info.backend;
  }
  throw InvalidArgument("unknown backend '" + name +
                        "' (expected one of: " + execution_backend_names() +
                        ")");
}

const BackendInfo& execution_backend_info(ExecutionBackend backend) {
  for (const BackendInfo& info : kBackends) {
    if (info.backend == backend) return info;
  }
  throw InvalidArgument("execution backend missing from registry");
}

void validate_backend_stack(const Options& options) {
  if (options.check && options.fault_plan) {
    throw InvalidArgument(
        "the message audit (check) and a fault plan do not stack: the "
        "audit would flag the injected duplicates");
  }
  if (options.backend == ExecutionBackend::proc &&
      (options.check || options.fault_plan)) {
    throw InvalidArgument(
        "the proc backend takes no check or fault plan (wire faults come "
        "from SPARTS_CHAOS)");
  }
}

SparseSolver SparseSolver::factorize(const sparse::SymmetricCsc& a,
                                     const Options& options) {
  SparseSolver s;
  dense::set_kernel_impl(options.kernels);
  dense::set_pivot_policy({options.pivot_mode, options.pivot_rel_floor});
  {
    obs::PhaseScope phase("ordering");
    s.perm_ = compute_ordering(a, options.ordering);
    s.a_perm_ = sparse::permute_symmetric(a, s.perm_);
  }
  const symbolic::SupernodePartition part = [&] {
    obs::PhaseScope phase("symbolic");
    return analyze(s.a_perm_, options, &s.info_);
  }();
  {
    obs::PhaseScope phase("factorization");
    s.factor_ = numeric::multifrontal_cholesky(s.a_perm_, part);
  }
  return s;
}

std::vector<real_t> SparseSolver::solve(std::span<const real_t> b,
                                        index_t m) const {
  const index_t n = a_perm_.n();
  SPARTS_CHECK(static_cast<index_t>(b.size()) == n * m,
               "right-hand side has the wrong size");
  std::vector<real_t> x(b.size());
  for (index_t c = 0; c < m; ++c) {
    for (index_t k = 0; k < n; ++k) {
      x[static_cast<std::size_t>(c * n + k)] =
          b[static_cast<std::size_t>(c * n + perm_.old_of_new(k))];
    }
  }
  trisolve::full_solve(factor_, x.data(), m);
  std::vector<real_t> out(b.size());
  for (index_t c = 0; c < m; ++c) {
    for (index_t k = 0; k < n; ++k) {
      out[static_cast<std::size_t>(c * n + perm_.old_of_new(k))] =
          x[static_cast<std::size_t>(c * n + k)];
    }
  }
  return out;
}

std::vector<real_t> SparseSolver::solve_refined(std::span<const real_t> b,
                                                index_t m,
                                                int max_iterations,
                                                real_t tolerance,
                                                real_t* residual_out) const {
  const index_t n = a_perm_.n();
  SPARTS_CHECK(static_cast<index_t>(b.size()) == n * m);
  std::vector<real_t> x = solve(b, m);

  // Refinement works in the *original* ordering: A is available there via
  // the permuted matrix and the permutation.
  const sparse::SymmetricCsc& ap = a_perm_;
  std::vector<real_t> r(b.size());
  real_t residual = 0.0;
  for (int iter = 0; iter <= max_iterations; ++iter) {
    // r = b - A x (computed in the permuted ordering for the symv).
    std::fill(r.begin(), r.end(), 0.0);
    for (index_t c = 0; c < m; ++c) {
      std::vector<real_t> xp(static_cast<std::size_t>(n));
      for (index_t k = 0; k < n; ++k) {
        xp[static_cast<std::size_t>(k)] =
            x[static_cast<std::size_t>(c * n + perm_.old_of_new(k))];
      }
      std::vector<real_t> rp(static_cast<std::size_t>(n), 0.0);
      ap.symv(1.0, xp, rp);
      for (index_t k = 0; k < n; ++k) {
        r[static_cast<std::size_t>(c * n + perm_.old_of_new(k))] =
            b[static_cast<std::size_t>(c * n + perm_.old_of_new(k))] -
            rp[static_cast<std::size_t>(k)];
      }
    }
    real_t rn = 0.0, bn = 0.0;
    for (std::size_t z = 0; z < r.size(); ++z) {
      rn += r[z] * r[z];
      bn += b[z] * b[z];
    }
    residual = bn > 0.0 ? std::sqrt(rn / bn) : 0.0;
    if (residual <= tolerance || iter == max_iterations) break;
    const std::vector<real_t> dx = solve(r, m);
    for (std::size_t z = 0; z < x.size(); ++z) x[z] += dx[z];
  }
  if (residual_out != nullptr) *residual_out = residual;
  return x;
}

ParallelSolveResult parallel_solve(const sparse::SymmetricCsc& a,
                                   std::span<const real_t> b, index_t m,
                                   index_t p, const Options& options) {
  const index_t n = a.n();
  SPARTS_CHECK(static_cast<index_t>(b.size()) == n * m);
  validate_backend_stack(options);

  dense::set_kernel_impl(options.kernels);
  dense::set_pivot_policy({options.pivot_mode, options.pivot_rel_floor});
  const std::int64_t perturbations_before = dense::pivot_perturbations();
  const sparse::Permutation perm = [&] {
    obs::PhaseScope phase("ordering");
    return compute_ordering(a, options.ordering);
  }();
  const sparse::SymmetricCsc a_perm = sparse::permute_symmetric(a, perm);
  const symbolic::SupernodePartition part = [&] {
    obs::PhaseScope phase("symbolic");
    return analyze(a_perm, options, nullptr);
  }();

  ParallelSolveResult result;

  // Phase 1: parallel factorization with 2-D partitioned fronts.
  const mapping::SubcubeMapping fact_map = [&] {
    obs::PhaseScope phase("mapping");
    return mapping::subtree_to_subcube(part, p,
                                       mapping::factor_work_weights(part));
  }();
  numeric::SupernodalFactor factor;
  const std::uint64_t fingerprint =
      options.checkpoint_dir.empty() ? 0
                                     : factor_fingerprint(a_perm, options, p);
  // Cohort-wide perturbed-pivot count when it cannot be read off the local
  // counter: set by the checkpoint meta (factorization skipped) or by the
  // factor-mirror allreduce (process-separated ranks each only saw their
  // own pivots); -1 means "use the local counter".
  std::int64_t cohort_perturbations = -1;
  result.factor_from_checkpoint =
      try_load_checkpoint(options, fingerprint, &factor,
                          &cohort_perturbations);
  if (!result.factor_from_checkpoint) {
    obs::PhaseScope phase("factorization");
    maybe_arm_test_kill(options, "factorization");
    const BackendStack stack = make_backend(p, options);
    exec::Comm& machine = *stack.comm;
    const parfact::Report report = run_phase(
        "factorization", stack, &result, [&] {
          return parfact::parallel_multifrontal(machine, a_perm, part,
                                                fact_map, factor);
        });
    result.factor_time = report.time();
    result.factor_dag = report.graph;
    result.factor_critical_path = critical_path_of(stack);
    phase.set_parallel(exec::to_phase_stats(report.stats));
    accumulate_report(stack, &result);
    if (machine.distributed()) {
      // Process-separated ranks hold only the factor entries their own
      // rank computed, but everything downstream — redistribution
      // senders, the sequential prepack, host-side refinement — reads
      // the complete factor.  Mirror it across the cohort; exclusive 2-D
      // ownership of zero-initialized storage makes the merge bit-exact
      // and order-independent.  The piggybacked allreduce makes the
      // perturbed-pivot count (and hence the degraded-status refinement
      // decision) identical on every rank.
      run_phase("factor-mirror", stack, &result, [&] {
        machine.run([&](exec::Process& pr) {
          const exec::Group g{0, p, 1};
          exec::allmerge_nonzero(pr, g, factor.values(), kMirrorTagBase);
          std::vector<real_t> perturbed{static_cast<real_t>(
              dense::pivot_perturbations() - perturbations_before)};
          exec::allreduce_sum(pr, g, perturbed, kMirrorTagBase + p);
          cohort_perturbations = static_cast<std::int64_t>(perturbed[0]);
        });
        return 0;
      });
    }
    write_checkpoint(options, fingerprint, factor,
                     cohort_perturbations >= 0
                         ? cohort_perturbations
                         : dense::pivot_perturbations() -
                               perturbations_before);
  }

  // Phase 2: redistribute the factor 2-D -> 1-D for the solvers.  The
  // rank-local storage produced here is what the solve phase reads.
  // Under fusion the conversion of shared supernodes moves into the
  // forward sweep (phase 3); only the host-side prepack of sequential
  // supernodes — which never travel — happens here.
  const mapping::SubcubeMapping solve_map =
      mapping::subtree_to_subcube(part, p);
  const redist::Options redist_options;
  partrisolve::DistributedFactor local_factor;
  if (options.fuse_redistribution) {
    obs::PhaseScope phase("redistribution");
    redist::prepack_sequential(factor, solve_map, redist_options,
                               &local_factor);
    result.redist_time = 0.0;
  } else {
    obs::PhaseScope phase("redistribution");
    maybe_arm_test_kill(options, "redistribution");
    const BackendStack stack = make_backend(p, options);
    exec::Comm& machine = *stack.comm;
    const redist::Report report = run_phase(
        "redistribution", stack, &result, [&] {
          return redist::redistribute_factor(machine, factor, solve_map,
                                             redist_options, &local_factor);
        });
    result.redist_time = report.time();
    phase.set_parallel(exec::to_phase_stats(report.stats));
    accumulate_report(stack, &result);
  }

  // Phase 3: pipelined triangular solves.
  std::vector<real_t> b_perm(b.size());
  for (index_t c = 0; c < m; ++c) {
    for (index_t k = 0; k < n; ++k) {
      b_perm[static_cast<std::size_t>(c * n + k)] =
          b[static_cast<std::size_t>(c * n + perm.old_of_new(k))];
    }
  }
  std::vector<real_t> x_perm(b.size(), 0.0);
  {
    partrisolve::Options solver_options;
    solver_options.block_size = redist_options.block_1d;
    partrisolve::DistributedTrisolver solver(factor, &local_factor,
                                             solve_map, solver_options);
    if (options.fuse_redistribution) {
      // Fused 2-D -> 1-D conversion: each shared supernode's fragments
      // are exchanged at its first touch in the forward sweep, on a tag
      // plane above everything the solver emits.  Each rank fills only
      // its own slice of local_factor, so the concurrent writes from the
      // SPMD ranks never alias.
      const int tag_base = solver.tag_limit();
      solver.set_forward_prologue(
          [&factor, &solve_map, redist_options, &local_factor,
           tag_base](exec::Process& proc, index_t s) {
            redist::redistribute_supernode(proc, factor, solve_map,
                                           redist_options, s, &local_factor,
                                           tag_base);
          });
    }
    const BackendStack stack = make_backend(p, options);
    exec::Comm& machine = *stack.comm;
    std::vector<real_t> y_perm(b.size(), 0.0);
    {
      obs::PhaseScope phase("forward");
      maybe_arm_test_kill(options, "forward");
      const partrisolve::PhaseReport fw = run_phase(
          "forward", stack, &result,
          [&] { return solver.forward(machine, b_perm, y_perm, m); });
      result.forward_time = fw.time();
      result.forward_dag = fw.graph;
      result.forward_critical_path = critical_path_of(stack);
      phase.set_parallel(exec::to_phase_stats(fw.stats));
    }
    {
      obs::PhaseScope phase("backward");
      maybe_arm_test_kill(options, "backward");
      const partrisolve::PhaseReport bw = run_phase(
          "backward", stack, &result,
          [&] { return solver.backward(machine, y_perm, x_perm, m); });
      result.backward_time = bw.time();
      result.backward_dag = bw.graph;
      result.backward_critical_path = critical_path_of(stack);
      phase.set_parallel(exec::to_phase_stats(bw.stats));
    }
    accumulate_report(stack, &result);
    if (machine.distributed()) {
      // Each process wrote only its own rank's rows of x_perm; mirror so
      // the host-side refinement and the un-permutation below see the
      // complete solution — and every rank of the cohort returns the
      // identical x.
      run_phase("solution-mirror", stack, &result, [&] {
        machine.run([&](exec::Process& pr) {
          exec::allmerge_nonzero(pr, exec::Group{0, p, 1},
                                 std::span<real_t>(x_perm), kMirrorTagBase);
        });
        return 0;
      });
    }
  }

  // Graceful numerical degradation: if any pivot was perturbed, the factor
  // is exact only for a nearby matrix.  Recover accuracy with host-side
  // residual-driven refinement against the true matrix (parallel_solve
  // holds the complete factor, so corrections use the sequential solver),
  // and report the result as degraded.
  result.perturbed_pivots =
      cohort_perturbations >= 0
          ? cohort_perturbations
          : dense::pivot_perturbations() - perturbations_before;
  if (result.perturbed_pivots > 0) {
    result.status = SolveStatus::degraded;
    real_t b_norm = 0.0;
    for (const real_t v : b_perm) b_norm += v * v;
    b_norm = std::sqrt(b_norm);
    std::vector<real_t> r_perm(b.size());
    auto compute_residual = [&]() -> real_t {
      real_t rn = 0.0;
      for (index_t c = 0; c < m; ++c) {
        std::vector<real_t> ax(static_cast<std::size_t>(n), 0.0);
        a_perm.symv(1.0,
                    std::span<const real_t>(
                        x_perm.data() + static_cast<std::size_t>(c * n),
                        static_cast<std::size_t>(n)),
                    ax);
        for (index_t k = 0; k < n; ++k) {
          const std::size_t z = static_cast<std::size_t>(c * n + k);
          r_perm[z] = b_perm[z] - ax[static_cast<std::size_t>(k)];
          rn += r_perm[z] * r_perm[z];
        }
      }
      return b_norm > 0.0 ? std::sqrt(rn) / b_norm : 0.0;
    };
    result.residual = compute_residual();
    while (result.residual > options.refine_tolerance &&
           result.refine_iterations < options.refine_max_iterations) {
      std::vector<real_t> dx = r_perm;
      trisolve::full_solve(factor, dx.data(), m);
      for (std::size_t z = 0; z < x_perm.size(); ++z) x_perm[z] += dx[z];
      ++result.refine_iterations;
      const real_t next = compute_residual();
      if (obs::metrics_enabled()) {
        obs::metrics().counter("solve.refine_iterations").add(1);
      }
      if (!(next < result.residual)) break;  // stagnated (or NaN): stop
      result.residual = next;
    }
  }

  result.x.assign(b.size(), 0.0);
  for (index_t c = 0; c < m; ++c) {
    for (index_t k = 0; k < n; ++k) {
      result.x[static_cast<std::size_t>(c * n + perm.old_of_new(k))] =
          x_perm[static_cast<std::size_t>(c * n + k)];
    }
  }
  return result;
}

}  // namespace sparts::solver
