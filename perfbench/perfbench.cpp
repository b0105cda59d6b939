// perfbench: the measuring half of the end-to-end benchmark (run.py is the
// other half: it builds this binary, prepares inputs, checks outputs and
// prints the metrics).
//
//   perfbench gen --workload W --nodes N --out FILE
//   perfbench gen --probe --nodes N --out FILE
//       Input preparation: writes the workload's Table-1 stand-in (or the
//       convergence probe's Livejournal B stand-in) as an edge list.
//
//   perfbench run --workload W --edges FILE --seed S --seconds T --trace 0|1
//                 --threads N --out FILE [--probe-edges FILE]
//       Loads FILE the way `socmix --edges` does and runs the workload's
//       operation. Untraced (--trace 0): set-up three times, then the
//       operation through its public entry point (core::measure_mixing or
//       sybil::admission_sweep) until T seconds have passed, at least once.
//       Traced (--trace 1): set-up once and the operation once, decomposed
//       into the calls it makes into each layer, each call wrapped in a
//       span; then companion passes for the layers the operation bypasses,
//       and the probes (1-thread reruns, one 32-lane block stepped alone,
//       the Ritz residual, the convergence probe).
//       Everything measured goes to the JSON file --out; run.py derives the
//       metrics from it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "bench_harness/json.hpp"
#include "core/measurement.hpp"
#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "graph/io.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/vector_ops.hpp"
#include "linalg/walk_operator.hpp"
#include "markov/batched_evolver.hpp"
#include "markov/mixing_time.hpp"
#include "markov/stationary.hpp"
#include "sybil/admission_engine.hpp"
#include "sybil/sybil_limit.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using socmix::bench::Json;
namespace core = socmix::core;
namespace gen = socmix::gen;
namespace graph = socmix::graph;
namespace linalg = socmix::linalg;
namespace markov = socmix::markov;
namespace sybil = socmix::sybil;
namespace util = socmix::util;

// ----------------------------------------------------------- workloads --

/// One workload: the dataset its input is generated from and the operation
/// it times. Sizes are the ones README.md gives reasons for.
struct Workload {
  const char* name;
  const char* dataset;
  bool spectral;        ///< measure_mixing with the Lanczos phase
  bool sampled;         ///< measure_mixing with the sampled phase
  bool sybil;           ///< admission_sweep instead of measure_mixing
  std::size_t sources;  ///< sampled sources (also of the markov companion)
  std::size_t steps;    ///< walk length of the sampled phase
};

/// Every input graph is the one `socmix generate --dataset NAME --nodes N`
/// makes (the CLI's default seed): ROADMAP's reference stand-ins. The run's
/// seed picks what `socmix measure --seed` and `socmix sybil --seed` pick:
/// sources, suspects and verifiers. README.md says why the graph is fixed.
constexpr std::uint64_t kGraphSeed = 42;

constexpr Workload kWorkloads[] = {
    {"measure-lj100k", "Livejournal A", true, true, false, 128, 100},
    {"sampled-fba100k", "Facebook A", false, true, false, 128, 200},
    {"sybil-fba100k", "Facebook A", false, false, true, 128, 200},
};

/// The convergence probe's dataset (traced runs only).
constexpr const char* kProbeDataset = "Livejournal B";

// `socmix sybil` defaults.
const std::vector<std::size_t> kRouteLengths = {2, 4, 8, 16, 24, 32};
constexpr std::size_t kSuspects = 200;
constexpr std::size_t kVerifiers = 3;

/// Set-up repetitions of an untraced run; run.py reports their median.
constexpr int kSetupRepeats = 3;

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument{"unknown workload: " + name};
}

// -------------------------------------------------------------- tracing --

/// In-memory span recorder. A span has a name, start and end (seconds
/// since the recorder was made), the span that was open when it began,
/// the id of the root span it belongs to (one per operation), and counts
/// taken at the same boundary. Spans are recorded only from this file,
/// around the calls into the library's layers, and written out at the end.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    /// Attaches a count to this span.
    void count(const std::string& key, double value) {
      if (tracer_ != nullptr) tracer_->spans_[index_].counts.set(key, value);
    }

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span as a child of the innermost open span (a root when none
  /// is open); it closes when the returned scope is destroyed.
  [[nodiscard]] Scope span(std::string name) {
    if (!enabled_) return Scope{nullptr, 0};
    Span s;
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    s.operation = open_.empty() ? s.id : spans_[open_.back()].operation;
    s.name = std::move(name);
    s.counts = Json::object();
    s.start = now();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return Scope{this, spans_.size() - 1};
  }

  [[nodiscard]] Json to_json() const {
    Json out = Json::array();
    for (const Span& s : spans_) {
      Json j = Json::object();
      j.set("id", static_cast<std::uint64_t>(s.id));
      j.set("parent", static_cast<std::uint64_t>(s.parent));
      j.set("operation", static_cast<std::uint64_t>(s.operation));
      j.set("name", s.name);
      j.set("start", s.start);
      j.set("end", s.end);
      j.set("counts", s.counts);
      out.push(std::move(j));
    }
    return out;
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    std::size_t id = 0;
    std::size_t parent = 0;
    std::size_t operation = 0;
    std::string name;
    double start = 0.0;
    double end = 0.0;
    Json counts;
  };

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  void close(std::size_t index) {
    spans_[index].end = now();
    open_.pop_back();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Satisfies linalg::WalkLikeOperator by forwarding to `Op`, and wraps
/// every apply() in a linalg.spmv span.
template <linalg::WalkLikeOperator Op>
class TimedOperator {
 public:
  TimedOperator(const Op& op, Tracer& tracer) : op_(&op), tracer_(&tracer) {}
  [[nodiscard]] std::size_t dim() const { return op_->dim(); }
  void apply(std::span<const double> x, std::span<double> y) const {
    const auto span = tracer_->span("linalg.spmv");
    op_->apply(x, y);
  }
  [[nodiscard]] std::vector<double> top_eigenvector() const { return op_->top_eigenvector(); }
  [[nodiscard]] double laziness() const { return op_->laziness(); }

 private:
  const Op* op_;
  Tracer* tracer_;
};

// -------------------------------------------------------------- outputs --

Json spectrum_json(bool converged, double slem, double lambda2, double lambda_min,
                   std::size_t iterations) {
  Json j = Json::object();
  j.set("converged", converged);
  j.set("slem", slem);
  j.set("lambda2", lambda2);
  j.set("lambda_min", lambda_min);
  j.set("iterations", static_cast<std::uint64_t>(iterations));
  return j;
}

/// Per-source mixing time at the headline epsilon (-1 = not mixed within
/// the budget) and TVD halfway through and at the end of the walk.
Json sampled_json(const markov::SampledMixing& s) {
  Json mixing = Json::array();
  Json tvd_mid = Json::array();
  Json tvd_end = Json::array();
  const std::size_t mid = std::max<std::size_t>(1, s.max_steps() / 2);
  for (std::size_t i = 0; i < s.num_sources(); ++i) {
    const std::size_t t = s.mixing_time(i, markov::kHeadlineEpsilon);
    mixing.push(t == markov::kNotMixed ? Json{std::int64_t{-1}}
                                       : Json{static_cast<std::uint64_t>(t)});
    tvd_mid.push(s.tvd(i, mid));
    tvd_end.push(s.tvd(i, s.max_steps()));
  }
  Json j = Json::object();
  j.set("mixing_times", std::move(mixing));
  j.set("tvd_mid", std::move(tvd_mid));
  j.set("tvd_end", std::move(tvd_end));
  return j;
}

Json fractions_json(std::span<const double> fractions) {
  Json j = Json::array();
  for (const double f : fractions) j.push(f);
  return j;
}

// ------------------------------------------------------------ operations --

core::MeasurementOptions measurement_options(const Workload& w, std::uint64_t seed) {
  core::MeasurementOptions options;
  options.spectral = w.spectral;
  options.sampled = w.sampled;
  options.sources = w.sources;
  options.max_steps = w.steps;
  options.seed = seed;
  return options;
}

sybil::AdmissionSweepConfig sweep_config(std::uint64_t seed) {
  sybil::AdmissionSweepConfig config;
  config.route_lengths = kRouteLengths;
  config.suspect_sample = kSuspects;
  config.verifier_sample = kVerifiers;
  config.seed = seed;
  return config;
}

/// The workload's operation through its public entry point; returns the
/// outputs run.py checks.
Json run_untraced(const graph::Graph& g, const Workload& w, std::uint64_t seed) {
  Json out = Json::object();
  if (w.sybil) {
    std::vector<double> fractions;
    for (const auto& p : sybil::admission_sweep(g, sweep_config(seed))) {
      fractions.push_back(p.admitted_fraction);
    }
    out.set("fractions", fractions_json(fractions));
    return out;
  }
  const core::MixingReport report = core::measure_mixing(g, w.name, measurement_options(w, seed));
  if (report.spectral_ran) {
    out.set("spectrum", spectrum_json(report.spectral_converged, report.slem, report.lambda2,
                                      report.lambda_min, report.lanczos_iterations));
  }
  if (report.sampled) out.set("sampled", sampled_json(*report.sampled));
  return out;
}

/// The linalg pass: slem_spectrum on the walk operator, each apply timed.
linalg::SpectrumResult linalg_pass(const graph::Graph& g, Tracer& tracer) {
  const linalg::WalkOperator op{g};
  auto span = tracer.span("linalg.slem_spectrum");
  const TimedOperator timed{op, tracer};
  linalg::SpectrumResult r = linalg::slem_spectrum(timed, linalg::LanczosOptions{});
  span.count("iterations", static_cast<double>(r.iterations));
  span.count("converged", r.converged ? 1.0 : 0.0);
  span.count("nodes", static_cast<double>(g.num_nodes()));
  span.count("edges", static_cast<double>(g.num_edges()));
  return r;
}

struct SampledPass {
  std::vector<graph::NodeId> sources;
  std::optional<markov::SampledMixing> result;
};

/// The markov pass: the sources measure_mixing draws, then
/// measure_sampled_mixing with default options.
SampledPass markov_pass(const graph::Graph& g, const Workload& w, std::uint64_t seed,
                        Tracer& tracer) {
  auto span = tracer.span("markov.measure_sampled_mixing");
  SampledPass pass;
  util::Rng rng{seed};
  pass.sources = markov::pick_sources(g, w.sources, rng);
  markov::SampledMixingOptions options;
  options.max_steps = w.steps;
  pass.result = markov::measure_sampled_mixing(g, pass.sources, options);
  span.count("sources", static_cast<double>(pass.sources.size()));
  span.count("steps", static_cast<double>(w.steps));
  span.count("edges", static_cast<double>(g.num_edges()));
  return pass;
}

struct SybilPass {
  std::vector<graph::NodeId> suspects;
  std::vector<double> fractions;
  std::unique_ptr<sybil::AdmissionEngine> engine;
};

/// The sybil pass: admission_sweep's interior, one layer call at a time
/// (engine build, the verifiers' index precompute, the sweep itself).
SybilPass sybil_pass(const graph::Graph& g, std::uint64_t seed, Tracer& tracer) {
  const sybil::AdmissionSweepConfig config = sweep_config(seed);
  SybilPass pass;
  util::Rng rng{config.seed};
  pass.suspects = markov::pick_sources(g, config.suspect_sample, rng);
  const std::vector<graph::NodeId> verifiers =
      markov::pick_sources(g, std::max<std::size_t>(1, config.verifier_sample), rng);

  sybil::AdmissionEngineConfig engine_config;
  engine_config.r0 = config.r0;
  engine_config.balance_factor = config.balance_factor;
  engine_config.seed = config.seed;
  engine_config.frontier = config.frontier;
  {
    const auto span = tracer.span("sybil.engine_build");
    pass.engine = std::make_unique<sybil::AdmissionEngine>(
        g, engine_config, std::span<const std::size_t>{config.route_lengths});
  }
  for (const graph::NodeId v : verifiers) {
    const auto span = tracer.span("sybil.verifier");
    (void)pass.engine->verifier(v);
  }
  {
    auto span = tracer.span("sybil.sweep_fractions");
    pass.fractions =
        pass.engine->sweep_fractions(verifiers, pass.suspects, config.route_lengths);
    const sybil::AdmissionEngineStats& stats = pass.engine->stats();
    span.count("route_hops_walked", static_cast<double>(stats.route_hops_walked));
    span.count("queries", static_cast<double>(stats.queries));
    span.count("verifier_cache_hits", static_cast<double>(stats.verifier_cache_hits));
    span.count("verifier_cache_misses", static_cast<double>(stats.verifier_cache_misses));
  }
  return pass;
}

/// The suspect side of a sybil pass alone, spread over the pool as
/// sweep_fractions spreads it. sweep_fractions walks these same tails
/// internally, so this runs after the pass, outside the operation.
void suspect_tails_probe(const SybilPass& pass, Tracer& tracer) {
  const auto span = tracer.span("probe.suspect_tails");
  const auto tails = tracer.span("sybil.registration_tails_multi");
  util::parallel_for(0, pass.suspects.size(), 1, [&](std::size_t lo, std::size_t hi) {
    std::vector<std::vector<sybil::DirectedEdge>> out;
    for (std::size_t i = lo; i < hi; ++i) {
      pass.engine->registration_tails_multi(pass.suspects[i], out);
    }
  });
}

// ----------------------------------------------------------------- run --

struct RunArgs {
  const Workload* workload = nullptr;
  std::string edges;
  std::string probe_edges;
  std::string out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;
};

/// User plus system CPU time of every thread of this process so far.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Time the hypervisor has taken from this machine's CPUs so far (the
/// steal column of /proc/stat), averaged over the CPUs: the wall time an
/// interval lost to steal, for work spread over the machine or on a CPU
/// picked at random. 0 when /proc/stat is unavailable.
double steal_seconds_per_cpu() {
  std::ifstream stat{"/proc/stat"};
  std::string line;
  double steal_ticks = 0.0;
  int cpus = 0;
  while (std::getline(stat, line) && line.rfind("cpu", 0) == 0) {
    if (line.rfind("cpu ", 0) == 0) {
      // cpu user nice system idle iowait irq softirq steal ...
      std::istringstream fields{line.substr(4)};
      double value = 0.0;
      for (int i = 0; i < 8 && fields >> value; ++i) {
        if (i == 7) steal_ticks = value;
      }
    } else {
      ++cpus;
    }
  }
  if (cpus == 0) return 0.0;
  return steal_ticks / static_cast<double>(sysconf(_SC_CLK_TCK)) / cpus;
}

/// VmHWM of this process in KiB (0 when /proc is unavailable).
double peak_rss_kib() {
  std::ifstream status{"/proc/self/status"};
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

/// Loads the edge list and extracts its largest component, as
/// `socmix --edges` does before any measurement.
graph::Graph set_up(const std::string& path, Tracer& tracer) {
  graph::LoadResult loaded = [&] {
    const auto span = tracer.span("graph.load_edge_list_file");
    return graph::load_edge_list_file(path);
  }();
  const auto span = tracer.span("graph.largest_component");
  return graph::largest_component(loaded.graph).graph;
}

/// Runs `f` once and records its outcome: outputs or the error it threw,
/// wall seconds, CPU seconds of all threads, and the per-CPU steal over the
/// same interval.
Json attempt(const std::function<Json()>& f) {
  Json op = Json::object();
  const double cpu0 = cpu_seconds();
  const double steal0 = steal_seconds_per_cpu();
  const util::Timer timer;
  try {
    op.set("outputs", f());
  } catch (const std::exception& e) {
    op.set("error", std::string{e.what()});
  }
  op.set("seconds", timer.seconds());
  op.set("cpu_seconds", cpu_seconds() - cpu0);
  op.set("steal_seconds", steal_seconds_per_cpu() - steal0);
  return op;
}

/// ||A y - theta y|| for the Ritz pair (theta, y) of lambda_2, with one
/// extra apply (theta in the walk operator's own spectrum; laziness 0).
double ritz_residual(const graph::Graph& g, const linalg::SpectrumResult& r) {
  const linalg::WalkOperator op{g};
  std::vector<double> ay(op.dim());
  op.apply(r.lambda2_vector, ay);
  linalg::axpy(-r.lambda2, r.lambda2_vector, ay);
  return linalg::norm2(ay);
}

/// What recording one span costs, measured on a scratch recorder: the
/// tracing overhead of a traced operation is its span count times this.
double span_cost_seconds() {
  constexpr int kSpans = 20000;
  Tracer scratch{true};
  const util::Timer timer;
  for (int i = 0; i < kSpans; ++i) {
    auto span = scratch.span("calibration");
    span.count("count", i);
  }
  return timer.seconds() / kSpans;
}

void traced_run(const RunArgs& args, const graph::Graph& g, Json& result) {
  const Workload& w = *args.workload;
  Tracer tracer{true};

  // The operation, one span per call into a layer.
  Json ops = Json::array();
  std::optional<SampledPass> sampled;
  std::optional<linalg::SpectrumResult> spectrum;
  std::optional<SybilPass> sybil_result;
  ops.push(attempt([&] {
    Json out = Json::object();
    const auto span = tracer.span("operation");
    if (w.spectral) {
      spectrum = linalg_pass(g, tracer);
      out.set("spectrum", spectrum_json(spectrum->converged, spectrum->slem,
                                        spectrum->lambda2, spectrum->lambda_min,
                                        spectrum->iterations));
    }
    if (w.sampled) {
      sampled = markov_pass(g, w, args.seed, tracer);
      out.set("sampled", sampled_json(*sampled->result));
    }
    if (w.sybil) {
      sybil_result = sybil_pass(g, args.seed, tracer);
      out.set("fractions", fractions_json(sybil_result->fractions));
    }
    return out;
  }));
  // Every per-layer number needs the operation's spans and results.
  if (const Json* error = ops.at(0).find("error")) {
    throw std::runtime_error{"traced operation failed: " + error->as_string()};
  }
  result.set("ops", std::move(ops));

  // Companion passes: every traced run reports every layer, so layers the
  // operation bypasses run once on the same graph, outside the operation.
  Json checks = Json::array();
  const auto check = [&](const std::string& name, bool ok, double value) {
    Json c = Json::object();
    c.set("name", name);
    c.set("ok", ok);
    c.set("value", value);
    checks.push(std::move(c));
  };
  if (!w.spectral) {
    const auto span = tracer.span("companion.linalg");
    spectrum = linalg_pass(g, tracer);
  }
  if (!w.sampled) {
    const auto span = tracer.span("companion.markov");
    sampled = markov_pass(g, w, args.seed, tracer);
  }
  if (!w.sybil) {
    const auto span = tracer.span("companion.sybil");
    sybil_result = sybil_pass(g, args.seed, tracer);
  }
  suspect_tails_probe(*sybil_result, tracer);

  // Single-thread baselines of the two parallel layers, and the Ritz check:
  // the 1-thread solve keeps its lambda_2 vector, one more apply gives the
  // residual, and no stored value is needed.
  const std::size_t threads = util::thread_count();
  util::set_thread_count(1);
  {
    const auto span = tracer.span("probe.linalg_1t");
    const linalg::WalkOperator op{g};
    const linalg::SpectrumResult r = [&] {
      const auto solve = tracer.span("linalg.slem_spectrum_with_vector");
      const TimedOperator timed{op, tracer};
      return linalg::slem_spectrum_with_vector(timed, linalg::LanczosOptions{});
    }();
    const double residual = ritz_residual(g, r);
    check("ritz_residual", r.converged && residual <= linalg::LanczosOptions{}.tolerance,
          residual);
    // The 1-thread solve must find the same spectrum as the 4-thread one.
    check("slem_thread_parity", r.slem == spectrum->slem, std::fabs(r.slem - spectrum->slem));
  }
  {
    const auto span = tracer.span("probe.markov_1t");
    (void)markov_pass(g, w, args.seed, tracer);
  }
  {
    // One 32-lane block stepped on its own; its trajectories must equal the
    // first block's in the sampled pass bit for bit.
    const auto span = tracer.span("probe.markov_step");
    const std::size_t lanes =
        std::min(markov::BatchedEvolver::kDefaultBlock, sampled->sources.size());
    markov::BatchedEvolver evolver{g};
    const std::vector<double> pi = markov::stationary_distribution(g);
    evolver.seed_point_masses(std::span{sampled->sources}.first(lanes));
    std::vector<double> tvd(lanes);
    bool same = true;
    for (std::size_t t = 1; t <= w.steps; ++t) {
      {
        const auto step = tracer.span("markov.step_with_tvd");
        evolver.step_with_tvd(pi, tvd);
      }
      for (std::size_t b = 0; b < lanes; ++b) same = same && tvd[b] == sampled->result->tvd(b, t);
    }
    check("step_probe_parity", same, same ? 0.0 : 1.0);
  }
  util::set_thread_count(threads);

  if (!args.probe_edges.empty()) {
    // Convergence probe: reported as it comes out, never retried or resized.
    Tracer untimed{false};
    const graph::Graph probe = set_up(args.probe_edges, untimed);
    const auto span = tracer.span("probe.convergence");
    (void)linalg_pass(probe, tracer);
  }

  result.set("checks", std::move(checks));
  result.set("spans", tracer.to_json());
  result.set("span_cost_s", span_cost_seconds());
}

void untraced_run(const RunArgs& args, const graph::Graph& g, Json& result) {
  Json ops = Json::array();
  const util::Timer clock;
  do {
    ops.push(attempt([&] { return run_untraced(g, *args.workload, args.seed); }));
  } while (clock.seconds() < args.seconds);
  result.set("ops", std::move(ops));
  result.set("checks", Json::array());
}

int cmd_run(const util::Cli& cli) {
  RunArgs args;
  args.workload = &find_workload(cli.get("workload", ""));
  args.edges = cli.get("edges", "");
  args.probe_edges = cli.get("probe-edges", "");
  args.out = cli.get("out", "");
  args.seed = static_cast<std::uint64_t>(cli.get_i64("seed", 1));
  args.seconds = static_cast<double>(cli.get_i64("seconds", 10));
  args.trace = cli.get_i64("trace", 0) != 0;
  args.threads = static_cast<std::size_t>(cli.get_i64("threads", 1));
  if (args.edges.empty() || args.out.empty() || args.threads == 0) {
    throw std::invalid_argument{"run needs --edges, --out and --threads >= 1"};
  }
  util::set_thread_count(args.threads);

  Json result = Json::object();
  result.set("workload", args.workload->name);
  result.set("seed", args.seed);
  result.set("threads", static_cast<std::uint64_t>(args.threads));
  result.set("build_type", PERFBENCH_BUILD_TYPE);

  // Set-up: timed untraced, repeated so run.py can report a median; the
  // traced run sets up once, under spans.
  Tracer setup_tracer{args.trace};
  std::optional<graph::Graph> g;
  Json setup = Json::array();
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    g.reset();
    Json record = attempt([&] {
      g = set_up(args.edges, setup_tracer);
      return Json::object();
    });
    if (const Json* error = record.find("error")) {
      throw std::runtime_error{"set-up failed: " + error->as_string()};
    }
    setup.push(std::move(record));
  }
  result.set("setup", std::move(setup));
  result.set("nodes", static_cast<std::uint64_t>(g->num_nodes()));
  result.set("edges", static_cast<std::uint64_t>(g->num_edges()));

  if (args.trace) {
    traced_run(args, *g, result);
    result.set("setup_spans", setup_tracer.to_json());
  } else {
    untraced_run(args, *g, result);
  }
  result.set("peak_rss_kib", peak_rss_kib());

  std::ofstream out{args.out};
  result.write(out);
  out << '\n';
  if (!out) throw std::runtime_error{"cannot write " + args.out};
  return 0;
}

int cmd_gen(const util::Cli& cli) {
  const std::string dataset =
      cli.has("probe") ? kProbeDataset : find_workload(cli.get("workload", "")).dataset;
  const auto spec = gen::find_dataset(dataset);
  const auto nodes = static_cast<graph::NodeId>(cli.get_i64("nodes", 100000));
  const graph::Graph g = gen::build_dataset(*spec, nodes, kGraphSeed);
  std::ofstream out{cli.get("out", "")};
  graph::save_edge_list(g, out);
  if (!out) throw std::runtime_error{"cannot write the edge list"};
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument{"usage: perfbench gen|run [options]"};
    const std::string command = argv[1];
    const util::Cli cli{argc - 1, argv + 1};
    if (command == "gen") return cmd_gen(cli);
    if (command == "run") return cmd_run(cli);
    throw std::invalid_argument{"unknown command: " + command};
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
