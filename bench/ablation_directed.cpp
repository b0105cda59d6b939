// Ablation: the paper's §4 preprocessing — converting directed crawls to
// undirected graphs — made measurable.
//
// Build a directed stand-in at several reciprocity levels (Wiki-vote-like
// r ~ 0.06 up to LiveJournal-like r ~ 0.7), then measure:
//   * the directed chain's mixing (teleport-smoothed power iteration),
//   * the symmetrized (paper-preprocessed) chain's mixing,
// and report the gap the conversion introduces.
//
//   --nodes N     (default 2000)
//   --steps N     walk budget (default 400)
//   --sources N   (default 30)
//   --seed N
#include <cstdio>
#include <iostream>

#include "bench_harness/harness.hpp"
#include "core/experiment.hpp"
#include "digraph/io.hpp"
#include "digraph/scc.hpp"
#include "digraph/walk.hpp"
#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "linalg/lanczos.hpp"
#include "markov/mixing_time.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace socmix;

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  // Phase seconds recorded by core::measure_mixing land in the process
  // harness; the atexit hook writes BENCH_<bench>.json next to the CSVs.
  bench::Harness::configure_process(cli);
  core::configure_observability(cli);
  const auto nodes = static_cast<graph::NodeId>(cli.get_i64("nodes", 2000));
  const auto max_steps = static_cast<std::size_t>(cli.get_i64("steps", 400));
  const auto num_sources = static_cast<std::size_t>(cli.get_i64("sources", 30));
  const auto seed = static_cast<std::uint64_t>(cli.get_i64("seed", 42));
  cli.reject_unknown();

  const auto undirected_base =
      gen::build_dataset(*gen::find_dataset("Physics 1"), nodes, seed);
  std::printf("Directed vs symmetrized mixing (base: Physics 1 stand-in, n=%u)\n\n",
              undirected_base.num_nodes());

  util::TextTable table;
  table.header({"reciprocity", "SCC size", "directed mean T(0.1)",
                "directed unmixed", "symmetrized mean T(0.1)", "sym mu"});

  util::Rng rng{seed};
  for (const double reciprocity : {0.05, 0.25, 0.5, 0.75, 1.0}) {
    const auto directed = digraph::randomly_orient(undirected_base, reciprocity, rng);
    const auto scc = digraph::largest_scc(directed);
    if (scc.graph.num_nodes() < 10) {
      table.row({util::fmt_fixed(reciprocity, 2), "degenerate"});
      continue;
    }

    std::vector<digraph::NodeId> sources;
    for (std::size_t s = 0; s < num_sources && s < scc.graph.num_nodes(); ++s) {
      sources.push_back(static_cast<digraph::NodeId>(
          rng.below(scc.graph.num_nodes())));
    }
    // Teleport 1% keeps the directed chain ergodic without flattening it.
    const auto directed_mix =
        digraph::directed_mixing_time(scc.graph, sources, max_steps, 0.1, 0.01);

    const auto sym = digraph::symmetrize(scc.graph);
    const auto sym_lcc = graph::largest_component(sym.graph).graph;
    util::Rng source_rng{seed + 1};
    const auto sym_sources = markov::pick_sources(sym_lcc, num_sources, source_rng);
    const auto sym_sampled =
        markov::measure_sampled_mixing(sym_lcc, sym_sources, max_steps);
    const auto sym_avg = sym_sampled.average_mixing_time(0.1);
    const double sym_mu = linalg::slem_spectrum(linalg::WalkOperator{sym_lcc}).slem;

    table.row({util::fmt_fixed(reciprocity, 2),
               std::to_string(scc.graph.num_nodes()),
               util::fmt_fixed(directed_mix.mean, 1),
               std::to_string(directed_mix.unmixed_sources) + "/" +
                   std::to_string(sources.size()),
               util::fmt_fixed(sym_avg.mean_steps, 1), util::fmt_fixed(sym_mu, 5)});
    std::fflush(stdout);
  }
  table.print(std::cout);
  std::cout << "\nReading: symmetrization changes the chain (and at low\n"
               "reciprocity shrinks the meaningful domain from the SCC to the\n"
               "whole weakly-connected graph). The paper's conversion is the\n"
               "community convention, but it is a modeling decision with a\n"
               "measurable effect, not a no-op.\n";
  return 0;
}
