// graph_pack — converts an edge list (or a generated Table-1 stand-in)
// into the `.smxg` memory-mappable sharded CSR container.
//
//   graph_pack --edges g.txt --out g.smxg [--sharded auto|off|N]
//              [--reorder none|rcm|bfs] [--compress]
//   graph_pack --dataset "Synthetic 1M" --nodes 1000000 --out g.smxg
//   graph_pack --verify g.smxg
//
// Mirrors the preprocessing of `socmix measure`: load/build, extract the
// largest connected component, optionally relabel (--reorder), then write
// the CSR with a shard plan resolved by --sharded against the CSR byte
// size. This is the one place vertex ordering and shard geometry are
// chosen: `socmix measure --pack g.smxg` maps the result with zero parse
// cost, runs on the stored labels, and the walk engines stream it
// window-at-a-time under the stored plan, with no option to relabel or
// re-plan. An ordering pays on crawl-ordered input (arbitrary labels),
// where rcm or bfs groups each vertex's neighbors into nearby rows. `auto` budgets three resident copies of a shard
// window for a compressed pack (two decoded scratch slots plus the mapped
// ADJC bytes) and two for a raw one (current + next). --compress
// emits the adjacency as the delta + stream-vbyte ADJC section (format
// version 2, roughly half the bytes per edge; see sharded/adjc.hpp), which
// the measurement decodes shard-wise, one shard ahead of compute on a
// worker thread, through linalg::ShardPipeline.
//
// The --edges path converts text to CSR in two streaming passes over the
// file (count degrees, then fill rows) instead of materializing an edge
// list, so peak memory is the CSR itself plus the id remap — the packer
// runs under the same address-space cap the scale-smoke CI lane measures
// under.
//
// --verify maps an existing container (full CRC + structural validation)
// and reports its geometry plus every section's stored CRC-32; exit 1 on
// any defect.
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "graph/sharded/format.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"

using namespace socmix;

namespace {

int usage() {
  std::fputs(
      "usage: graph_pack --edges FILE | --dataset NAME [--nodes N] [--seed N]\n"
      "                  --out FILE.smxg\n"
      "                  [--sharded auto|off|N]   pack-time shard plan (default auto)\n"
      "                  [--reorder none|rcm|bfs] vertex ordering (default none)\n"
      "                  [--compress]             delta+vbyte ADJC adjacency (v2)\n"
      "       graph_pack --verify FILE.smxg      validate + report an existing pack\n",
      stderr);
  return 2;
}

int cmd_verify(const std::string& path) {
  const graph::sharded::MappedGraph mapped{path};
  const graph::Graph& g = mapped.view();
  std::printf("%s: OK\n", path.c_str());
  std::printf("  nodes %s, edges %s, shards %u%s%s\n",
              util::with_commas(g.num_nodes()).c_str(),
              util::with_commas(static_cast<std::int64_t>(g.num_edges())).c_str(),
              mapped.pack_plan().num_shards(),
              mapped.compressed() ? ", compressed" : "",
              mapped.is_mapped() ? "" : " (heap fallback)");
  std::printf("  fingerprint %016llx\n",
              static_cast<unsigned long long>(mapped.fingerprint()));
  for (const auto& s : mapped.sections()) {
    const char fourcc[5] = {static_cast<char>(s.id & 0xff),
                            static_cast<char>((s.id >> 8) & 0xff),
                            static_cast<char>((s.id >> 16) & 0xff),
                            static_cast<char>((s.id >> 24) & 0xff), '\0'};
    std::printf("  section %s: offset %llu, %s bytes, crc32 %08x\n", fourcc,
                static_cast<unsigned long long>(s.offset),
                util::with_commas(static_cast<std::int64_t>(s.bytes)).c_str(),
                s.crc);
  }
  return 0;
}

/// Streaming text -> CSR conversion: two passes over the file through
/// graph::EdgeListReader, no materialized edge list. Produces the exact
/// graph load_edge_list_file would (same first-appearance id densification,
/// self loops dropped, duplicates deduped, rows sorted) at a fraction of the
/// peak memory — the duplicate-inflated CSR plus the id remap.
graph::Graph load_edges_streaming(const std::string& path) {
  std::unordered_map<std::uint64_t, graph::NodeId> remap;
  std::vector<graph::EdgeIndex> degree;
  const auto densify = [&](std::uint64_t raw) {
    const auto [it, inserted] =
        remap.try_emplace(raw, static_cast<graph::NodeId>(remap.size()));
    if (inserted) degree.push_back(0);
    return it->second;
  };

  // Strict parse: `emit` is invoked once per edge line (self loops
  // included — they still claim dense ids, matching load_edge_list's
  // first-appearance order exactly); both passes share the parse so they
  // cannot disagree on which lines count.
  const auto parse = [&](auto&& emit) {
    std::ifstream in{path};
    if (!in) throw std::runtime_error{"graph_pack: cannot open " + path};
    graph::EdgeListReader reader{in};
    for (auto line = reader.next(); line != graph::EdgeListReader::Line::kEnd;
         line = reader.next()) {
      if (line != graph::EdgeListReader::Line::kEdge) {
        throw std::runtime_error{"graph_pack: malformed line " +
                                 std::to_string(reader.lines_read()) + " in " + path};
      }
      emit(reader.u(), reader.v());
    }
  };

  // Pass 1: id remap + duplicate-inflated degrees (each text edge counts
  // both directions; Graph::from_rows dedups once the rows are sorted).
  parse([&](std::uint64_t u, std::uint64_t v) {
    const graph::NodeId du = densify(u);
    const graph::NodeId dv = densify(v);
    if (du == dv) return;  // self loop: id claimed, edge dropped
    ++degree[du];
    ++degree[dv];
  });
  const auto n = static_cast<graph::NodeId>(remap.size());
  std::vector<graph::EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (graph::NodeId i = 0; i < n; ++i) offsets[i + 1] = offsets[i] + degree[i];
  degree.clear();
  degree.shrink_to_fit();

  // Pass 2: fill rows through per-row cursors. Ids resolve through the
  // now-complete remap, so pass order no longer matters.
  std::vector<graph::NodeId> neighbors(offsets.back());
  std::vector<graph::EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  parse([&](std::uint64_t u, std::uint64_t v) {
    const graph::NodeId du = remap.at(u);
    const graph::NodeId dv = remap.at(v);
    if (du == dv) return;
    neighbors[cursor[du]++] = dv;
    neighbors[cursor[dv]++] = du;
  });
  remap.clear();
  cursor.clear();
  cursor.shrink_to_fit();
  return graph::Graph::from_rows(std::move(offsets), std::move(neighbors));
}

int run(const util::Cli& cli) {
  if (cli.has("verify")) {
    const std::string path = cli.get("verify", "");
    cli.reject_unknown();
    return cmd_verify(path);
  }

  const std::string out = cli.get("out", "");
  const std::string edges = cli.get("edges", "");
  const std::string dataset = cli.get("dataset", "");
  const auto nodes = static_cast<graph::NodeId>(cli.get_i64("nodes", 0));
  const auto seed = static_cast<std::uint64_t>(cli.get_i64("seed", 42));
  const std::string order = cli.get("reorder", "none");
  const auto reorder = graph::parse_reorder_mode(order);
  if (!reorder) {
    throw std::invalid_argument{"--reorder=" + order + ": expected none, rcm or bfs"};
  }
  const graph::ShardPolicy policy = core::sharded_from_cli(cli);
  graph::sharded::WriteOptions write_options;
  write_options.compress = cli.get_flag("compress");
  cli.reject_unknown();
  if (out.empty() || (edges.empty() && dataset.empty())) return usage();

  graph::Graph raw;
  std::string name;
  if (!edges.empty()) {
    name = edges;
    raw = load_edges_streaming(name);
  } else {
    name = dataset;
    const auto spec = gen::find_dataset(name);
    if (!spec) throw std::runtime_error{"unknown dataset '" + name + "'"};
    raw = gen::build_dataset(*spec, nodes, seed);
  }

  // Same preprocessing as the measurement: LCC first (the container
  // always holds a connected graph), then the optional kernel ordering,
  // baked in here because the measurement never relabels.
  graph::Graph lcc = graph::largest_component(raw).graph;
  raw = graph::Graph{};  // drop the raw CSR before the reorder copy
  const graph::Graph packed = graph::reorder_graph(std::move(lcc), *reorder);

  const std::uint32_t shards = graph::resolve_shard_count(
      policy, packed.memory_bytes(), packed.num_nodes(),
      write_options.compress ? 3u : 2u);
  const graph::ShardPlan plan = graph::ShardPlan::balanced(packed.offsets(), shards);
  graph::sharded::write_smxg_file(out, packed, plan, write_options);
  std::fprintf(stderr, "packed %s -> %s: %s nodes, %s edges, %u shard%s%s\n",
               name.c_str(), out.c_str(),
               util::with_commas(packed.num_nodes()).c_str(),
               util::with_commas(static_cast<std::int64_t>(packed.num_edges())).c_str(),
               plan.num_shards(), plan.num_shards() == 1 ? "" : "s",
               write_options.compress ? ", compressed" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli{argc, argv};
  try {
    return run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "graph_pack: %s\n", e.what());
    return 1;
  }
}
