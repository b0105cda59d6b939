#include "digraph/io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

#include "graph/io.hpp"

namespace socmix::digraph {

DirectedLoadResult load_directed_edge_list(std::istream& in) {
  DirectedLoadResult result;
  std::vector<Arc> arcs;
  std::unordered_map<std::uint64_t, NodeId> remap;
  const auto densify = [&](std::uint64_t raw) -> NodeId {
    const auto [it, inserted] = remap.try_emplace(raw, static_cast<NodeId>(remap.size()));
    return it->second;
  };

  graph::EdgeListReader reader{in};
  for (auto line = reader.next(); line != graph::EdgeListReader::Line::kEnd;
       line = reader.next()) {
    if (line == graph::EdgeListReader::Line::kTooFewFields) {
      throw std::runtime_error{"load_directed_edge_list: malformed line " +
                               std::to_string(reader.lines_read())};
    }
    if (line == graph::EdgeListReader::Line::kBadId) {
      throw std::runtime_error{"load_directed_edge_list: bad vertex id at line " +
                               std::to_string(reader.lines_read())};
    }
    ++result.arcs_parsed;
    const NodeId from = densify(reader.u());
    const NodeId to = densify(reader.v());
    if (from == to) {
      ++result.self_loops_dropped;
      continue;
    }
    arcs.push_back(Arc{from, to});
  }
  result.lines_read = reader.lines_read();

  const std::size_t before = arcs.size();
  result.graph = DiGraph::from_arcs(std::move(arcs), static_cast<NodeId>(remap.size()));
  result.duplicates_dropped = before - static_cast<std::size_t>(result.graph.num_arcs());
  return result;
}

DirectedLoadResult load_directed_edge_list_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"load_directed_edge_list_file: cannot open " + path};
  return load_directed_edge_list(in);
}

void save_directed_edge_list(const DiGraph& g, std::ostream& out) {
  const NodeId n = g.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : g.successors(u)) out << u << ' ' << v << '\n';
  }
}

DiGraph randomly_orient(const graph::Graph& g, double reciprocity, util::Rng& rng) {
  if (reciprocity < 0.0 || reciprocity > 1.0) {
    throw std::invalid_argument{"randomly_orient: reciprocity must be in [0, 1]"};
  }
  std::vector<Arc> arcs;
  arcs.reserve(static_cast<std::size_t>(g.num_edges()) * 2);
  const NodeId n = g.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u >= v) continue;
      if (rng.chance(reciprocity)) {
        arcs.push_back(Arc{u, v});
        arcs.push_back(Arc{v, u});
      } else if (rng.chance(0.5)) {
        arcs.push_back(Arc{u, v});
      } else {
        arcs.push_back(Arc{v, u});
      }
    }
  }
  return DiGraph::from_arcs(std::move(arcs), n);
}

}  // namespace socmix::digraph
