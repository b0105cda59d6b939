#include "graph/edge_list.hpp"

namespace socmix::graph {

void EdgeList::add(NodeId u, NodeId v) {
  edges_.push_back(Edge{u, v});
  const NodeId hi = u > v ? u : v;
  if (hi >= num_nodes_) num_nodes_ = hi + 1;
}

}  // namespace socmix::graph
