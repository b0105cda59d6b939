// Adaptive frontier tracking for sparse-support walk evolution.
//
// A point mass evolved for t steps is supported only on the source's
// t-hop ball, yet the dense evolution kernels sweep all n CSR rows from
// step 0. FrontierSet maintains a monotone overapproximation of that
// support — the neighborhood closure S_{t+1} = S_t ∪ N(S_t) — and
// exposes it as sorted half-open row ranges, so the evolution engines can
// sweep only the rows that can become nonzero and skip the rest (whose
// dense result is exactly +0.0; see DESIGN.md "Frontier phase" for the
// bit-parity argument). On a pack relabeled by one of the locality
// orderings of reorder.hpp (graph_pack --reorder bfs|rcm) a t-hop ball
// occupies near-contiguous label intervals, so the range list stays short
// and the sparse sweep streams almost like the dense one — the two layers
// compose.
//
// FrontierPolicy is the user-facing knob (--frontier auto|off|<frac>):
// while the closure covers fewer than `row_fraction()` of the rows the
// engines run the frontier kernels; at or above it they switch
// permanently (per seeding) to the dense path, so long dense-dominated
// walks pay only the few early sparse steps they actually win on.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace socmix::graph {

/// Half-open interval of consecutive CSR rows [begin, end).
struct RowRange {
  NodeId begin = 0;
  NodeId end = 0;
};

/// When (and whether) the evolution engines run the frontier phase.
struct FrontierPolicy {
  enum class Mode : std::uint8_t {
    kAuto = 0,       ///< frontier on, switch at kAutoRowFraction coverage
    kOff = 1,        ///< always dense (the pre-frontier behavior)
    kThreshold = 2,  ///< frontier on, switch at `threshold` coverage
  };

  /// Row-coverage fraction at which `auto` abandons the sparse phase. At
  /// half coverage the skipped-row saving no longer beats the sparse
  /// bookkeeping on any measured workload (bench_results/micro_frontier.csv).
  static constexpr double kAutoRowFraction = 0.5;

  Mode mode = Mode::kAuto;
  /// Switch threshold in (0, 1]; meaningful only for kThreshold.
  double threshold = kAutoRowFraction;

  [[nodiscard]] bool enabled() const noexcept { return mode != Mode::kOff; }
  /// The coverage fraction the engine switches to dense at (kAutoRowFraction
  /// under kAuto; unspecified for kOff).
  [[nodiscard]] double row_fraction() const noexcept {
    return mode == Mode::kThreshold ? threshold : kAutoRowFraction;
  }
};

/// Parses a --frontier flag value: "auto", "off", or a row fraction in
/// (0, 1] (e.g. "0.25"). Empty parses as auto (the default); anything
/// else is nullopt.
[[nodiscard]] std::optional<FrontierPolicy> parse_frontier_policy(
    std::string_view name) noexcept;

/// Canonical flag spelling ("auto", "off", or the threshold digits).
[[nodiscard]] std::string frontier_policy_name(const FrontierPolicy& policy);

/// Word the resilience layer folds into a checkpoint's context so that a
/// snapshot written under a different frontier mode classifies stale.
/// Frontier results are bit-identical to dense by contract, so this is
/// belt-and-braces versioning, not a correctness gate: 0 for off,
/// otherwise the bits of the effective switch fraction (making `auto` and
/// an explicit "0.5" deliberately equivalent).
[[nodiscard]] std::uint64_t frontier_context_word(const FrontierPolicy& policy) noexcept;

/// Monotone closure of a walk's support, stored as a bitset plus exact
/// sorted row ranges (rebuilt by word-scan after every expansion).
///
/// The ranges are exact — no gap coalescing — so a kernel iterating them
/// touches precisely the rows in the set; "near-contiguous" comes from
/// the graph ordering, not from approximation. Expansion is incremental:
/// S_{t+1} = S_t ∪ N(S_t) only needs N(F_t) where F_t is the rows first
/// added at step t, because N(S_{t-1}) ⊆ S_t already.
class FrontierSet {
 public:
  /// An empty set over zero rows (assign a sized one before use).
  FrontierSet() = default;
  /// An empty set over rows [0, n).
  explicit FrontierSet(NodeId n);

  /// Resets to exactly `seeds` (duplicates allowed).
  void reset(std::span<const NodeId> seeds);

  /// S <- S ∪ N(S) over `g` (must have num_nodes() == dim()).
  void expand(const Graph& g);

  /// Sorted disjoint half-open ranges covering exactly the member rows.
  [[nodiscard]] std::span<const RowRange> ranges() const noexcept { return ranges_; }

  [[nodiscard]] bool contains(NodeId v) const noexcept {
    return (bits_[v >> 6] >> (v & 63)) & 1u;
  }
  /// Number of member rows.
  [[nodiscard]] NodeId covered_rows() const noexcept { return covered_; }
  /// Half-edges inside the member rows of `g` (the sparse sweep's gather
  /// work); O(ranges) via the CSR offsets.
  [[nodiscard]] EdgeIndex covered_half_edges(const Graph& g) const noexcept;
  [[nodiscard]] NodeId dim() const noexcept { return n_; }

 private:
  void rebuild_ranges();

  std::vector<std::uint64_t> bits_;
  std::vector<RowRange> ranges_;
  /// Rows added by the latest reset/expand — the only rows the next
  /// expand needs to traverse.
  std::vector<NodeId> fresh_;
  std::vector<NodeId> fresh_scratch_;
  NodeId n_ = 0;
  NodeId covered_ = 0;
};

}  // namespace socmix::graph
