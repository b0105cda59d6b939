// Graph serialization: SNAP-style edge-list text and a compact binary CSR.
//
// The paper's datasets circulate as whitespace-separated "u v" edge lists
// (SNAP / Mislove releases); load_edge_list() accepts exactly that format,
// including '#' and '%' comment lines and arbitrary (sparse) vertex ids,
// which are densified to [0, n).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "graph/graph.hpp"

namespace socmix::graph {

/// The one tokenizer of "u v" edge-list text: load_edge_list,
/// digraph::load_directed_edge_list and graph_pack's streaming packer all
/// pull their lines from it. It reads the stream in kChunkBytes chunks and
/// carries a partial line across chunk boundaries (growing the buffer for
/// a longer line); no per-line allocation.
///
/// A line ends at '\n' (the last may lack it); whitespace is " \t\r\n\v\f".
/// Blank lines and lines whose first non-blank byte is '#' or '%' are
/// skipped. Any other line needs two or more fields, the first two decimal
/// int64 values >= 0 ("-0" is 0, "+1" is not); later fields are ignored.
class EdgeListReader {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

  enum class Line : std::uint8_t { kEdge, kTooFewFields, kBadId, kEnd };

  explicit EdgeListReader(std::istream& in);

  /// Skips blank and comment lines and classifies the next line; kEnd at
  /// the end of the input.
  [[nodiscard]] Line next();

  /// The ids of the last kEdge line.
  [[nodiscard]] std::uint64_t u() const noexcept { return u_; }
  [[nodiscard]] std::uint64_t v() const noexcept { return v_; }

  /// Lines consumed, blank and comment lines included: the 1-based number
  /// of the line next() stopped at, and the line count after kEnd.
  [[nodiscard]] std::size_t lines_read() const noexcept { return lines_read_; }

  /// The line next() stopped at, without its '\n'; valid until next().
  [[nodiscard]] std::string_view line() const noexcept { return line_; }

 private:
  /// Points line_ at the next line; false at the end of the input.
  bool next_line();

  std::istream& in_;
  std::unique_ptr<char[]> buffer_;  // uninitialized: a small input touches one page
  std::size_t capacity_ = kChunkBytes;
  std::size_t begin_ = 0;  // first unconsumed byte in buffer_
  std::size_t end_ = 0;    // one past the last byte read into buffer_
  bool exhausted_ = false;
  std::size_t lines_read_ = 0;
  std::string_view line_;
  std::uint64_t u_ = 0;
  std::uint64_t v_ = 0;
};

/// Result of parsing a text edge list: the clean graph plus parse stats.
struct LoadResult {
  Graph graph;
  std::size_t lines_read = 0;
  std::size_t edges_parsed = 0;
  std::size_t self_loops_dropped = 0;
  std::size_t duplicates_dropped = 0;
  /// Malformed lines skipped (lenient mode only; strict mode throws on
  /// the first one). Mirrored into the graph.io.malformed_lines counter.
  std::size_t malformed_lines = 0;
};

/// Parse-tolerance knobs for text edge lists.
struct EdgeListOptions {
  /// Lenient mode skips (and counts) malformed lines instead of throwing —
  /// graceful degradation for crawl dumps with stray garbage. A file that
  /// yields zero edges still throws: an all-garbage input is an error, not
  /// an empty graph.
  bool lenient = false;
  /// Lenient-mode cap: abort (throw) when more than this many lines are
  /// malformed — past that the file is the wrong format, not a dirty one.
  std::size_t max_malformed = 1000;
};

/// Parses a whitespace-separated edge list ("u v" per line, '#'/'%'
/// comments). Vertex ids may be arbitrary non-negative integers; they are
/// remapped to a dense range in first-appearance order. Directed inputs are
/// symmetrized (paper §4 preprocessing). Throws std::runtime_error on
/// malformed lines (strict mode) or when lenient tolerances are exceeded.
[[nodiscard]] LoadResult load_edge_list(std::istream& in,
                                        const EdgeListOptions& options = {});

/// Convenience wrapper opening the given path. Contains the `graph.load`
/// fault-injection site.
[[nodiscard]] LoadResult load_edge_list_file(const std::string& path,
                                             const EdgeListOptions& options = {});

/// Writes one "u v" line per undirected edge (u < v), suitable for
/// round-tripping through load_edge_list().
void save_edge_list(const Graph& g, std::ostream& out);

/// Compact binary CSR format ("SMX1" magic, little-endian u64 sizes).
/// load_binary validates the header for plausibility (bounded sizes, so a
/// garbage file cannot demand a terabyte allocation) and the decoded CSR
/// for structural sanity (monotone offsets, neighbor ids in range) before
/// handing out a Graph; every rejection throws std::runtime_error with the
/// failure named and bumps the graph.io.binary_rejected counter.
void save_binary(const Graph& g, std::ostream& out);
[[nodiscard]] Graph load_binary(std::istream& in);

void save_binary_file(const Graph& g, const std::string& path);
[[nodiscard]] Graph load_binary_file(const std::string& path);

}  // namespace socmix::graph
