// Differential test of the chunked edge-list reader (graph::EdgeListReader)
// against the line loop it replaced: std::getline + util::trim +
// util::split_ws + util::parse_i64, kept here as a test-only oracle.
//
// Seeded, deterministic mutations of messy edge lists (bit flips,
// truncations, inserted \r \v \f \t # % + - and NUL bytes, duplicated
// sections, overflowing ids, missing final newlines) plus inputs larger
// than one reader chunk are fed to the strict, lenient and directed
// loaders and to the oracle. Both sides must agree on accept/reject, the
// exception message, every LoadResult count and the resulting CSR.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "digraph/io.hpp"
#include "graph/io.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace socmix::graph {
namespace {

enum class Mode { kStrict, kLenient, kDirected };

/// What a loader made of one input, in comparable form.
struct Outcome {
  std::optional<std::string> error;  // set when the loader threw
  std::size_t lines_read = 0;
  std::size_t edges_parsed = 0;
  std::size_t self_loops_dropped = 0;
  std::size_t duplicates_dropped = 0;
  std::size_t malformed_lines = 0;
  std::vector<std::vector<NodeId>> rows;  // adjacency (successors if directed)

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

// ---------------------------------------------------------------- oracle --

/// The pre-reader loop of load_edge_list / load_directed_edge_list, line
/// for line, with the graph built by a global sort instead of a CSR builder.
Outcome oracle(const std::string& text, Mode mode, std::size_t max_malformed) {
  Outcome out;
  std::istringstream in{text};
  std::unordered_map<std::uint64_t, NodeId> remap;
  const auto densify = [&](std::uint64_t raw) -> NodeId {
    const auto [it, inserted] = remap.try_emplace(raw, static_cast<NodeId>(remap.size()));
    return it->second;
  };
  const bool directed = mode == Mode::kDirected;
  const auto reject = [&](const std::string& what) -> bool {
    if (mode != Mode::kLenient) {
      out.error = what;
      return true;
    }
    ++out.malformed_lines;
    if (out.malformed_lines > max_malformed) {
      out.error = "load_edge_list: more than " + std::to_string(max_malformed) +
                  " malformed lines; last: " + what;
      return true;
    }
    return false;
  };

  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::string line;
  while (std::getline(in, line)) {
    ++out.lines_read;
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#' || trimmed.front() == '%') continue;
    const auto fields = util::split_ws(trimmed);
    if (fields.size() < 2) {
      const std::string what =
          directed ? "load_directed_edge_list: malformed line " + std::to_string(out.lines_read)
                   : "load_edge_list: malformed line " + std::to_string(out.lines_read) +
                         ": '" + line + "'";
      if (reject(what)) return out;
      continue;
    }
    const auto u = util::parse_i64(fields[0]);
    const auto v = util::parse_i64(fields[1]);
    if (!u || !v || *u < 0 || *v < 0) {
      const std::string what =
          directed ? "load_directed_edge_list: bad vertex id at line " +
                         std::to_string(out.lines_read)
                   : "load_edge_list: non-integer vertex id at line " +
                         std::to_string(out.lines_read);
      if (reject(what)) return out;
      continue;
    }
    ++out.edges_parsed;
    const NodeId du = densify(static_cast<std::uint64_t>(*u));
    const NodeId dv = densify(static_cast<std::uint64_t>(*v));
    if (du == dv) {
      ++out.self_loops_dropped;
      continue;
    }
    pairs.emplace_back(du, dv);
  }
  if (mode == Mode::kLenient && out.edges_parsed == 0 && out.malformed_lines > 0) {
    out.error = "load_edge_list: no parsable edges (" + std::to_string(out.malformed_lines) +
                " malformed lines)";
    return out;
  }

  std::vector<std::pair<NodeId, NodeId>> unique = pairs;
  if (!directed) {
    for (const auto& [a, b] : pairs) unique.emplace_back(b, a);
  }
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  out.rows.resize(remap.size());
  for (const auto& [a, b] : unique) out.rows[a].push_back(b);
  const std::size_t kept = directed ? unique.size() : unique.size() / 2;
  out.duplicates_dropped = pairs.size() - kept;
  return out;
}

// ----------------------------------------------------------- the loaders --

Outcome failed(std::string message) {
  Outcome out;
  out.error = std::move(message);
  return out;
}

Outcome run_loader(const std::string& text, Mode mode, std::size_t max_malformed) {
  Outcome out;
  std::istringstream in{text};
  try {
    if (mode == Mode::kDirected) {
      const auto result = digraph::load_directed_edge_list(in);
      out.lines_read = result.lines_read;
      out.edges_parsed = result.arcs_parsed;
      out.self_loops_dropped = result.self_loops_dropped;
      out.duplicates_dropped = result.duplicates_dropped;
      out.rows.resize(result.graph.num_nodes());
      for (NodeId v = 0; v < result.graph.num_nodes(); ++v) {
        const auto adj = result.graph.successors(v);
        out.rows[v].assign(adj.begin(), adj.end());
      }
    } else {
      EdgeListOptions options;
      options.lenient = mode == Mode::kLenient;
      options.max_malformed = max_malformed;
      const LoadResult result = load_edge_list(in, options);
      out.lines_read = result.lines_read;
      out.edges_parsed = result.edges_parsed;
      out.self_loops_dropped = result.self_loops_dropped;
      out.duplicates_dropped = result.duplicates_dropped;
      out.malformed_lines = result.malformed_lines;
      out.rows.resize(result.graph.num_nodes());
      for (NodeId v = 0; v < result.graph.num_nodes(); ++v) {
        const auto adj = result.graph.neighbors(v);
        out.rows[v].assign(adj.begin(), adj.end());
      }
    }
  } catch (const std::runtime_error& e) {
    // A thrown load reports only its message: the oracle stops counting
    // at the same line, but the loader's partial counts are not visible.
    return failed(e.what());
  }
  return out;
}

/// The oracle's view of a failed load: its message as what() reports it (up
/// to the first NUL byte of a quoted line) and nothing else.
Outcome comparable(const Outcome& o) {
  return o.error ? failed(std::runtime_error{*o.error}.what()) : o;
}

// ------------------------------------------------------------ the inputs --

/// One random line of a messy crawl dump, '\n' or "\r\n" terminated.
std::string messy_line(util::Rng& rng) {
  static const char* const kSpace[] = {" ", "\t", "  ", " \t ", "\v", "\f", "\r "};
  static const char* const kOddId[] = {
      "+5", "-0", "-00", "-3", "007", "9223372036854775807", "9223372036854775808",
      "18446744073709551616", "99999999999999999999", "0000000000000000000042",
      "123456789012345678", "1234567890123456789", "x", "1e3", "0x10", "--1", "-"};
  const auto space = [&] { return std::string{kSpace[rng.below(std::size(kSpace))]}; };
  const auto id = [&]() -> std::string {
    if (rng.chance(0.08)) return kOddId[rng.below(std::size(kOddId))];
    // Sparse but colliding ids: duplicates, reversed pairs and self loops.
    return std::to_string(rng.below(12) * 1000003 + rng.below(3));
  };
  std::string line;
  if (rng.chance(0.2)) line += space();
  switch (rng.below(10)) {
    case 0:
      line += rng.chance(0.5) ? "# comment 1 2" : "% 3 4";
      break;
    case 1:
      if (rng.chance(0.5)) line += space();  // blank or whitespace-only
      break;
    case 2:
      line += id();  // one field
      break;
    case 3:
      line += "alpha beta";
      break;
    default:
      line += id() + space() + id();
      if (rng.chance(0.2)) line += space() + "0.75" + space() + "ts";
      break;
  }
  if (rng.chance(0.15)) line += space();
  line += rng.chance(0.2) ? "\r\n" : "\n";
  return line;
}

std::string messy_text(util::Rng& rng, std::size_t lines) {
  std::string text;
  for (std::size_t i = 0; i < lines; ++i) text += messy_line(rng);
  if (rng.chance(0.3) && !text.empty()) text.pop_back();  // no final newline
  return text;
}

void mutate(std::string& text, util::Rng& rng) {
  static constexpr char kInsert[] = {'\r', '\v', '\f', '\t', '#', '%', '+',
                                     '-',  '\n', ' ',  '\0', '9', 'z'};
  const std::size_t rounds = 1 + rng.below(4);
  for (std::size_t r = 0; r < rounds && !text.empty(); ++r) {
    const std::size_t at = rng.below(text.size());
    switch (rng.below(5)) {
      case 0:  // bit flip
        text[at] = static_cast<char>(text[at] ^ (1 << rng.below(8)));
        break;
      case 1:  // truncation
        text.resize(at);
        break;
      case 2:  // inserted byte
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    kInsert[rng.below(sizeof kInsert)]);
        break;
      case 3: {  // duplicated section
        const std::size_t len = rng.below(std::min<std::size_t>(text.size() - at, 64)) + 1;
        text.insert(at, text.substr(at, len));
        break;
      }
      default:  // overwritten byte
        text[at] = kInsert[rng.below(sizeof kInsert)];
        break;
    }
  }
}

void expect_agree(const std::string& text, const std::string& label) {
  for (const Mode mode : {Mode::kStrict, Mode::kLenient, Mode::kDirected}) {
    for (const std::size_t cap : {std::size_t{2}, std::size_t{1000}}) {
      if (mode != Mode::kLenient && cap != 1000) continue;  // cap is lenient-only
      const Outcome want = comparable(oracle(text, mode, cap));
      const Outcome got = run_loader(text, mode, cap);
      ASSERT_EQ(got.error, want.error) << label << " mode " << static_cast<int>(mode);
      ASSERT_TRUE(got == want) << label << " mode " << static_cast<int>(mode)
                               << ": lines " << got.lines_read << "/" << want.lines_read
                               << " edges " << got.edges_parsed << "/" << want.edges_parsed
                               << " loops " << got.self_loops_dropped << "/"
                               << want.self_loops_dropped << " dups "
                               << got.duplicates_dropped << "/" << want.duplicates_dropped
                               << " malformed " << got.malformed_lines << "/"
                               << want.malformed_lines;
    }
  }
}

TEST(EdgeListReaderDifferential, MutatedSmallInputsMatchTheLineLoop) {
  util::Rng rng{20100};
  constexpr int kCases = 10000;
  for (int c = 0; c < kCases; ++c) {
    std::string text = messy_text(rng, 1 + rng.below(24));
    if (c % 4 != 0) mutate(text, rng);  // a quarter stay unmutated
    expect_agree(text, "case " + std::to_string(c));
    if (HasFatalFailure()) return;
  }
}

TEST(EdgeListReaderDifferential, InputsLargerThanAChunkMatchTheLineLoop) {
  constexpr std::size_t kChunk = EdgeListReader::kChunkBytes;
  util::Rng rng{20101};
  // A clean multi-chunk list (strict accepts it) with comments and CRLF.
  std::string clean;
  while (clean.size() < 2 * kChunk + kChunk / 2) {
    clean += std::to_string(rng.below(50000)) + (rng.chance(0.1) ? "\t" : " ") +
             std::to_string(rng.below(50000)) + (rng.chance(0.1) ? "\r\n" : "\n");
    if (rng.chance(0.01)) clean += "  # comment\n";
  }
  expect_agree(clean, "clean multi-chunk");
  // Garbage lines whose ends fall on, before and after a chunk boundary.
  for (const std::size_t shift : {0, 1, 2, 3, 7}) {
    std::string text = clean.substr(0, kChunk - 9 - shift);
    text += "\n1 x 2 3\n5\n\n";
    text += clean.substr(0, kChunk / 2);
    expect_agree(text, "boundary shift " + std::to_string(shift));
  }
  // Single lines longer than a chunk: extra columns (an edge), an
  // overflowing id, one long field (malformed, quoted in full) and a
  // missing final newline at the end of the long line.
  const std::string tail(kChunk + kChunk / 3, 'x');
  const std::string digits(2 * kChunk + 5, '7');
  expect_agree("1 2 " + tail + "\n3 4\n", "long extra column");
  expect_agree("1 2\n" + digits + " 4\n5 6\n", "long overflowing id");
  expect_agree("1 2\n" + tail + "\n5 6", "long single field");
  expect_agree("1 2\n3 " + digits, "long final line without newline");
  for (int c = 0; c < 4; ++c) {
    std::string text = clean;
    for (int flip = 0; flip < 6; ++flip) {
      const std::size_t at = kChunk - 16 + rng.below(32) + (flip % 2) * kChunk;
      text[at] = static_cast<char>(text[at] ^ (1 << rng.below(8)));
    }
    expect_agree(text, "flipped near boundary " + std::to_string(c));
  }
}

}  // namespace
}  // namespace socmix::graph
