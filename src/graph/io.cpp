#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "obs/obs.hpp"
#include "resilience/fault.hpp"

namespace socmix::graph {

namespace {

constexpr char kMagic[4] = {'S', 'M', 'X', '1'};

void write_u64(std::ostream& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(buf, 8);
}

[[nodiscard]] std::uint64_t read_u64(std::istream& in) {
  char buf[8];
  in.read(buf, 8);
  if (!in) throw std::runtime_error{"truncated stream"};
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  return v;
}

[[nodiscard]] constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');  // \t \n \v \f \r
}

[[nodiscard]] const char* skip_space(const char* p, const char* end) noexcept {
  while (p != end && is_space(*p)) ++p;
  return p;
}

/// Parses the field at p as a vertex id and moves p past it. True iff the
/// whole field is an int64 >= 0: util::parse_i64's rule plus a sign check.
bool parse_id(const char*& p, const char* end, std::uint64_t& id) noexcept {
  const char* const first = p;
  while (p != end && !is_space(*p)) ++p;
  std::int64_t parsed = 0;
  const auto [stop, ec] = std::from_chars(first, p, parsed);
  id = static_cast<std::uint64_t>(parsed);
  return ec == std::errc{} && stop == p && parsed >= 0;
}

}  // namespace

EdgeListReader::EdgeListReader(std::istream& in)
    : in_(in), buffer_(std::make_unique_for_overwrite<char[]>(kChunkBytes)) {}

EdgeListReader::Line EdgeListReader::next() {
  while (next_line()) {
    const char* const end = line_.data() + line_.size();
    const char* p = skip_space(line_.data(), end);
    if (p == end || *p == '#' || *p == '%') continue;
    const bool u_ok = parse_id(p, end, u_);
    p = skip_space(p, end);
    if (p == end) return Line::kTooFewFields;
    return parse_id(p, end, v_) && u_ok ? Line::kEdge : Line::kBadId;
  }
  return Line::kEnd;
}

bool EdgeListReader::next_line() {
  std::size_t scanned = begin_;  // [begin_, scanned) holds no '\n'
  for (;;) {
    char* const base = buffer_.get();
    const auto* newline =
        static_cast<const char*>(std::memchr(base + scanned, '\n', end_ - scanned));
    if (newline != nullptr || (exhausted_ && begin_ < end_)) {
      const auto stop = newline != nullptr ? static_cast<std::size_t>(newline - base) : end_;
      line_ = {base + begin_, stop - begin_};
      begin_ = std::min(stop + 1, end_);
      ++lines_read_;
      return true;
    }
    if (exhausted_) return false;
    // Carry the partial line to the front and read the next chunk behind
    // it, doubling the buffer when the partial line already fills it.
    const std::size_t carried = end_ - begin_;
    if (carried == capacity_) {
      auto grown = std::make_unique_for_overwrite<char[]>(2 * capacity_);
      std::memcpy(grown.get(), base, carried);
      buffer_ = std::move(grown);
      capacity_ *= 2;
    } else {
      std::memmove(base, base + begin_, carried);
    }
    begin_ = 0;
    end_ = carried;
    scanned = carried;
    in_.read(buffer_.get() + end_, static_cast<std::streamsize>(capacity_ - end_));
    end_ += static_cast<std::size_t>(in_.gcount());
    if (!in_) exhausted_ = true;
  }
}

LoadResult load_edge_list(std::istream& in, const EdgeListOptions& options) {
  LoadResult result;
  EdgeList edges;
  std::unordered_map<std::uint64_t, NodeId> remap;
  const auto densify = [&](std::uint64_t raw) -> NodeId {
    const auto [it, inserted] = remap.try_emplace(raw, static_cast<NodeId>(remap.size()));
    return it->second;
  };

  const auto reject = [&](const std::string& what) -> bool {
    // Strict: fail on the first bad line. Lenient: count and skip, up to
    // the tolerance — a file that is mostly garbage is the wrong format.
    if (!options.lenient) {
      SOCMIX_COUNTER_ADD("graph.io.load_failures", 1);
      throw std::runtime_error{what};
    }
    ++result.malformed_lines;
    if (result.malformed_lines > options.max_malformed) {
      SOCMIX_COUNTER_ADD("graph.io.load_failures", 1);
      throw std::runtime_error{"load_edge_list: more than " +
                               std::to_string(options.max_malformed) +
                               " malformed lines; last: " + what};
    }
    return false;
  };

  EdgeListReader reader{in};
  for (auto line = reader.next(); line != EdgeListReader::Line::kEnd; line = reader.next()) {
    if (line == EdgeListReader::Line::kTooFewFields) {
      reject("load_edge_list: malformed line " + std::to_string(reader.lines_read()) +
             ": '" + std::string{reader.line()} + "'");
      continue;
    }
    if (line == EdgeListReader::Line::kBadId) {
      reject("load_edge_list: non-integer vertex id at line " +
             std::to_string(reader.lines_read()));
      continue;
    }
    ++result.edges_parsed;
    // Sequence the two densify calls: function-argument evaluation order
    // is unspecified, so `add(densify(u), densify(v))` would make the
    // "first-appearance" labeling a compiler artifact (gcc evaluated the
    // arguments right to left). Every other producer of this labeling —
    // graph_pack's streaming loader in particular — assigns u before v,
    // and the out-of-core TVD parity checks compare the two bytewise.
    const NodeId du = densify(reader.u());
    const NodeId dv = densify(reader.v());
    if (du == dv) {
      ++result.self_loops_dropped;  // the id stays claimed: an isolated vertex
      continue;
    }
    edges.add(du, dv);
  }
  result.lines_read = reader.lines_read();
  if (result.malformed_lines > 0) {
    SOCMIX_COUNTER_ADD("graph.io.malformed_lines", result.malformed_lines);
  }
  if (options.lenient && result.edges_parsed == 0 && result.malformed_lines > 0) {
    SOCMIX_COUNTER_ADD("graph.io.load_failures", 1);
    throw std::runtime_error{"load_edge_list: no parsable edges (" +
                             std::to_string(result.malformed_lines) + " malformed lines)"};
  }

  const std::size_t kept_edges = edges.size();
  edges.ensure_nodes(static_cast<NodeId>(remap.size()));
  result.graph = Graph::from_edges(std::move(edges));
  result.duplicates_dropped = kept_edges - static_cast<std::size_t>(result.graph.num_edges());
  return result;
}

LoadResult load_edge_list_file(const std::string& path, const EdgeListOptions& options) {
  resilience::fault_point("graph.load");
  std::ifstream in{path};
  if (!in) {
    SOCMIX_COUNTER_ADD("graph.io.load_failures", 1);
    throw std::runtime_error{"load_edge_list_file: cannot open " + path};
  }
  return load_edge_list(in, options);
}

void save_edge_list(const Graph& g, std::ostream& out) {
  const NodeId n = g.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
}

void save_binary(const Graph& g, std::ostream& out) {
  out.write(kMagic, 4);
  const auto offsets = g.offsets();
  const auto neighbors = g.raw_neighbors();
  write_u64(out, offsets.size());
  write_u64(out, neighbors.size());
  for (const EdgeIndex off : offsets) write_u64(out, off);
  // Neighbors as u32: halves file size relative to u64 ids.
  for (const NodeId v : neighbors) {
    char buf[4];
    for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    out.write(buf, 4);
  }
}

Graph load_binary(std::istream& in) {
  const auto rejected = [](const std::string& what) -> std::runtime_error {
    SOCMIX_COUNTER_ADD("graph.io.binary_rejected", 1);
    return std::runtime_error{"load_binary: " + what};
  };

  char magic[4];
  in.read(magic, 4);
  if (!in || std::string_view{magic, 4} != std::string_view{kMagic, 4}) {
    throw rejected("bad magic (not a socmix binary graph)");
  }
  std::uint64_t num_offsets = 0;
  std::uint64_t num_neighbors = 0;
  std::vector<EdgeIndex> offsets;
  try {
    num_offsets = read_u64(in);
    num_neighbors = read_u64(in);
    // Plausibility before allocation: a garbage header must not turn into
    // a terabyte-sized vector (bad_alloc at best, OOM-kill at worst).
    constexpr std::uint64_t kMaxPlausible = std::uint64_t{1} << 36;  // 64G entries
    if (num_offsets == 0 || num_offsets > kMaxPlausible || num_neighbors > kMaxPlausible) {
      throw std::runtime_error{"implausible header sizes (offsets=" +
                               std::to_string(num_offsets) +
                               ", neighbors=" + std::to_string(num_neighbors) + ")"};
    }
    offsets.resize(num_offsets);
    for (auto& off : offsets) off = read_u64(in);
  } catch (const std::runtime_error& e) {
    throw rejected(e.what());
  }
  std::vector<NodeId> neighbors(num_neighbors);
  for (auto& v : neighbors) {
    char buf[4];
    in.read(buf, 4);
    if (!in) throw rejected("truncated stream (neighbors)");
    NodeId x = 0;
    for (int i = 0; i < 4; ++i)
      x |= static_cast<NodeId>(static_cast<unsigned char>(buf[i])) << (8 * i);
    v = x;
  }
  // Structural validation: the CSR invariants every kernel indexes by.
  if (offsets.front() != 0 || offsets.back() != num_neighbors) {
    throw rejected("corrupt CSR (offset endpoints disagree with neighbor count)");
  }
  const NodeId n = static_cast<NodeId>(num_offsets - 1);
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) throw rejected("corrupt CSR (non-monotone offsets)");
  }
  for (const NodeId v : neighbors) {
    if (v >= n) throw rejected("corrupt CSR (neighbor id out of range)");
  }
  return Graph::from_csr(std::move(offsets), std::move(neighbors));
}

void save_binary_file(const Graph& g, const std::string& path) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error{"save_binary_file: cannot open " + path};
  save_binary(g, out);
}

Graph load_binary_file(const std::string& path) {
  resilience::fault_point("graph.load");
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    SOCMIX_COUNTER_ADD("graph.io.load_failures", 1);
    throw std::runtime_error{"load_binary_file: cannot open " + path};
  }
  return load_binary(in);
}

}  // namespace socmix::graph
