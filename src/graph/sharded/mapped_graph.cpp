#include "graph/sharded/mapped_graph.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "graph/sharded/format.hpp"
#include "obs/obs.hpp"
#include "resilience/fault.hpp"
#include "util/checksum.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define SOCMIX_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define SOCMIX_HAVE_MMAP 0
#endif

namespace socmix::graph::sharded {

namespace {

[[noreturn]] void rejected(const std::string& what) {
  SOCMIX_COUNTER_ADD("graph.io.smxg_rejected", 1);
  SOCMIX_COUNTER_ADD("graph.io.load_failures", 1);
  throw std::runtime_error{"smxg: " + what};
}

[[nodiscard]] std::uint32_t load_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

[[nodiscard]] std::uint64_t load_u64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

PageFaults process_page_faults() noexcept {
#if SOCMIX_HAVE_MMAP
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return {static_cast<std::uint64_t>(usage.ru_minflt),
            static_cast<std::uint64_t>(usage.ru_majflt)};
  }
#endif
  return {};
}

MappedGraph::MappedGraph(const std::string& path) : MappedGraph(path, Options{}) {}

MappedGraph::MappedGraph(const std::string& path, Options options) {
  resilience::fault_point("graph.load");
  try {
    load(path, options);
  } catch (...) {
    unmap();
    throw;
  }
}

MappedGraph::~MappedGraph() { unmap(); }

void MappedGraph::unmap() noexcept {
#if SOCMIX_HAVE_MMAP
  if (base_ != nullptr) ::munmap(base_, mapped_bytes_);
#endif
  base_ = nullptr;
  mapped_bytes_ = 0;
  heap_.clear();
  view_ = Graph{};
  adjc_ = adjc::AdjcView{};
  sections_.clear();
}

void MappedGraph::steal(MappedGraph& other) noexcept {
  base_ = other.base_;
  mapped_bytes_ = other.mapped_bytes_;
  heap_ = std::move(other.heap_);
  view_ = std::move(other.view_);
  pack_plan_ = std::move(other.pack_plan_);
  adjc_ = other.adjc_;
  sections_ = std::move(other.sections_);
  fingerprint_ = other.fingerprint_;
  offsets_file_offset_ = other.offsets_file_offset_;
  adjacency_file_offset_ = other.adjacency_file_offset_;
  other.base_ = nullptr;
  other.mapped_bytes_ = 0;
  other.view_ = Graph{};
  other.adjc_ = adjc::AdjcView{};
  other.sections_.clear();
}

void MappedGraph::load(const std::string& path, Options options) {
  std::error_code ec;
  const auto disk_size = std::filesystem::file_size(path, ec);
  if (ec) rejected("cannot stat " + path);
  if (disk_size < kHeaderBytes) rejected("truncated header in " + path);

  // Validate the header from a plain read before trusting any size for
  // the mapping itself.
  std::byte head[kHeaderBytes];
  {
    std::ifstream in{path, std::ios::binary};
    if (!in) rejected("cannot open " + path);
    in.read(reinterpret_cast<char*>(head), kHeaderBytes);
    if (!in) rejected("truncated header in " + path);
  }
  if (load_u32(head + 0) != kMagic) rejected("bad magic (not a .smxg container)");
  if (load_u32(head + 4) != kEndianTag) {
    rejected("wrong-endian container (endian tag mismatch)");
  }
  if (util::crc32(std::span<const std::byte>{head, 60}) != load_u32(head + 60)) {
    rejected("header CRC mismatch");
  }
  const std::uint32_t version = load_u32(head + 8);
  if (version != kVersion && version != kVersionCompressed) {
    rejected("unsupported version " + std::to_string(version) + " (expected " +
             std::to_string(kVersion) + " or " + std::to_string(kVersionCompressed) +
             ")");
  }
  const bool compressed = version == kVersionCompressed;
  const std::uint32_t num_sections = load_u32(head + 12);
  const std::uint64_t num_nodes = load_u64(head + 16);
  const std::uint64_t num_half_edges = load_u64(head + 24);
  const std::uint64_t file_bytes = load_u64(head + 40);
  fingerprint_ = load_u64(head + 48);

  // Plausibility before any allocation or mapping (the io.cpp discipline:
  // a garbage header must not turn into a terabyte mapping).
  constexpr std::uint64_t kMaxPlausible = std::uint64_t{1} << 36;
  if (num_nodes == 0 || num_nodes > kMaxPlausible || num_half_edges > kMaxPlausible) {
    rejected("implausible header sizes (nodes=" + std::to_string(num_nodes) +
             ", half_edges=" + std::to_string(num_half_edges) + ")");
  }
  if (num_sections < 3 || num_sections > 16) {
    rejected("implausible section count " + std::to_string(num_sections));
  }
  if (disk_size < file_bytes) {
    rejected("file shorter than header claims (" + std::to_string(disk_size) + " < " +
             std::to_string(file_bytes) + " bytes)");
  }
  if (disk_size != file_bytes) rejected("file size disagrees with header");
  const std::uint64_t table_end =
      kHeaderBytes + std::uint64_t{num_sections} * kSectionEntryBytes;
  if (table_end > file_bytes) rejected("section table exceeds file");

  // Map (or, without mmap, read) the whole file.
  const std::byte* base = nullptr;
#if SOCMIX_HAVE_MMAP
  {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) rejected("cannot open " + path);
    void* mapping =
        ::mmap(nullptr, static_cast<std::size_t>(file_bytes), PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);
    if (mapping == MAP_FAILED) rejected("mmap failed for " + path);
    base_ = mapping;
    mapped_bytes_ = static_cast<std::size_t>(file_bytes);
    base = static_cast<const std::byte*>(mapping);
  }
#else
  {
    heap_.resize(static_cast<std::size_t>(file_bytes));
    std::ifstream in{path, std::ios::binary};
    if (!in) rejected("cannot open " + path);
    in.read(reinterpret_cast<char*>(heap_.data()),
            static_cast<std::streamsize>(file_bytes));
    if (!in) rejected("short read of " + path);
    base = heap_.data();
  }
#endif

  SectionInfo offs{};
  SectionInfo adj{};
  SectionInfo cadj{};
  SectionInfo shrd{};
  sections_.clear();
  sections_.reserve(num_sections);
  for (std::uint32_t i = 0; i < num_sections; ++i) {
    const std::byte* entry = base + kHeaderBytes + i * kSectionEntryBytes;
    SectionInfo section;
    section.id = load_u32(entry + 0);
    section.crc = load_u32(entry + 4);
    section.offset = load_u64(entry + 8);
    section.bytes = load_u64(entry + 16);
    if (section.offset % kPayloadAlign != 0) rejected("misaligned section payload");
    if (section.offset < table_end || section.offset + section.bytes < section.offset ||
        section.offset + section.bytes > file_bytes) {
      rejected("section payload out of bounds");
    }
    if (section.id == kSectionOffsets) offs = section;
    if (section.id == kSectionAdjacency) adj = section;
    if (section.id == kSectionAdjacencyCompressed) cadj = section;
    if (section.id == kSectionShards) shrd = section;
    sections_.push_back(section);
  }
  // Exactly one adjacency representation, matched to the format version
  // (a v1 file smuggling an ADJC section — or vice versa — is rejected,
  // not silently preferred one way).
  if (compressed && adj.id != 0) rejected("compressed container carries ADJ4");
  if (!compressed && cadj.id != 0) rejected("uncompressed container carries ADJC");
  if (offs.id == 0 || shrd.id == 0 || (compressed ? cadj.id : adj.id) == 0) {
    rejected(compressed ? "missing required section (OFFS/ADJC/SHRD)"
                        : "missing required section (OFFS/ADJ4/SHRD)");
  }
  if (offs.bytes != (num_nodes + 1) * sizeof(EdgeIndex)) {
    rejected("offsets section size disagrees with header");
  }
  if (!compressed && adj.bytes != num_half_edges * sizeof(NodeId)) {
    rejected("adjacency section size disagrees with header");
  }
  const std::uint32_t pack_shards = load_u32(head + 32);
  if (pack_shards == 0 || shrd.bytes != (std::uint64_t{pack_shards} + 1) * 8) {
    rejected("shard section size disagrees with header");
  }
  // The stored plan drives every sweep, whose bookkeeping is O(shards).
  if (pack_shards > kMaxShards) {
    rejected("implausible shard count " + std::to_string(pack_shards) + " (max " +
             std::to_string(kMaxShards) + ")");
  }

  if (options.verify) {
    const auto check = [&](const SectionInfo& s, const char* name) {
      const std::span<const std::byte> payload{base + s.offset,
                                               static_cast<std::size_t>(s.bytes)};
      if (util::crc32(payload) != s.crc) {
        rejected(std::string{"section CRC mismatch ("} + name + ")");
      }
    };
    check(offs, "OFFS");
    if (compressed) {
      check(cadj, "ADJC");
    } else {
      check(adj, "ADJ4");
    }
    check(shrd, "SHRD");
  }

  // Structural validation: the CSR invariants every kernel indexes by.
  const auto* offsets = reinterpret_cast<const EdgeIndex*>(base + offs.offset);
  const auto* neighbors =
      compressed ? nullptr : reinterpret_cast<const NodeId*>(base + adj.offset);
  const auto* bounds = reinterpret_cast<const std::uint64_t*>(base + shrd.offset);
  const auto n = static_cast<NodeId>(num_nodes);
  if (offsets[0] != 0 || offsets[num_nodes] != num_half_edges) {
    rejected("corrupt CSR (offset endpoints disagree with header)");
  }
  for (std::uint64_t i = 0; i < num_nodes; ++i) {
    if (offsets[i] > offsets[i + 1]) rejected("corrupt CSR (non-monotone offsets)");
  }
  if (options.verify && !compressed) {
    for (std::uint64_t e = 0; e < num_half_edges; ++e) {
      if (neighbors[e] >= n) rejected("corrupt CSR (neighbor id out of range)");
    }
  }
  if (compressed) {
    // Geometry-only validation (head fields, group index monotone and in
    // bounds, slack present); the coded bytes themselves are covered by
    // the section CRC above and re-validated group-by-group at decode.
    const auto* payload = reinterpret_cast<const std::uint8_t*>(base + cadj.offset);
    const std::string err = adjc::parse_adjc(payload, cadj.bytes, num_nodes,
                                             num_half_edges, adjc_);
    if (!err.empty()) rejected(err);
  }
  if (bounds[0] != 0 || bounds[pack_shards] != num_nodes) {
    rejected("corrupt shard bounds (endpoints)");
  }
  for (std::uint32_t s = 0; s < pack_shards; ++s) {
    if (bounds[s] > bounds[s + 1]) rejected("corrupt shard bounds (non-monotone)");
  }

  pack_plan_.bounds.assign(bounds, bounds + pack_shards + 1);
  offsets_file_offset_ = offs.offset;
  adjacency_file_offset_ = compressed ? cadj.offset : adj.offset;
  view_ = compressed
              ? Graph::borrowed_headless({offsets, num_nodes + 1}, num_half_edges)
              : Graph::borrowed({offsets, num_nodes + 1}, {neighbors, num_half_edges});

  SOCMIX_COUNTER_ADD("graph.io.smxg_loaded", 1);
  SOCMIX_GAUGE_SET("graph.io.smxg_bytes", file_bytes);
  // Validation streamed the whole file through the page cache; drop it so
  // a windowed run starts from cold residency.
  release_all();
}

MappedGraph::ByteSpan MappedGraph::offsets_span(NodeId begin, NodeId end) const noexcept {
  return {offsets_file_offset_ + std::uint64_t{begin} * sizeof(EdgeIndex),
          offsets_file_offset_ + (std::uint64_t{end} + 1) * sizeof(EdgeIndex)};
}

MappedGraph::ByteSpan MappedGraph::adjacency_span(NodeId begin, NodeId end) const noexcept {
  if (adjc_.present()) {
    const auto [lo, hi] = adjc_.byte_window(begin, end);
    return {adjacency_file_offset_ + lo, adjacency_file_offset_ + hi};
  }
  const auto offsets = view_.offsets();
  return {adjacency_file_offset_ + offsets[begin] * sizeof(NodeId),
          adjacency_file_offset_ + offsets[end] * sizeof(NodeId)};
}

std::size_t MappedGraph::window_bytes(NodeId begin, NodeId end) const noexcept {
  if (begin >= end || view_.num_nodes() == 0) return 0;
  const ByteSpan off = offsets_span(begin, end);
  const ByteSpan adj = adjacency_span(begin, end);
  return static_cast<std::size_t>((off.hi - off.lo) + (adj.hi - adj.lo));
}

namespace {

#if SOCMIX_HAVE_MMAP
void advise_span(const std::byte* base, std::size_t mapped_bytes, std::uint64_t lo,
                 std::uint64_t hi, int advice) noexcept {
  if (lo >= hi) return;
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  std::uint64_t start = lo & ~(page - 1);
  std::uint64_t end = (hi + page - 1) & ~(page - 1);
  end = std::min<std::uint64_t>(end, mapped_bytes);
  if (start >= end) return;
  // const_cast: madvise takes void* but never writes through it.
  if (::madvise(const_cast<std::byte*>(base) + start,
                static_cast<std::size_t>(end - start), advice) != 0) {
    // A refused hint (EAGAIN under memory pressure, exotic filesystems,
    // locked pages) just means the kernel pages on demand instead —
    // correctness is unaffected, so count it and carry on.
    SOCMIX_COUNTER_ADD("graph.io.smxg_advise_failed", 1);
  }
}
#endif

}  // namespace

void MappedGraph::advise_rows(NodeId begin, NodeId end) const noexcept {
#if SOCMIX_HAVE_MMAP
  if (base_ == nullptr || begin >= end) return;
  const auto* base = static_cast<const std::byte*>(base_);
  const ByteSpan off = offsets_span(begin, end);
  const ByteSpan adj = adjacency_span(begin, end);
  advise_span(base, mapped_bytes_, off.lo, off.hi, MADV_WILLNEED);
  advise_span(base, mapped_bytes_, adj.lo, adj.hi, MADV_WILLNEED);
#else
  (void)begin;
  (void)end;
#endif
}

void MappedGraph::release_rows(NodeId begin, NodeId end) const noexcept {
#if SOCMIX_HAVE_MMAP
  if (base_ == nullptr || begin >= end) return;
  const auto* base = static_cast<const std::byte*>(base_);
  const ByteSpan off = offsets_span(begin, end);
  const ByteSpan adj = adjacency_span(begin, end);
  advise_span(base, mapped_bytes_, off.lo, off.hi, MADV_DONTNEED);
  advise_span(base, mapped_bytes_, adj.lo, adj.hi, MADV_DONTNEED);
#else
  (void)begin;
  (void)end;
#endif
}

void MappedGraph::release_all() const noexcept {
#if SOCMIX_HAVE_MMAP
  if (base_ == nullptr) return;
  if (::madvise(base_, mapped_bytes_, MADV_DONTNEED) != 0) {
    SOCMIX_COUNTER_ADD("graph.io.smxg_advise_failed", 1);
  }
#endif
}

}  // namespace socmix::graph::sharded
