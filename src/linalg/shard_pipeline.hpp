// Double-buffered shard window pipeline: hide decoding behind compute.
//
// The walk engines (markov::BatchedEvolver, linalg::WalkOperator) take
// every window of the CSR from here and sweep it one contiguous shard at a
// time; an in-memory graph is the one-shard plan whose window is the whole
// CSR. How a shard's window is staged follows from the input alone; there
// is no knob:
//
//   - compressed (ADJC) container: one dedicated worker thread decodes
//     shard k+1's groups into the other of two scratch slots while compute
//     sweeps shard k. The sweep only blocks when the worker falls behind,
//     and that stall is measured: markov.shard.prefetch_stall_seconds /
//     prefetch_stalls along with the shard.prefetch_wait /
//     shard.prefetch_fill trace spans are the overlap evidence.
//   - raw mapped container: staged inline. acquire advises shard k+1
//     (madvise(WILLNEED)) and releases shard k-1; the kernel's readahead
//     overlaps the device side, so a worker touching pages ahead wins
//     nothing measurable. Under a one-shard plan there is nothing to
//     window: the mapping is read like an in-memory graph.
//   - in-memory graph: nothing to stage.
//
// DESIGN.md "Shard pipeline & compression" has the measurements behind
// this policy. Either way the window handed to compute holds bit-identical
// neighbor ids in bit-identical order, so staging and compression never
// change a result bit and neither is folded into the checkpoint context.
//
// Windows over a compressed container are decoded group-by-group into
// per-slot scratch and returned with `local == true`: `offsets` is then a
// window-local array (index row j - begin, values indexing `neighbors`
// directly) instead of the absolute CSR arrays. All decoding precedes all
// floating-point math of the shard, and the decoder re-validates every
// group (stream byte counts, id range) so a corrupt stream fails closed
// even when load-time CRC verification was skipped; the worker's error is
// rethrown on the compute thread by the next acquire.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "graph/graph.hpp"
#include "graph/sharded/mapped_graph.hpp"
#include "graph/sharded/plan.hpp"
#include "util/aligned.hpp"

namespace socmix::linalg {

/// One shard's adjacency, ready for the kernels.
///
/// local == false: `offsets`/`neighbors` are the graph's absolute CSR
/// arrays (row j of the shard is indexed as offsets[j], j in
/// [begin, end)) — the uncompressed passthrough.
/// local == true: decoded-scratch window. `offsets` has end-begin+1
/// entries, indexed by j - begin, and its values index `neighbors`
/// directly (offsets[0] need not be 0: scratch starts at the covering
/// compression-group boundary). Valid until the *next* acquire of the
/// same slot, i.e. through this shard's compute.
struct ShardWindow {
  const graph::EdgeIndex* offsets = nullptr;
  const graph::NodeId* neighbors = nullptr;
  graph::NodeId begin = 0;
  graph::NodeId end = 0;
  bool local = false;
};

class ShardPipeline {
 public:
  /// `g` and `mapped` (nullable for in-memory graphs) must outlive the
  /// pipeline. A headless `g` (compressed container) requires `mapped`;
  /// only then does the decode worker start, with shard 0's fill posted.
  ShardPipeline(const graph::Graph& g, graph::ShardPlan plan,
                const graph::sharded::MappedGraph* mapped);
  ~ShardPipeline();

  ShardPipeline(const ShardPipeline&) = delete;
  ShardPipeline& operator=(const ShardPipeline&) = delete;

  /// Hands shard `s`'s window to compute. Shards must be acquired in
  /// ascending order within a sweep. Compressed: blocks until the worker
  /// has decoded the window (counting the stall), posts shard s+1, and
  /// rethrows any decode error (e.g. a corrupt ADJC group) here, on the
  /// compute thread. Raw mapped: advises shard s+1. Both release the
  /// pages behind shard s-1. Hits the "shard.window" fault site.
  [[nodiscard]] ShardWindow acquire(std::uint32_t s);

  /// Ends a sweep: releases the last shard's pages and, when compressed,
  /// posts shard 0 so the next sweep's first window decodes behind the
  /// caller's between-sweep work (TVD reduction, prescale, Lanczos vector
  /// ops).
  void finish_sweep();

  /// True when windows are decoded (compressed container): acquire
  /// returns local windows and the engine must use the rebased kernel
  /// call; also implies the frontier optimization is unavailable.
  [[nodiscard]] bool decodes() const noexcept { return compressed_; }
  /// True when a sweep is more than one in-memory window: the plan has
  /// several shards or windows are decoded. Only then do the engines pay
  /// for the markov.shard.* / linalg.spmv.sharded_* accounting.
  [[nodiscard]] bool out_of_core() const noexcept {
    return compressed_ || plan_.num_shards() > 1;
  }
  [[nodiscard]] const graph::ShardPlan& plan() const noexcept { return plan_; }
  /// Bytes of decode scratch held across both slots (0 uncompressed).
  [[nodiscard]] std::size_t scratch_bytes() const noexcept { return scratch_bytes_; }

 private:
  struct Slot {
    std::vector<graph::EdgeIndex> offsets;       // window-local, rows+1
    util::aligned_vector<graph::NodeId> values;  // decoded neighbor ids
    graph::NodeId begin = 0;
    graph::NodeId end = 0;
  };

  void stage(std::uint32_t s);  // worker: advise and decode shard s
  void decode_window(std::uint32_t s, Slot& slot);
  void worker_main();
  [[nodiscard]] ShardWindow window_for(std::uint32_t s) const noexcept;

  const graph::Graph* graph_;
  const graph::sharded::MappedGraph* mapped_;
  graph::ShardPlan plan_;
  bool compressed_ = false;
  std::size_t scratch_bytes_ = 0;
  Slot slots_[2];

  // Worker handshake (guarded by mutex_). The sweep is sequential, so at
  // most one fill is outstanding: request_ is the shard the worker should
  // stage next, staging_ the one it is staging, ready_ the one staged and
  // not yet superseded (-1 each when none).
  std::thread worker_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::int64_t request_ = -1;
  std::int64_t staging_ = -1;
  std::int64_t ready_ = -1;
  bool stop_ = false;
  std::exception_ptr error_;
};

}  // namespace socmix::linalg
