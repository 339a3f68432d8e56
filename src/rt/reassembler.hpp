// Real-thread batch-based reassembler.
//
// Mirrors core/reassembler.hpp with real concurrency: each worker deposits
// into its own SPSC buffer ring; the consumer thread walks micro-flows in ID
// order, consuming from the owning worker's ring. Batch ownership is
// implied by the splitter's round-robin, so the consumer needs no shared
// mutable state beyond the rings themselves — the "global merging counter"
// is consumer-private, exactly as recvmsg-context merging is in the paper.
//
// Packets are MOVE-ONLY: each RtPacket carries its pooled skb
// (net::PacketPtr, see rt/pool.hpp), so a deposit transfers slab ownership
// worker → consumer and a dropped deposit recycles the slab automatically.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "rt/spsc_ring.hpp"

namespace mflow::rt {

/// One unit of work flowing splitter -> worker -> merger. Move-only once an
/// skb is attached (PacketPtr), but remains an aggregate so tests can brace-
/// initialize metadata-only packets (skb == nullptr is legal everywhere).
struct RtPacket {
  std::uint64_t seq = 0;       // position in the original flow
  std::uint64_t batch = 0;     // micro-flow id (1-based)
  std::uint32_t cost_ns = 0;   // synthetic per-packet processing cost
  /// Rescale epoch the generator stamped this packet with (count of applied
  /// EngineConfig::rescales at staging time). The overlay fast path keys
  /// cache validity on it: a worker seeing a newer epoch than its cached
  /// entry re-resolves through the full decap, so a split-degree change
  /// never applies a stale decision.
  std::uint32_t epoch = 0;
  net::PacketPtr skb;          // pooled packet buffer (may be null)
  /// Epoch-flush marker (never delivered): `batch` holds the NEW epoch's
  /// first batch id, and its position in a worker's FIFO proves every
  /// older batch on that ring is fully deposited. Closes the completion
  /// gap on rings a shrink leaves inactive — without it the consumer could
  /// never distinguish "last batch done" from "more packets in flight".
  bool marker = false;
};
// The split and buffer rings hold RtPackets by value: a bigger descriptor
// is more cross-core ring traffic per packet.
static_assert(sizeof(RtPacket) <= 48, "RtPacket is the ring slot");

class RtReassembler {
 public:
  /// Batch-ownership epoch: batches >= first_batch round-robin over the
  /// first `workers` buffer rings. Epochs are how the engine rescales its
  /// active worker set at runtime — a control message on an internal SPSC
  /// ring, never a shared mutable mapping.
  struct Epoch {
    std::uint64_t first_batch = 1;
    std::uint32_t workers = 0;
  };

  /// Rescale announcements that may wait for the merge counter to reach
  /// them. An epoch stops counting once it is in force, so rescales over
  /// the reassembler's lifetime are unbounded.
  static constexpr std::size_t kMaxPendingEpochs = 64;

  /// `workers` buffer rings, each `ring_capacity_pow2` deep (power of two,
  /// enforced by SpscRing's constructor).
  RtReassembler(std::size_t workers, std::size_t ring_capacity_pow2);

  /// Worker `w` deposits `count` processed packets from `pkts` in order
  /// (SPSC per worker) in one attempt, amortizing ring atomics across the
  /// batch; returns how many were accepted (the prefix that fit — the rest
  /// are left intact, skbs included, for the caller to retry or to drop
  /// and account for so the merger's conservation check still
  /// terminates).
  [[nodiscard]] std::size_t deposit_batch(std::size_t w, RtPacket* pkts,
                                          std::size_t count);

  /// Consumer: pop up to `max` in-order packets into `out`, crossing
  /// micro-flow boundaries when the next micro-flow's head has already
  /// arrived. Returns how many were written; 0 means the merge head is dry
  /// (the current micro-flow's next packet has not arrived yet).
  std::size_t pop_ready_batch(RtPacket* out, std::size_t max);

  /// Micro-flows fully merged so far (consumer-private counter).
  std::uint64_t batches_merged() const { return batches_merged_; }

  /// End-of-stream only: skip a micro-flow whose ring is dry after all
  /// producers finished (a batch boundary that will never see more input).
  void force_advance();

  /// Producer side (the splitter/generator thread): all batches from
  /// `first_batch` on round-robin over the first `e.workers` rings. MUST be
  /// announced before any packet of `first_batch` is pushed toward the
  /// workers — the consumer observes packets only through an
  /// acquire/release chain rooted at that push, so the announcement is then
  /// guaranteed visible by the time the merge counter reaches the epoch.
  /// Returns false, announcing nothing, when the pending-epoch budget is
  /// full: the caller keeps its old mapping and may retry at a later
  /// boundary.
  [[nodiscard]] bool announce_epoch(Epoch e);

  /// Total packets currently buffered across all fan-in rings. Approximate
  /// from any thread (each ring's size is a racy-but-monotone snapshot);
  /// the scalability profiler samples it as the merge-side queue-pressure
  /// signal. 0 on a quiescent pipeline means nothing awaits merging.
  std::size_t occupancy() const;

 private:
  /// Ring owning the micro-flow under merge. First puts in force every
  /// pending epoch the merge counter has reached; later ones stay queued.
  /// Costs one empty-check on the epoch ring when no rescale is pending.
  std::size_t merge_owner();

  std::vector<std::unique_ptr<SpscRing<RtPacket>>> rings_;
  std::uint64_t merge_counter_ = 1;  // consumer-private
  std::uint64_t batches_merged_ = 0;

  /// Announced epochs not yet in force, ascending first_batch;
  /// kMaxPendingEpochs deep.
  SpscRing<Epoch> epoch_ring_;
  Epoch current_;  // consumer-private: the epoch governing merge_counter_
};

}  // namespace mflow::rt
