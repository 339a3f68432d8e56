// Stage objects of the rt engine (internal to src/rt and its tests).
//
// Engine::run's three jobs are one object each over a shared RunContext:
// Generator splits the stream into micro-flow batches on the split rings,
// Worker processes one worker's share, Merger merges the buffer rings back
// in batch order. step() never blocks: it performs at most one ring or
// pool operation on one chunk and returns right after it with the outcome.
// Waiting is the caller's job — the runner loop in engine.cpp, or the
// single-thread seeded interleaver in tests/test_rt_interleave.cpp.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "control/flowtable.hpp"
#include "nf/nf.hpp"
#include "rt/calibrate.hpp"
#include "rt/engine.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace mflow::rt {

/// Packets staged per ring operation. Amortizes one acquire-load plus one
/// release-store across the whole chunk; small enough that a chunk never
/// approaches the default ring depth.
inline constexpr std::size_t kChunk = 128;

/// Outcome of one stage step.
enum class Step { kProgress, kInputDry, kOutputFull, kPoolDry, kDone };

/// Everything the stages of one run share, built before any stage runs.
struct RunContext {
  using OutputFn = std::function<void(const RtPacket&)>;

  RunContext(const EngineConfig& config, std::uint64_t total_packets,
             CapacityControl& capacity_control, const OutputFn& output)
      : cfg(config), total(total_packets), capacity(capacity_control),
        on_output(output) {
    for (std::size_t w = 0; w < workers; ++w) {
      split_rings.push_back(
          std::make_unique<SpscRing<RtPacket>>(cfg.ring_capacity));
      drop_rings.push_back(std::make_unique<SpscRing<net::PacketPtr>>(
          std::bit_ceil(2 * kChunk)));
      if (nf_on && !nf_shared)
        nf_tables.push_back(
            std::make_unique<control::FlowTable<nf::FlowState>>(
                control::FlowTableParams{1, cfg.nf.state_capacity, 0}));
    }
    // Every table is reserved for the most flows the run can meet (one
    // per micro-flow batch) before any stage runs, so no thread grows one
    // mid-run: the stages stay off the heap, and a run's memory does not
    // depend on which thread met a shard's flows first.
    const std::uint64_t batch = std::max<std::uint32_t>(cfg.batch_size, 1);
    const std::size_t flows = (total + batch - 1) / batch;
    if (churn_table) churn_table->reserve(flows);
    if (nf_shared_table) nf_shared_table->reserve(flows);
    for (const auto& t : nf_tables) t->reserve(flows);
    t0 = std::chrono::steady_clock::now();
  }

  const EngineConfig& cfg;
  const std::uint64_t total;
  CapacityControl& capacity;
  const OutputFn& on_output;
  const std::size_t workers = cfg.workers;
  const bool nf_on = cfg.nf.enabled && !cfg.nf.chain.chain.empty();
  const bool nf_shared =
      nf_on && cfg.nf.strategy == nf::Strategy::kSharedLock;
  const bool nf_has_nat =
      nf_on && std::ranges::count(cfg.nf.chain.chain, nf::Kind::kNat) != 0;
  // Auto-sizing covers every ring slot plus per-stage chunk staging, so
  // lossless runs never see pool exhaustion.
  const std::size_t pool_slabs =
      cfg.pool_capacity != 0
          ? cfg.pool_capacity
          : cfg.ring_capacity * (2 * workers + 2) + (workers + 3) * kChunk;

  // The pool is declared before the rings so it is destroyed after them:
  // every ring holds PacketPtrs whose destructors recycle into it.
  PacketPool pool{{.slabs = pool_slabs}};
  std::vector<std::unique_ptr<SpscRing<RtPacket>>> split_rings;
  RtReassembler reassembler{workers, cfg.ring_capacity};
  // Merger -> generator slab return path. Ring-based recycling keeps the
  // steady state free of pool CAS traffic (the Treiber free list is only
  // the fallback when this ring is full/empty — e.g. around drops).
  SpscRing<net::PacketPtr> recycle_ring{std::bit_ceil(pool_slabs + 1)};
  // Worker -> generator drop-return fan-in: one small SPSC ring per worker
  // so slabs dropped mid-pipeline (injected faults, deposit backpressure)
  // return without CAS-contending on the pool free list — under fan-in, N
  // droppers hammering one Treiber head is a real contention point.
  // Overflow falls back to the CAS list (the PacketPtr destructor).
  std::vector<std::unique_ptr<SpscRing<net::PacketPtr>>> drop_rings;

  // Flow-state plane (churn mode): one shared FlowTable driven by the
  // generator alone — it registers and touches each batch's flow, then
  // sweeps. The table tracks presence and recency only, so its value type
  // is empty.
  struct NoValue {};
  std::unique_ptr<control::FlowTable<NoValue>> churn_table =
      cfg.flow_table.enabled
          ? std::make_unique<control::FlowTable<NoValue>>(
                control::FlowTableParams{
                    cfg.flow_table.shards, cfg.flow_table.capacity,
                    static_cast<sim::Time>(std::max<std::uint64_t>(
                        cfg.flow_table.ttl_batches, 1))})
          : nullptr;
  // NF plane. The shared table's shard mutex is the kSharedLock lock; the
  // private tables are strictly single-writer (only their owning worker
  // touches them while the stages run; folded at the end).
  const nf::MaglevTable maglev =
      nf_on && std::ranges::count(cfg.nf.chain.chain,
                                  nf::Kind::kLoadBalancer) != 0
          ? nf::MaglevTable::build(cfg.nf.chain.lb_backends,
                                   cfg.nf.chain.lb_table_size,
                                   cfg.nf.chain.lb_seed)
          : nf::MaglevTable{};
  std::unique_ptr<control::FlowTable<nf::FlowState>> nf_shared_table =
      nf_shared ? std::make_unique<control::FlowTable<nf::FlowState>>(
                      control::FlowTableParams{cfg.nf.shared_shards,
                                               cfg.nf.state_capacity, 0})
                : nullptr;
  std::vector<std::unique_ptr<control::FlowTable<nf::FlowState>>> nf_tables;

  std::atomic<bool> produce_done{false};
  std::atomic<std::size_t> workers_done{0};
  // Packets lost to backpressure (retry budget exhausted) or injected
  // faults. The merger terminates on delivered + dropped == total, so
  // every loss must be counted by whoever gave up on the packet.
  std::atomic<std::uint64_t> dropped{0};

  // Captured once before any stage runs; thread spawn happens-before makes
  // the pointer safely visible to every stage without atomics.
  trace::Tracer* const tracer = trace::active();
  std::chrono::steady_clock::time_point t0;
};

/// Stage-local trace buffer. Each stage appends to its own vector while
/// running and hands the whole batch to the tracer with absorb() when it
/// finishes — no shared mutable state while the stages are live, which
/// keeps the tsan preset quiet.
class ThreadTrace {
 public:
  ThreadTrace(const RunContext& ctx, int core)
      : tr_(ctx.tracer), t0_(ctx.t0), core_(static_cast<std::int16_t>(core)) {}
  ~ThreadTrace() { flush(); }
  ThreadTrace(const ThreadTrace&) = delete;
  ThreadTrace& operator=(const ThreadTrace&) = delete;

  void event(trace::EventKind kind, std::uint64_t seq,
             std::uint64_t microflow, std::uint64_t aux = 0,
             sim::Time dur = 0) {
    if (tr_ == nullptr || !tr_->sampled(seq)) return;
    trace::TraceEvent ev;
    ev.ts = static_cast<sim::Time>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
    ev.dur = dur;
    ev.seq = seq;
    ev.microflow = microflow;
    ev.aux = aux;
    ev.kind = kind;
    ev.core = core_;
    buf_.push_back(ev);
  }

  void flush() {
    if (tr_ != nullptr && !buf_.empty()) tr_->absorb(std::move(buf_));
    buf_.clear();
  }

 private:
  trace::Tracer* tr_;
  std::chrono::steady_clock::time_point t0_;
  std::int16_t core_;
  std::vector<trace::TraceEvent> buf_;
};

/// Offset of the outer UDP source port in an encapsulated packet:
/// Eth(14) + IPv4(20).
inline constexpr std::size_t kOuterSportOff =
    net::EthernetHeader::kSize + net::Ipv4Header::kSize;

/// Overlay frame the generator builds: inner Eth/IPv4/UDP plus the VXLAN
/// outer stack (92 bytes).
inline constexpr std::size_t kOverlayFrameBytes =
    net::kVxlanOverhead + net::EthernetHeader::kSize +
    net::Ipv4Header::kSize + net::UdpHeader::kSize;

/// Flow identity of one micro-flow batch: the dense id and the inner
/// 5-tuple. Each flow gets a distinct source port, so the NF bindings (NAT
/// port, LB backend) are per-flow functions, as with real bytes.
struct BatchFlow {
  net::FlowId id = 0;
  net::FlowKey key;
};

/// The one flow-identity rule of the rt stream, shared by the generator
/// (churn-table registration, overlay frame) and the workers (skb build).
/// Overlay mode cycles a hot set of overlay.flows inner flows, the churn
/// generator starts a fresh flow every flow_lifetime_batches, and
/// otherwise each batch is its own flow. The two port formulas differ by
/// one; each is what the recorded NF state digests of its mode rest on.
inline BatchFlow flow_of(const EngineConfig& cfg, std::uint64_t batch) {
  BatchFlow f;
  std::uint64_t port_base = 0;
  if (cfg.overlay.enabled) {
    f.id = batch % std::max<std::uint32_t>(cfg.overlay.flows, 1) + 1;
    port_base = f.id - 1;
  } else {
    f.id = cfg.flow_table.enabled
               ? batch / std::max<std::uint64_t>(
                             cfg.flow_table.flow_lifetime_batches, 1) + 1
               : batch;
    port_base = f.id;
  }
  f.key = net::FlowKey{net::Ipv4Addr(10, 0, 1, 2), net::Ipv4Addr(10, 0, 1, 3),
                       static_cast<std::uint16_t>(40000 + (port_base & 0x3FFF)),
                       5000, net::Ipv4Header::kProtoUdp};
  return f;
}

/// Round-robins micro-flow batches over the active workers, as the
/// splitting mechanisms do. Packets are staged in chunks (never crossing a
/// micro-flow boundary, so a chunk targets exactly one worker) and pushed
/// with one batched ring operation.
///
/// Runtime rescale: the active worker set is a prefix [0, W_active) of the
/// workers, re-evaluated only at micro-flow boundaries. Each change opens
/// a new epoch starting at the batch being opened and announces it to the
/// merger BEFORE any packet of that batch is pushed — the push's
/// release/acquire chain then guarantees the merger sees the epoch no
/// later than the epoch's first packet.
class Generator {
 public:
  struct Counters {
    StageCounters prof;
    std::uint64_t rescales_applied = 0;
    /// Epoch changes the merger refused (pending-epoch budget full).
    std::uint64_t epochs_refused = 0;
  };

  explicit Generator(RunContext& ctx)
      : ctx_(ctx), prof_(ctx.cfg.profile ? &counters_.prof : nullptr),
        trace_(ctx, static_cast<int>(ctx.workers) + 1),
        in_batch_(ctx.cfg.batch_size), w_active_(ctx.workers),
        marks_(ctx.workers, Mark::kClean), stage_(kChunk), stash_(kChunk) {
    ctx_.capacity.active.store(static_cast<std::uint32_t>(w_active_),
                               std::memory_order_release);
    // Reserved like a pool slab, so rebuilding the frame per batch never
    // touches the heap.
    if (ctx.cfg.overlay.enabled) {
      frame_ = net::make_packet();
      frame_->buf.reserve(ctx.pool.config().buffer_bytes);
    }
  }

  void observe() {}
  Step step() {
    if (marks_owed_ != 0) return push_marks();
    if (left_ == 0) {
      if (pushed_ < staged_) return push_chunk();
      if (seq_ == ctx_.total) {
        ctx_.produce_done.store(true, std::memory_order_release);
        trace_.flush();
        // Slabs parked in the stash go back to the pool before the
        // merger's recycle pushes are cut off.
        for (; stash_i_ < stash_n_; ++stash_i_) stash_[stash_i_].reset();
        return Step::kDone;
      }
      if (in_batch_ >= ctx_.cfg.batch_size) {
        open_batch();
        if (marks_owed_ != 0) return push_marks();
      }
      left_ = std::min<std::uint64_t>(
          {kChunk, ctx_.cfg.batch_size - in_batch_, ctx_.total - seq_});
      staged_ = pushed_ = 0;
      marks_[target_] = Mark::kFed;
    }
    return stage_chunk() ? push_chunk() : Step::kPoolDry;
  }

  /// Give up on what the last blocked step could not move: one ring's
  /// owed marker (end-of-stream force_advance covers the batch it would
  /// have closed), the packet that found no slab, or the chunk's unpushed
  /// tail.
  void shed() {
    if (marks_owed_ != 0) {
      std::size_t w = 0;
      while (marks_[w] != Mark::kOwed) ++w;
      marks_[w] = Mark::kClean;
      --marks_owed_;
    } else if (left_ != 0) {
      trace_.event(trace::EventKind::kSplitDeposit, seq_, batch_,
                   static_cast<std::uint64_t>(target_));
      count_drop(seq_);
      --left_, ++seq_, ++in_batch_;
    } else {
      for (; pushed_ < staged_; ++pushed_) {
        count_drop(stage_[pushed_].seq);
        stage_[pushed_].skb.reset();
      }
    }
  }

  StageCounters* profile() { return prof_; }
  const Counters& counters() const { return counters_; }

 private:
  void open_batch() {
    ++batch_;
    in_batch_ = 0;
    const auto& cfg = ctx_.cfg;
    while (rescale_idx_ < cfg.rescales.size() &&
           seq_ >= cfg.rescales[rescale_idx_].after_packets &&
           apply_active(cfg.rescales[rescale_idx_].active_workers))
      ++rescale_idx_;
    // Live capacity request (rt::EngineCapacityAdapter). The schedule is
    // replayed first so a test that uses both has a defined order; the
    // request wins ties since it is the operator's latest word.
    if (const std::uint32_t req =
            ctx_.capacity.requested.load(std::memory_order_acquire);
        req != 0)
      apply_active(req);
    target_ = static_cast<std::size_t>((batch_ - epoch_first_) % w_active_);
    const BatchFlow flow = flow_of(cfg, batch_);
    if (cfg.overlay.enabled) {
      frame_ = net::make_udp_datagram(std::move(frame_), flow.key,
                                      net::kTcpMss);
      net::vxlan_encap(*frame_, net::Ipv4Addr(192, 168, 1, 2),
                       net::Ipv4Addr(192, 168, 1, 3), cfg.overlay.vni);
      assert(frame_->buf.size() == kOverlayFrameBytes);
    }
    if (ctx_.churn_table) {
      // Register (or refresh) the batch's flow before any of its packets
      // are pushed. The clock is the batch index, so recency and expiry
      // follow the generator's deterministic schedule alone.
      const auto now = static_cast<sim::Time>(batch_);
      ctx_.churn_table->upsert(flow.id, now);
      ctx_.churn_table->touch(flow.id, now);
      if (batch_ % std::max<std::uint64_t>(cfg.flow_table.sweep_every, 1) ==
          0)
        ctx_.churn_table->expire_idle(now);
    }
  }

  // Shared epoch-change protocol for the deterministic schedule AND live
  // capacity requests: open a new epoch at the batch being opened,
  // announce it to the merger before any packet of that batch is pushed,
  // then owe every previously-active ring fed since its last marker an
  // epoch-flush marker so the merger can prove its final old-epoch batch
  // is complete — after a shrink no later batch would ever arrive there
  // to provide the FIFO evidence. A ring fed nothing since its last marker
  // has nothing left to prove; skipping it keeps markers from piling up
  // on a ring that owns no batch. Returns false when the merger refuses
  // the epoch (its pending-epoch budget is full): the old mapping then
  // stays in force and the caller retries at a later boundary, so
  // generator and merger always agree on which ring owns a batch.
  bool apply_active(std::size_t requested_workers) {
    const std::size_t nw = std::min<std::size_t>(
        std::max<std::size_t>(requested_workers, 1), ctx_.workers);
    if (nw == w_active_) return true;  // no mapping change, no epoch needed
    if (!ctx_.reassembler.announce_epoch(
            {batch_, static_cast<std::uint32_t>(nw)})) {
      ++counters_.epochs_refused;
      return false;
    }
    ++counters_.rescales_applied;
    for (std::size_t w = 0; w < w_active_; ++w) {
      if (marks_[w] != Mark::kFed) continue;
      marks_[w] = Mark::kOwed;
      ++marks_owed_;
    }
    w_active_ = nw;
    epoch_first_ = batch_;
    ctx_.capacity.active.store(static_cast<std::uint32_t>(w_active_),
                               std::memory_order_release);
    return true;
  }

  Step push_marks() {
    for (std::size_t w = 0; w < ctx_.workers; ++w) {
      if (marks_[w] != Mark::kOwed) continue;
      RtPacket mark;
      mark.batch = batch_;
      mark.marker = true;
      if (!ctx_.split_rings[w]->try_push(std::move(mark)))
        return Step::kOutputFull;
      marks_[w] = Mark::kClean;
      --marks_owed_;
    }
    return Step::kProgress;
  }

  Step push_chunk() {
    auto& ring = *ctx_.split_rings[target_];
    const std::size_t n =
        ring.try_push_batch(stage_.data() + pushed_, staged_ - pushed_);
    pushed_ += n;
    if (pushed_ < staged_ && n == 0) return Step::kOutputFull;
    if (prof_ != nullptr) {
      prof_->items += n;
      // Sampled fan-out pressure on the split ring just written to.
      if (pushed_ == staged_ && (++chunks_ & 31) == 0) {
        prof_->occupancy_sum += ring.size();
        ++prof_->occupancy_samples;
      }
    }
    return Step::kProgress;
  }

  // One slab per packet: recycle ring first (batched pop into the stash),
  // pool free list second; none left means the pool is dry.
  net::PacketPtr acquire() {
    if (stash_i_ == stash_n_) {
      stash_n_ = ctx_.recycle_ring.try_pop_batch(stash_.data(), kChunk);
      stash_i_ = 0;
      // Top up from the per-worker drop-return rings on EVERY refill (not
      // just when the main ring is dry): the drop rings are small, so
      // sweeping them each refill keeps them from overflowing to the
      // pool's CAS list. One consumer (this stage) over N SPSC rings —
      // same fan-in shape as the merge side; an empty ring costs one
      // cached-index check.
      for (std::size_t w = 0; stash_n_ < kChunk && w < ctx_.workers; ++w)
        stash_n_ += ctx_.drop_rings[w]->try_pop_batch(
            stash_.data() + stash_n_, kChunk - stash_n_);
    }
    if (stash_i_ < stash_n_) return std::move(stash_[stash_i_++]);
    net::PacketPtr skb = ctx_.pool.acquire();
    if (skb) ++counters_.prof.recycle_cas_fallbacks;
    return skb;
  }

  // Stage the rest of the chunk: what a NIC's DMA writes and nothing more
  // (paper §IV IRQ splitting) — the descriptor and, in overlay mode, the
  // frame: frame_'s buffer geometry and bytes. The worker builds the skb
  // metadata (Worker::build_skb). The loop runs on locals and writes the
  // members back once: a descriptor store may alias any member of the
  // same type, so member loop state would cost a load and a store per
  // packet. Staged entries are never markers. Returns false when the pool
  // ran dry first.
  bool stage_chunk() {
    const std::uint64_t first = seq_, end = seq_ + left_, batch = batch_;
    const std::uint32_t cost = ctx_.cfg.cost_ns_per_packet;
    const auto epoch = static_cast<std::uint32_t>(counters_.rescales_applied);
    const std::uint8_t* frame = frame_ ? frame_->buf.data().data() : nullptr;
    const std::size_t headroom = frame_ ? frame_->buf.headroom() : 0;
    std::uint64_t seq = first;
    for (RtPacket* out = stage_.data() + staged_; seq != end; ++seq, ++out) {
      net::PacketPtr skb = acquire();
      if (!skb) break;
      trace_.event(trace::EventKind::kSplitDeposit, seq, batch,
                   static_cast<std::uint64_t>(target_));
      if (frame != nullptr) {
        skb->buf.reset(headroom);
        std::memcpy(skb->buf.append(kOverlayFrameBytes).data(), frame,
                    kOverlayFrameBytes);
      }
      out->seq = seq;
      out->batch = batch;
      out->cost_ns = cost;
      out->epoch = epoch;
      out->skb = std::move(skb);
    }
    const std::uint64_t n = seq - first;
    seq_ = seq;
    left_ -= n;
    in_batch_ += static_cast<std::uint32_t>(n);
    staged_ += n;
    return seq == end;
  }

  void count_drop(std::uint64_t seq) {
    ctx_.dropped.fetch_add(1, std::memory_order_release);
    trace_.event(trace::EventKind::kDrop, seq, batch_);
  }

  RunContext& ctx_;
  Counters counters_;
  StageCounters* const prof_;
  ThreadTrace trace_;
  std::uint64_t seq_ = 0;
  std::uint64_t batch_ = 0;  // numbered from 1
  std::uint32_t in_batch_;
  std::size_t target_ = 0;
  std::size_t w_active_;
  std::uint64_t epoch_first_ = 1;
  std::size_t rescale_idx_ = 0;
  /// Per ring: fed a batch since its last epoch-flush marker, or owed one.
  enum class Mark : std::uint8_t { kClean, kFed, kOwed };
  std::vector<Mark> marks_;
  std::size_t marks_owed_ = 0;
  std::vector<RtPacket> stage_;
  std::uint64_t left_ = 0;  // packets of the current chunk still to stage
  std::size_t staged_ = 0, pushed_ = 0;
  std::uint64_t chunks_ = 0;
  std::vector<net::PacketPtr> stash_;  // slabs popped off the recycle rings
  std::size_t stash_n_ = 0, stash_i_ = 0;
  // Overlay mode: the current batch's frame — inner Eth/IPv4/UDP plus the
  // VXLAN outer stack, as make_udp_datagram + vxlan_encap build it. Every
  // packet of a batch carries the same inner flow and outer stack, so it
  // is built once per batch (two IPv4 checksums and a flow hash) and each
  // slab gets a copy of its bytes — ONCache-style per-flow header reuse.
  net::PacketPtr frame_;
};

/// One per-worker direct-mapped overlay cache slot: the resolved decap
/// decision for a flow, plus the outer-header template bytes a hit is
/// validated against (the outer UDP source port is the only outer field
/// that varies per flow — RFC 7348 entropy — so matching it proves the
/// cached template still describes this packet's outer stack).
struct CacheSlot {
  std::uint64_t flow_id = 0;
  std::uint32_t epoch = 0;  // rescale epoch the entry was installed under
  std::uint8_t sport_hi = 0;
  std::uint8_t sport_lo = 0;
  bool valid = false;
};

/// Pops a chunk from its splitting ring, "processes" each packet (overlay
/// decap, calibrated spin, injected loss, NF chain) and deposits the
/// surviving chunk into its buffer ring. Aligned so that two workers'
/// counters never share a cache line.
class alignas(64) Worker {
 public:
  struct Counters {
    StageCounters prof;
    std::uint64_t ring_returns = 0;  // dropped slabs back via the drop ring
    std::uint64_t hits = 0, misses = 0, invals = 0, fails = 0;  // overlay
    std::uint64_t nf_pkts = 0, rewrites = 0, rewrite_fails = 0, locks = 0;
  };

  Worker(RunContext& ctx, std::size_t w)
      : ctx_(ctx), w_(w), prof_(ctx.cfg.profile ? &counters_.prof : nullptr),
        trace_(ctx, static_cast<int>(w)), in_(*ctx.split_rings[w]),
        drop_ring_(*ctx.drop_rings[w]),
        faults_(ctx.cfg.fault_seed + 0x9e37 * (w + 1)),
        fold_(ctx.cfg.nf.chain, &ctx.maglev), chunk_(kChunk) {
    // Sized before any stage runs, so the steady state stays
    // allocation-free; only this worker touches it.
    if (ctx.cfg.overlay.enabled && ctx.cfg.overlay.cache)
      cache_.resize(std::bit_ceil(
          std::max<std::size_t>(ctx.cfg.overlay.cache_slots, 1)));
  }

  void observe() {}
  Step step() {
    if (popped_ != 0) return process_chunk();
    if (deposited_ < kept_) return deposit();
    const std::size_t n = in_.try_pop_batch(chunk_.data(), kChunk);
    if (n == 0) {
      // The generator raises produce_done after its last push, so an empty
      // ring seen after it is empty for good.
      if (!ctx_.produce_done.load(std::memory_order_acquire) || !in_.empty())
        return Step::kInputDry;
      trace_.flush();
      ctx_.workers_done.fetch_add(1, std::memory_order_release);
      return Step::kDone;
    }
    if (prof_ != nullptr) {
      prof_->items += n;
      // Sampled queue pressure on this worker's input ring (consumer-side
      // size() is exact for already-published items).
      if ((++chunks_ & 31) == 0) {
        prof_->occupancy_sum += in_.size();
        ++prof_->occupancy_samples;
      }
    }
    popped_ = n;
    return Step::kProgress;
  }

  /// Drop the part of the chunk the buffer ring did not accept.
  void shed() {
    for (; deposited_ < kept_; ++deposited_) drop(chunk_[deposited_]);
  }

  StageCounters* profile() { return prof_; }
  const Counters& counters() const { return counters_; }

 private:
  // Process in place; compact survivors to the front of the chunk so one
  // deposit publishes them all.
  Step process_chunk() {
    std::size_t m = 0;
    for (std::size_t i = 0; i < popped_; ++i) {
      if (!process(chunk_[i])) continue;
      if (m != i) chunk_[m] = std::move(chunk_[i]);
      ++m;
    }
    // Runs never outlive their chunk.
    fold_.flush([this](const auto&... run) { merge_run(run...); });
    popped_ = 0;
    kept_ = m;
    deposited_ = 0;
    return deposit();
  }

  bool process(RtPacket& pkt) {
    trace_.event(trace::EventKind::kRingDequeue, pkt.seq, pkt.batch);
    if (!pkt.marker && pkt.skb) {
      build_skb(pkt);
      if (ctx_.cfg.overlay.enabled) decap(pkt);
    }
    if (pkt.cost_ns > 0) spin_ns(pkt.cost_ns);
    trace_.event(trace::EventKind::kStageExit, pkt.seq, pkt.batch,
                 /*aux=*/0xFF, static_cast<sim::Time>(pkt.cost_ns));
    if (!pkt.marker && ctx_.cfg.fault_drop_rate > 0.0 &&
        faults_.chance(ctx_.cfg.fault_drop_rate)) {
      drop(pkt);  // recycle the slab now
      return false;
    }
    if (ctx_.nf_on && !pkt.marker && pkt.skb) apply_nf(pkt);
    return true;
  }

  // Build the skb from the descriptor on the splitting core, as MFLOW's
  // IRQ splitting does (paper §IV): the generator passed on only the raw
  // frame, so the metadata is written by the core that processes the slab
  // next, not by the generator on lines a worker then pulls back. Fields
  // no rt stage changes (gro_segs, tcp_seq, ...) keep the defaults the
  // pool reset the slab to.
  void build_skb(RtPacket& pkt) {
    if (pkt.batch != flow_batch_) {
      flow_ = flow_of(ctx_.cfg, pkt.batch);
      flow_batch_ = pkt.batch;
    }
    net::Packet& skb = *pkt.skb;
    skb.payload_len = net::kTcpMss;
    skb.flow = flow_.key;
    skb.flow_id = flow_.id;
    skb.encapsulated = ctx_.cfg.overlay.enabled;
    skb.wire_seq = pkt.seq;
    skb.microflow_id = pkt.batch;
  }

  void decap(RtPacket& pkt) {
    net::Packet& skb = *pkt.skb;
    const std::size_t slot_mask = cache_.empty() ? 0 : cache_.size() - 1;
    if (!cache_.empty()) {
      CacheSlot& slot = cache_[skb.flow_id & slot_mask];
      if (slot.valid && slot.flow_id == skb.flow_id) {
        if (slot.epoch != pkt.epoch) {
          // Rescale epoch advanced past the entry: the decision is stale
          // by protocol, even though the bytes still match.
          slot.valid = false;
          ++counters_.invals;
        } else {
          const auto bytes = skb.buf.data();
          if (bytes.size() >= net::kVxlanOverhead &&
              bytes[kOuterSportOff] == slot.sport_hi &&
              bytes[kOuterSportOff + 1] == slot.sport_lo &&
              net::vxlan_splice_decap(skb, ctx_.cfg.overlay.vni)) {
            ++counters_.hits;
            return;
          }
        }
      }
    }
    // Slow path: full validating decap, then (re)install the entry with
    // this packet's outer template + epoch.
    const auto bytes = skb.buf.data();
    std::uint8_t hi = 0, lo = 0;
    if (bytes.size() > kOuterSportOff + 1) {
      hi = bytes[kOuterSportOff];
      lo = bytes[kOuterSportOff + 1];
    }
    const net::DecapResult res = net::vxlan_decap(skb);
    if (!res.ok || res.vni != ctx_.cfg.overlay.vni) {
      ++counters_.fails;
    } else if (!cache_.empty()) {
      ++counters_.misses;
      cache_[skb.flow_id & slot_mask] =
          CacheSlot{skb.flow_id, pkt.epoch, hi, lo, true};
    }
  }

  // NF chain over SURVIVORS only, so the merged state counts exactly the
  // delivered stream (drops upstream of the fold never enter it). Each run
  // of one flow within one micro-flow batch folds into a local delta and
  // merges into the table once: kSharedLock takes the shard mutex once per
  // run, the replicas pay one upsert per run.
  void apply_nf(RtPacket& pkt) {
    net::Packet& skb = *pkt.skb;
    ++counters_.nf_pkts;
    const std::uint16_t ext_port =
        fold_
            .add(skb.flow_id, pkt.batch, nf::view_of(skb),
                 [this](const auto&... run) { merge_run(run...); })
            .nat.ext_port;
    if (ctx_.nf_has_nat && ctx_.cfg.overlay.enabled && !skb.encapsulated &&
        ext_port != 0) {
      if (nf::nat_rewrite(ctx_.cfg.nf.chain, skb, ext_port))
        ++counters_.rewrites;
      else
        ++counters_.rewrite_fails;
    }
    trace_.event(trace::EventKind::kNfApply, pkt.seq, pkt.batch);
  }

  // The recency clock is the batch index, as for the churn flow table; ttl
  // is 0 so it only orders evictions, and upsert never refreshes recency,
  // so one upsert per run stamps entries exactly as one per packet would.
  void merge_run(net::FlowId fid, std::uint64_t batch,
                 const nf::FlowState& delta) {
    const auto now = static_cast<sim::Time>(batch);
    if (ctx_.nf_shared) {
      ++counters_.locks;
      ctx_.nf_shared_table->upsert_apply(
          fid, now, [&delta](nf::FlowState& st) { nf::merge(st, delta); });
    } else {
      nf::merge(ctx_.nf_tables[w_]->upsert(fid, now), delta);
    }
  }

  Step deposit() {
    const std::size_t n = ctx_.reassembler.deposit_batch(
        w_, chunk_.data() + deposited_, kept_ - deposited_);
    // Scalar metadata survives the move into the ring, so tracing off the
    // staged entries after the deposit is safe.
    for (std::size_t k = deposited_; k < deposited_ + n; ++k)
      trace_.event(trace::EventKind::kReasmHold, chunk_[k].seq,
                   chunk_[k].batch);
    deposited_ += n;
    return deposited_ < kept_ && n == 0 ? Step::kOutputFull : Step::kProgress;
  }

  // Drop-site slab return: per-worker SPSC ring first, CAS list only on
  // overflow (try_push moves only on success, so the fallback reset()
  // still owns the slab).
  void drop(RtPacket& pkt) {
    ctx_.dropped.fetch_add(1, std::memory_order_release);
    trace_.event(trace::EventKind::kDrop, pkt.seq, pkt.batch);
    if (!pkt.skb) return;
    if (drop_ring_.try_push(std::move(pkt.skb))) {
      ++counters_.ring_returns;
    } else {
      pkt.skb.reset();
      ++counters_.prof.recycle_cas_fallbacks;
    }
  }

  RunContext& ctx_;
  const std::size_t w_;
  Counters counters_;
  StageCounters* const prof_;
  ThreadTrace trace_;
  SpscRing<RtPacket>& in_;
  SpscRing<net::PacketPtr>& drop_ring_;
  util::Rng faults_;
  BatchFlow flow_;                // flow identity of flow_batch_
  std::uint64_t flow_batch_ = 0;  // batches are numbered from 1
  std::vector<CacheSlot> cache_;
  nf::RunFold fold_;
  std::vector<RtPacket> chunk_;
  std::size_t popped_ = 0;     // popped, not yet processed
  std::size_t kept_ = 0;       // survivors, compacted to the front
  std::size_t deposited_ = 0;  // survivors the buffer ring accepted
  std::uint64_t chunks_ = 0;
};

/// Batch-based merge + order verification. Gap-tolerant: a drop leaves a
/// hole in the seq space, so "in order" means survivor seqs strictly
/// increase (equivalent to exact 0..N-1 when nothing drops).
class Merger {
 public:
  struct Counters {
    StageCounters prof;
    std::uint64_t delivered = 0, ring_returns = 0;
    bool in_order = true;
  };

  explicit Merger(RunContext& ctx)
      : ctx_(ctx), prof_(ctx.cfg.profile ? &counters_.prof : nullptr),
        trace_(ctx, static_cast<int>(ctx.workers)),  // one past the workers
        out_(kChunk), spent_(kChunk) {}

  /// The worker-exit sample the next step() decides on: a schedule point
  /// of its own, always taken BEFORE the pop. If every worker had exited
  /// by then, all deposits happen-before the pop, so a dry pop proves the
  /// merge head empty for good. Sampled after the pop, a final deposit
  /// landing in between would be skipped by force_advance() and then
  /// discarded as a spent marker — a hang.
  void observe() {
    exits_ = ctx_.workers_done.load(std::memory_order_acquire);
  }
  Step step() {
    if (held_ != 0) return deliver();
    if (counters_.delivered + ctx_.dropped.load(std::memory_order_acquire) >=
        ctx_.total) {
      trace_.flush();
      return Step::kDone;
    }
    const std::size_t n = ctx_.reassembler.pop_ready_batch(out_.data(), kChunk);
    if (n == 0) {
      if (exits_ != ctx_.workers) return Step::kInputDry;
      // All producers drained: a dry micro-flow boundary — whether never
      // filled or emptied by drops — can be skipped.
      ctx_.reassembler.force_advance();
      return Step::kProgress;
    }
    if (prof_ != nullptr) {
      prof_->items += n;
      // Sampled fan-in backlog (sum of all buffer-ring sizes) — the
      // merge-side queue-pressure signal.
      if ((++pops_ & 31) == 0) {
        prof_->occupancy_sum += ctx_.reassembler.occupancy();
        ++prof_->occupancy_samples;
      }
    }
    held_ = n;
    return Step::kProgress;
  }
  void shed() {}  // never blocked on output

  StageCounters* profile() { return prof_; }
  const Counters& counters() const { return counters_; }

 private:
  Step deliver() {
    std::size_t s = 0;
    for (std::size_t k = 0; k < held_; ++k) {
      RtPacket& pkt = out_[k];
      if (pkt.seq < next_seq_floor_) counters_.in_order = false;
      next_seq_floor_ = pkt.seq + 1;
      ++counters_.delivered;
      trace_.event(trace::EventKind::kReasmRelease, pkt.seq, pkt.batch);
      if (ctx_.on_output) ctx_.on_output(pkt);
      if (pkt.skb) spent_[s++] = std::move(pkt.skb);
    }
    held_ = 0;
    // Copy-to-user done: hand the slabs back to the generator through the
    // recycle ring in one batched push. Overflow is fine — the handle's
    // destructor recycles through the pool free list instead.
    const std::size_t pushed =
        ctx_.recycle_ring.try_push_batch(spent_.data(), s);
    counters_.ring_returns += pushed;
    for (std::size_t k = pushed; k < s; ++k) {
      spent_[k].reset();
      ++counters_.prof.recycle_cas_fallbacks;
    }
    return Step::kProgress;
  }

  RunContext& ctx_;
  Counters counters_;
  StageCounters* const prof_;
  ThreadTrace trace_;
  std::size_t exits_ = 0;
  std::vector<RtPacket> out_;
  std::vector<net::PacketPtr> spent_;
  std::size_t held_ = 0;  // popped, not yet delivered
  std::uint64_t next_seq_floor_ = 0;
  std::uint64_t pops_ = 0;
};

/// One run: the shared context and its stages.
struct Pipeline {
  Pipeline(const EngineConfig& config, std::uint64_t total,
           CapacityControl& capacity, const RunContext::OutputFn& on_output)
      : ctx(config, total, capacity, on_output), generator(ctx), merger(ctx) {
    for (std::size_t w = 0; w < ctx.workers; ++w)
      workers.push_back(std::make_unique<Worker>(ctx, w));
  }

  /// Fold the stages' counters into the run's result once every stage is
  /// done. Wall time and pinning are the caller's.
  EngineResult result() const {
    EngineResult res;
    const Generator::Counters& g = generator.counters();
    const Merger::Counters& m = merger.counters();
    res.packets = m.delivered;
    res.packets_dropped = ctx.dropped.load(std::memory_order_acquire);
    res.batches_merged = ctx.reassembler.batches_merged();
    res.in_order = m.in_order && m.delivered + res.packets_dropped == ctx.total;
    res.pool_acquired = ctx.pool.acquired();
    res.pool_recycled = ctx.pool.recycled();
    res.pool_exhausted = ctx.pool.exhausted();
    res.rescales_applied = g.rescales_applied;
    res.active_workers_final =
        ctx.capacity.active.load(std::memory_order_acquire);
    // Recycle-fabric split: ring-path returns vs CAS-list fallbacks, summed
    // over every stage that touched a slab return path.
    res.recycle_ring_returns = m.ring_returns;
    res.recycle_cas_fallbacks =
        m.prof.recycle_cas_fallbacks + g.prof.recycle_cas_fallbacks;
    for (const auto& worker : workers) {
      const Worker::Counters& c = worker->counters();
      res.cache_hits += c.hits;
      res.cache_misses += c.misses;
      res.cache_invalidations += c.invals;
      res.decap_failures += c.fails;
      res.nf_packets += c.nf_pkts;
      res.nf_nat_rewrites += c.rewrites;
      res.nf_nat_rewrite_failures += c.rewrite_fails;
      res.nf_lock_acquires += c.locks;
      res.recycle_ring_returns += c.ring_returns;
      res.recycle_cas_fallbacks += c.prof.recycle_cas_fallbacks;
    }
    if (ctx.churn_table) {
      res.flow_table.peak = ctx.churn_table->peak_size();
      res.flow_table.expired = ctx.churn_table->expirations();
      res.flow_table.live = ctx.churn_table->size();
    }
    if (ctx.nf_on) {
      // Fold every table (shared, or one replica per worker) into the
      // merged per-flow state; the fold is exact because nf::FlowState is
      // a lattice.
      std::map<net::FlowId, nf::FlowState> merged;
      const auto fold = [&merged](net::FlowId fid, const nf::FlowState& st) {
        nf::merge(merged[fid], st);
      };
      if (ctx.nf_shared_table) ctx.nf_shared_table->for_each(fold);
      for (const auto& t : ctx.nf_tables) t->for_each(fold);
      res.nf_flows = merged.size();
      std::uint64_t h = 0;
      res.nf_state.reserve(merged.size());
      for (const auto& [fid, st] : merged) {
        h = nf::fold_digest(h, fid, st);
        res.nf_state.emplace_back(fid, st);
      }
      res.nf_state_digest = h;
    }
    if (ctx.cfg.profile) {
      res.profile.enabled = true;
      res.profile.workers = ctx.workers;
      res.profile.generator = g.prof;
      res.profile.consumer = m.prof;
      for (const auto& worker : workers)
        res.profile.worker.push_back(worker->counters().prof);
    }
    return res;
  }

  RunContext ctx;
  Generator generator;
  std::vector<std::unique_ptr<Worker>> workers;
  Merger merger;
};

}  // namespace mflow::rt
