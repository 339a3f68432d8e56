// rt::PacketPool: RAII slab recycling, exhaustion backpressure, loud
// failure on ownership bugs, and the pool's headline invariant — the rt
// engine's steady state performs ZERO heap allocations. The whole binary
// runs with a counting global operator new (tests/alloc_count.cpp) so the
// guard tests can diff the allocation counter across a steady-state window.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "alloc_count.hpp"
#include "rt/engine.hpp"
#include "rt/pool.hpp"

using namespace mflow;
using rt::PacketPool;
using rt::PoolConfig;

namespace {
// Stored to, so the compiler cannot elide the allocation under test.
void* volatile g_sink = nullptr;
}  // namespace

// The guards below are only as good as the counter: an over-aligned type
// (the rt stage objects are alignas(64)) goes through the align_val_t
// overloads, which must count too.
TEST(CountingAllocator, OverAlignedNewIsCounted) {
  struct alignas(64) Line {
    char bytes[64];
  };
  const std::uint64_t before = test::allocations();
  auto line = std::make_unique<Line>();
  g_sink = line.get();
  EXPECT_EQ(test::allocations(), before + 1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(line.get()) % alignof(Line), 0u);
  auto lines = std::make_unique<Line[]>(3);
  g_sink = lines.get();
  EXPECT_EQ(test::allocations(), before + 2);
}

TEST(PacketPool, ExhaustionReturnsNullNotAllocation) {
  PacketPool pool(PoolConfig{.slabs = 4});
  std::vector<net::PacketPtr> held;
  for (int i = 0; i < 4; ++i) {
    auto p = pool.acquire();
    ASSERT_NE(p, nullptr);
    held.push_back(std::move(p));
  }
  EXPECT_EQ(pool.in_use(), 4u);
  // Pool dry: the handle is null and the miss is counted — the caller
  // backpressures, the pool NEVER falls back to the heap.
  const std::uint64_t allocs_before = test::allocations();
  EXPECT_EQ(pool.acquire(), nullptr);
  EXPECT_EQ(pool.acquire(), nullptr);
  EXPECT_EQ(test::allocations(), allocs_before);
  EXPECT_EQ(pool.exhausted(), 2u);
  // Releasing one slab makes the next acquire succeed again.
  held.pop_back();
  auto p = pool.acquire();
  EXPECT_NE(p, nullptr);
  held.push_back(std::move(p));
  EXPECT_EQ(pool.acquired(), 5u);
  held.clear();
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.recycled(), 5u);
}

TEST(PacketPool, RecycledPacketsAreFullyReset) {
  PacketPool pool(PoolConfig{.slabs = 2});
  net::Packet* first_addr = nullptr;
  const net::FlowKey flow{net::Ipv4Addr(10, 0, 1, 2),
                          net::Ipv4Addr(10, 0, 1, 3), 40000, 5001,
                          net::Ipv4Header::kProtoTcp};
  std::size_t dirty_capacity = 0;
  {
    auto pkt = net::make_tcp_segment(pool.acquire(), flow, 1448, 1448);
    ASSERT_NE(pkt, nullptr);
    first_addr = pkt.get();
    // Dirty every metadata field and the buffer (headroom consumed by the
    // pushed Ethernet header, bytes appended for IP/TCP).
    net::vxlan_encap(*pkt, net::Ipv4Addr(192, 168, 0, 1),
                     net::Ipv4Addr(192, 168, 0, 2), 7);
    pkt->flow_id = 9;
    pkt->wire_seq = 123;
    pkt->message_id = 77;
    pkt->message_bytes = 65536;
    pkt->skb_allocated = true;
    pkt->t_wire = 42;
    pkt->gro_segs = 3;
    pkt->microflow_id = 5;
    dirty_capacity = pkt->buf.capacity();
    EXPECT_LT(pkt->buf.headroom(), 64u);
    EXPECT_GT(pkt->buf.size(), 0u);
  }  // handle death -> recycle
  EXPECT_EQ(pool.in_use(), 0u);

  // LIFO free list: the next acquire returns the same slab, reset to the
  // just-constructed state but with its buffer capacity preserved.
  auto again = pool.acquire();
  ASSERT_EQ(again.get(), first_addr);
  EXPECT_EQ(again->buf.size(), 0u);
  EXPECT_EQ(again->buf.headroom(), 64u);
  EXPECT_GE(again->buf.capacity(), dirty_capacity);
  EXPECT_EQ(again->payload_len, 0u);
  EXPECT_EQ(again->flow, net::FlowKey{});
  EXPECT_EQ(again->flow_id, 0u);
  EXPECT_FALSE(again->encapsulated);
  EXPECT_EQ(again->wire_seq, 0u);
  EXPECT_EQ(again->tcp_seq, 0u);
  EXPECT_EQ(again->message_id, 0u);
  EXPECT_EQ(again->message_bytes, 0u);
  EXPECT_FALSE(again->skb_allocated);
  EXPECT_EQ(again->t_wire, 0);
  EXPECT_EQ(again->gro_segs, 1u);
  EXPECT_EQ(again->microflow_id, 0u);
}

TEST(PacketPool, SlabReuseDoesNotAllocate) {
  PacketPool pool(PoolConfig{.slabs = 2});
  const net::FlowKey flow{net::Ipv4Addr(10, 0, 1, 2),
                          net::Ipv4Addr(10, 0, 1, 3), 40000, 5001,
                          net::Ipv4Header::kProtoTcp};
  // Warm once (the first build may grow the slab buffer to its watermark).
  { auto p = net::make_tcp_segment(pool.acquire(), flow, 0, 1448); }
  const std::uint64_t before = test::allocations();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    auto p = net::make_tcp_segment(pool.acquire(), flow, i * 1448, 1448);
    ASSERT_NE(p, nullptr);
  }
  EXPECT_EQ(test::allocations(), before);
}

using PacketPoolDeathTest = ::testing::Test;

TEST(PacketPoolDeathTest, DoubleReleaseAborts) {
  EXPECT_DEATH(
      {
        PacketPool pool(PoolConfig{.slabs = 2});
        auto handle = pool.acquire();
        net::Packet* raw = handle.get();
        handle.reset();     // first release: legal
        pool.recycle(raw);  // second release of the same slab: abort
      },
      "double release");
}

TEST(PacketPoolDeathTest, ForeignPacketAborts) {
  EXPECT_DEATH(
      {
        PacketPool pool(PoolConfig{.slabs = 2});
        net::Packet stack_pkt;
        pool.recycle(&stack_pkt);
      },
      "foreign packet");
}

TEST(PacketPoolDeathTest, LeakedSlabAbortsAtPoolDestruction) {
  EXPECT_DEATH(
      {
        auto pool = std::make_unique<PacketPool>(PoolConfig{.slabs = 2});
        auto handle = pool->acquire();
        net::Packet* leaked = handle.release();  // escape the RAII handle
        pool.reset();                            // slab still out -> abort
        (void)leaked;
      },
      "still in use");
}

namespace {

/// Runs `cfg` for `total` packets (lossless, two rescales expected) and
/// returns the allocations any thread made while the consumer delivered
/// seqs [from, to) — the steady-state window.
std::uint64_t steady_state_allocs(const rt::EngineConfig& cfg,
                                  std::uint64_t total, std::uint64_t from,
                                  std::uint64_t to) {
  std::atomic<std::uint64_t> at_start{0}, at_end{0};
  std::atomic<std::uint64_t> missing_skb{0};
  const auto res = rt::Engine(cfg).run(total, [&](const rt::RtPacket& pkt) {
    if (!pkt.skb) missing_skb.fetch_add(1, std::memory_order_relaxed);
    if (pkt.seq == from)
      at_start.store(test::allocations(), std::memory_order_relaxed);
    else if (pkt.seq == to)
      at_end.store(test::allocations(), std::memory_order_relaxed);
  });
  EXPECT_TRUE(res.in_order);
  EXPECT_EQ(res.packets, total);
  EXPECT_EQ(res.packets_dropped, 0u);
  EXPECT_EQ(res.rescales_applied, 2u);
  EXPECT_EQ(res.decap_failures, 0u);
  EXPECT_EQ(missing_skb.load(), 0u);
  EXPECT_GT(res.pool_acquired, 0u);
  if (cfg.overlay.cache) {
    EXPECT_GT(res.cache_hits, 0u);
    EXPECT_GT(res.cache_invalidations, 0u);  // the rescales bit
  }
  if (cfg.nf.enabled) {
    EXPECT_EQ(res.nf_packets, total);
  }
  return at_end.load() - at_start.load();
}

}  // namespace

// The tentpole invariant: once the rt pipeline reaches steady state, NO
// thread touches the global allocator — packets live in pool slabs, rings
// move handles, recycling is ring-based. The window [2000, 18000) skips
// engine startup (thread spawn, ring/pool construction) and shutdown.
// Two runtime rescales land INSIDE the window: epoch messages ride the
// merger's pre-sized internal ring and the flush markers are plain stack
// values, so a live degree change must not allocate either.
TEST(PacketPool, EngineSteadyStateIsAllocationFree) {
  rt::EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 64;
  cfg.cost_ns_per_packet = 0;
  cfg.rescales = {{6000, 1}, {11000, 2}};
  // Zero allocations across 16k steady-state packets, from ANY thread.
  EXPECT_EQ(steady_state_allocs(cfg, 20000, 2000, 18000), 0u)
      << "rt hot path allocated between seq 2000 and 18000";
}

// The acceptance bar for the fast-path cache: overlay mode builds real
// VXLAN bytes into every slab (the first of each micro-flow batch through
// the header builders, the rest copied from its template), workers probe
// per-worker cache tables and splice on hits — all of it inside the same
// zero-allocation envelope. Cache tables are sized before thread spawn;
// encap and template copies stay within the slab's fixed byte reserve;
// rescale epochs invalidate entries without touching the heap. The NF
// variants add nat->fw->lb: each run's state folds into a stack-resident
// delta and merges into the shared table (one upsert_apply) or the
// worker's replica (one upsert). The NF variants use an odd flow count,
// so under any worker mapping every replica meets every flow.
TEST(PacketPool, OverlayCachedSteadyStateIsAllocationFree) {
  rt::EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 64;
  cfg.cost_ns_per_packet = 0;
  cfg.rescales = {{6000, 1}, {11000, 2}};
  cfg.overlay.enabled = true;
  cfg.overlay.cache = true;
  cfg.overlay.flows = 8;
  EXPECT_EQ(steady_state_allocs(cfg, 20000, 2000, 18000), 0u)
      << "overlay fast path allocated between seq 2000 and 18000";
  cfg.overlay.flows = 7;
  cfg.nf.enabled = true;
  cfg.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                        nf::Kind::kLoadBalancer};
  for (const auto strat : {nf::Strategy::kSharedLock, nf::Strategy::kScr}) {
    cfg.nf.strategy = strat;
    EXPECT_EQ(steady_state_allocs(cfg, 20000, 2000, 18000), 0u)
        << "overlay + nat->fw->lb (" << nf::strategy_name(strat)
        << ") allocated between seq 2000 and 18000";
  }
}

// The rt-churn-lock shape: metadata-only packets, a fresh flow every few
// batches registered in the churn flow table and swept out when idle, and
// nat->fw->lb under the shared lock. Flows keep arriving, so the window
// opens once both tables hold their steady population: the churn table's
// live set is bounded by its ttl (expired slots are reused, and the sweep
// drops values in place), and the NF table runs at its capacity, evicting
// its oldest flow for each new one — slot reuse, no growth.
TEST(PacketPool, ChurnLockSteadyStateIsAllocationFree) {
  rt::EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 64;
  cfg.cost_ns_per_packet = 0;
  cfg.rescales = {{20000, 1}, {30000, 2}};
  cfg.flow_table.enabled = true;
  cfg.flow_table.flow_lifetime_batches = 2;
  cfg.flow_table.ttl_batches = 32;
  cfg.flow_table.sweep_every = 8;
  // One shard keeps the churn table's live set (and so its storage
  // high-water mark) deterministic; a small NF capacity has every shard
  // of the shared table evicting well before the window.
  cfg.flow_table.shards = 1;
  cfg.nf.enabled = true;
  cfg.nf.strategy = nf::Strategy::kSharedLock;
  cfg.nf.shared_shards = 8;
  cfg.nf.state_capacity = 32;
  cfg.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                        nf::Kind::kLoadBalancer};
  EXPECT_EQ(steady_state_allocs(cfg, 48000, 16000, 44000), 0u)
      << "churn + nat->fw->lb (lock) allocated between seq 16000 and 44000";
}

// The churn shape again, with tables that never fill: no ttl expiry and
// NF capacity to spare, so each table meets new flows until the run
// ends. The engine reserves them for the run's flows before any stage
// starts, so the whole run is allocation-free from its first delivered
// packet: a table grown mid-run would allocate on whichever thread met a
// shard's flows first, and the run's memory would vary from run to run.
TEST(PacketPool, ChurnLockGrowingTablesNeverAllocate) {
  rt::EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 64;
  cfg.cost_ns_per_packet = 0;
  cfg.rescales = {{20000, 1}, {30000, 2}};
  cfg.flow_table.enabled = true;
  cfg.flow_table.flow_lifetime_batches = 2;
  cfg.nf.enabled = true;
  cfg.nf.strategy = nf::Strategy::kSharedLock;
  cfg.nf.chain.chain = {nf::Kind::kNat, nf::Kind::kFirewall,
                        nf::Kind::kLoadBalancer};
  EXPECT_EQ(steady_state_allocs(cfg, 48000, 0, 47999), 0u)
      << "churn + nat->fw->lb (lock) allocated while its tables grew";
}

// Pool smaller than the packets in flight: the generator must backpressure
// on slab exhaustion (recycle-ring + pool both dry) and still deliver
// everything in order, rather than allocating or deadlocking.
TEST(PacketPool, TinyPoolBackpressuresLosslessAndOrdered) {
  rt::EngineConfig cfg;
  cfg.workers = 2;
  cfg.batch_size = 8;
  cfg.ring_capacity = 16;
  cfg.cost_ns_per_packet = 0;
  cfg.pool_capacity = 64;  // far fewer slabs than the rings could hold
  const auto res = rt::Engine(cfg).run(20000);
  EXPECT_EQ(res.packets, 20000u);
  EXPECT_EQ(res.packets_dropped, 0u);
  EXPECT_TRUE(res.in_order);
  EXPECT_GT(res.pool_acquired, 0u);
}
