// Microbenchmarks for the real-thread engine: lock-free ring throughput
// (scalar vs batched, same-thread vs cross-thread) and the full
// split/process/merge pipeline at various worker counts.
//
// This is the CI perf-smoke bench: BENCH_micro_rt.json is compared against
// bench/baselines/BENCH_micro_rt.json by bench/compare_bench.py, so the
// case set and knobs here must stay stable (see docs/BENCHMARKS.md before
// renaming anything).
//
// NOTE: on a single-CPU host the multi-worker configurations time-slice, so
// packets/sec does not show parallel speedup here; the numbers demonstrate
// framework overhead (cost=0) and calibrated processing (cost=200ns), not
// scaling.
#include <chrono>
#include <iostream>
#include <thread>

#include "bench/harness.hpp"
#include "rt/engine.hpp"
#include "util/cli.hpp"

using namespace mflow;
using namespace mflow::rt;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Same-thread ring round trip: push/pop `n` items one at a time.
double ring_scalar_ops_per_sec(std::uint64_t n) {
  SpscRing<std::uint64_t> ring(1024);
  const double t0 = now_seconds();
  for (std::uint64_t i = 0; i < n; ++i) {
    (void)ring.try_push(i);
    volatile auto v = ring.try_pop();
    (void)v;
  }
  return static_cast<double>(n) / (now_seconds() - t0);
}

/// Same-thread ring round trip in batches of `b`.
double ring_batch_ops_per_sec(std::uint64_t n, std::size_t b) {
  SpscRing<std::uint64_t> ring(1024);
  std::vector<std::uint64_t> in(b), out(b);
  const double t0 = now_seconds();
  for (std::uint64_t i = 0; i < n; i += b) {
    (void)ring.try_push_batch(in.data(), b);
    volatile auto m = ring.try_pop_batch(out.data(), b);
    (void)m;
  }
  return static_cast<double>(n) / (now_seconds() - t0);
}

/// Producer thread -> consumer thread transfer of `n` items.
double ring_xthread_items_per_sec(std::uint64_t n, std::size_t batch) {
  SpscRing<std::uint64_t> ring(1024);
  const double t0 = now_seconds();
  std::jthread producer([&] {
    if (batch <= 1) {
      for (std::uint64_t i = 0; i < n; ++i)
        while (!ring.try_push(i)) std::this_thread::yield();
    } else {
      std::vector<std::uint64_t> buf(batch);
      std::uint64_t sent = 0;
      while (sent < n) {
        const std::size_t want =
            static_cast<std::size_t>(std::min<std::uint64_t>(batch, n - sent));
        std::size_t done = 0;
        while (done < want) {
          const std::size_t k =
              ring.try_push_batch(buf.data() + done, want - done);
          done += k;
          if (k == 0) std::this_thread::yield();
        }
        sent += want;
      }
    }
  });
  std::uint64_t got = 0;
  if (batch <= 1) {
    while (got < n) {
      if (ring.try_pop()) ++got;
      else std::this_thread::yield();
    }
  } else {
    std::vector<std::uint64_t> buf(batch);
    while (got < n) {
      const std::size_t k = ring.try_pop_batch(buf.data(), batch);
      if (k == 0) std::this_thread::yield();
      got += k;
    }
  }
  producer.join();
  return static_cast<double>(n) / (now_seconds() - t0);
}

/// Full pipeline run; returns delivered packets/sec.
double engine_pps(std::size_t workers, std::uint32_t cost_ns,
                  std::uint64_t total) {
  EngineConfig cfg;
  cfg.workers = workers;
  cfg.batch_size = 256;
  cfg.cost_ns_per_packet = cost_ns;
  Engine engine(cfg);
  const auto res = engine.run(total);
  if (!res.in_order || res.packets_dropped != 0) {
    std::cerr << "micro_rt: engine run violated order/conservation\n";
    std::exit(1);
  }
  return res.packets_per_second();
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::HarnessConfig hc;
  hc.bench_name = "micro_rt";
  hc.warmup = static_cast<int>(cli.get_int("warmup", 1));
  hc.repeats = static_cast<int>(cli.get_int("repeats", 5));
  hc.json_dir = cli.get("json-dir", ".");
  const std::uint64_t ring_items = 4'000'000;
  const std::uint64_t pkts_c0 = 200'000;   // cost=0: framework overhead
  const std::uint64_t pkts_c200 = 20'000;  // cost=200ns: calibrated work
  hc.config = {{"ring_items", std::to_string(ring_items)},
               {"packets_cost0", std::to_string(pkts_c0)},
               {"packets_cost200", std::to_string(pkts_c200)},
               {"batch_size", "256"},
               {"ring_capacity", "1024"}};
  bench::Harness h(hc);

  h.run_case("ring.scalar", "ops/s", true,
             [&] { return ring_scalar_ops_per_sec(ring_items); });
  h.run_case("ring.batch32", "ops/s", true,
             [&] { return ring_batch_ops_per_sec(ring_items, 32); });
  h.run_case("ring.xthread.scalar", "items/s", true,
             [&] { return ring_xthread_items_per_sec(ring_items / 4, 1); });
  h.run_case("ring.xthread.batch32", "items/s", true,
             [&] { return ring_xthread_items_per_sec(ring_items / 4, 32); });

  h.run_case("engine.w1.cost0", "pkts/s", true,
             [&] { return engine_pps(1, 0, pkts_c0); });
  h.run_case("engine.w2.cost0", "pkts/s", true,
             [&] { return engine_pps(2, 0, pkts_c0); });
  h.run_case("engine.w1.cost200", "pkts/s", true,
             [&] { return engine_pps(1, 200, pkts_c200); });
  h.run_case("engine.w2.cost200", "pkts/s", true,
             [&] { return engine_pps(2, 200, pkts_c200); });
  h.run_case("engine.w4.cost200", "pkts/s", true,
             [&] { return engine_pps(4, 200, pkts_c200); });

  h.finish(std::cout);
  return 0;
}
