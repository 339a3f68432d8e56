// Micro-benchmarks for MFLOW's own mechanisms: the batch assigner, the
// reassembler's deposit/merge cycle, and the simulator's event loop.
// Emits BENCH_micro_mflow.json via bench::Harness; no baseline in
// bench/baselines/ tracks it.
#include <chrono>
#include <iostream>

#include "bench/harness.hpp"
#include "core/reassembler.hpp"
#include "core/splitter.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"

using namespace mflow;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

volatile std::uint64_t g_sink;  // defeats dead-code elimination

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::HarnessConfig hc;
  hc.bench_name = "micro_mflow";
  hc.warmup = static_cast<int>(cli.get_int("warmup", 1));
  hc.repeats = static_cast<int>(cli.get_int("repeats", 5));
  hc.json_dir = cli.get("json-dir", ".");
  const std::uint64_t n = cli.get_int("iters", 2'000'000);
  hc.config = {{"iters", std::to_string(n)}};
  bench::Harness h(hc);

  for (const std::uint32_t batch : {8u, 256u}) {
    h.run_case("BM_BatchAssigner/" + std::to_string(batch), "ops/s", true,
               [&] {
                 core::MflowConfig cfg;
                 cfg.batch_size = batch;
                 core::BatchAssigner assigner(cfg);
                 const auto t0 = Clock::now();
                 for (std::uint64_t i = 0; i < n; ++i)
                   g_sink = assigner.assign(1, 1).target_core;
                 return static_cast<double>(n) / seconds_since(t0);
               });
  }

  // Deposit and merge 1024 packets of one flow; only the merge cycle is
  // timed, not building the packets.
  constexpr std::uint32_t kPackets = 1024;
  const std::uint64_t cycles = std::max<std::uint64_t>(n / 2000, 1);
  for (const std::uint32_t batch : {8u, 64u, 256u}) {
    h.run_case(
        "BM_ReassemblerCycle/" + std::to_string(batch), "items/s", true, [&] {
          stack::CostModel costs;
          const net::FlowKey flow{net::Ipv4Addr(1, 1, 1, 1),
                                  net::Ipv4Addr(2, 2, 2, 2), 1, 2,
                                  net::Ipv4Header::kProtoUdp};
          double timed = 0.0;
          for (std::uint64_t c = 0; c < cycles; ++c) {
            core::Reassembler ra(costs);
            std::vector<net::PacketPtr> pkts;
            std::uint64_t b = 0;
            for (std::uint32_t i = 0; i < kPackets; ++i) {
              if (i % batch == 0) {
                ++b;
                ra.note_batch_open(1, b);
              }
              ra.note_dispatch(1, b, 1);
              auto p = net::make_udp_datagram(flow, 100);
              p->flow_id = 1;
              p->wire_seq = i;
              p->microflow_id = b;
              pkts.push_back(std::move(p));
            }
            const auto t0 = Clock::now();
            for (auto& p : pkts) ra.deposit(std::move(p), 2);
            std::uint64_t merged = 0;
            while (auto p = ra.pop_ready()) ++merged;
            timed += seconds_since(t0);
            g_sink = merged;
          }
          return static_cast<double>(cycles * kPackets) / timed;
        });
  }

  // Schedule and fire 1000 events per simulator.
  constexpr int kEvents = 1000;
  const std::uint64_t loops = std::max<std::uint64_t>(n / 2000, 1);
  h.run_case("BM_SimulatorEventLoop", "items/s", true, [&] {
    const auto t0 = Clock::now();
    for (std::uint64_t l = 0; l < loops; ++l) {
      sim::Simulator sim;
      std::uint64_t fired = 0;
      for (int i = 0; i < kEvents; ++i) sim.at(i, [&fired] { ++fired; });
      sim.run();
      g_sink = fired;
    }
    return static_cast<double>(loops * kEvents) / seconds_since(t0);
  });

  h.finish(std::cout);
  return 0;
}
