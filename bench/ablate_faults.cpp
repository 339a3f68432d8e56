// Ablation: packet loss vs micro-flow batch size.
//
// The paper's reassembler assumes the splitting-core -> merge-point handoff
// is lossless; this sweep injects drops there (splitting-queue deposit and
// inter-core handoff) and measures what loss tolerance costs. Goodput,
// recovered segments, evictions, and late (out-of-order) deliveries together
// show the degradation staying graceful — the seed behaviour was a permanent
// per-flow wedge on the first loss.
//
// The sweep runs UDP (sockperf-style, device scaling): with no transport
// retransmission, goodput degrades in proportion to the injected loss, so
// the merge layer's own behaviour is visible. Under TCP the go-back-N
// sender model collapses offered load at these loss rates (every hole costs
// a full RTO), drowning the signal this ablation is after.
#include <iostream>
#include <string>

#include "experiment/report.hpp"
#include "experiment/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace mflow;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto measure = sim::ms(cli.get_double("measure-ms", 25));
  const double corrupt = cli.get_double("corrupt", 0.0);
  // A slice of packets delayed past the eviction timeout: the only way a
  // loss reaches the merge point unannounced (drops at these points are
  // retracted synchronously), so this is what makes the eviction backstop
  // and its recovery latency visible in the sweep.
  const double delay = cli.get_double("delay", 0.001);

  exp::ScenarioResult phase_case;
  for (std::uint32_t batch : {32u, 256u, 1024u}) {
    util::Table table({"loss %", "goodput", "offered", "recovered segs",
                       "evictions", "recovery mean (us)", "late deliveries",
                       "ooo arrivals", "p99 latency (us)"});
    for (double loss : {0.0, 0.001, 0.01, 0.05}) {
      exp::ScenarioConfig cfg;
      cfg.mode = exp::Mode::kMflow;
      cfg.protocol = net::Ipv4Header::kProtoUdp;
      cfg.message_size = 1448;  // one datagram per message: per-packet loss
                                // costs one message, not a whole 64K batch
      cfg.measure = measure;
      core::MflowConfig mcfg = core::udp_device_scaling_config();
      mcfg.batch_size = batch;
      cfg.mflow = mcfg;
      cfg.faults.split_queue.drop = loss;
      cfg.faults.split_queue.delay = delay;
      cfg.faults.split_queue.delay_ns = sim::ms(2);  // > eviction timeout
      // Corruption goes on the split queue: in MFLOW mode the splitter hook
      // owns stage transitions, so the generic handoff point never fires.
      cfg.faults.split_queue.corrupt = corrupt;
      cfg.faults.nic_ring.drop = loss / 2;
      cfg.trace.enabled = true;
      cfg.trace.sample_period = 8;
      const auto res = exp::run_scenario(cfg);
      table.add({util::Table::Cell(loss * 100.0, 2),
                 util::fmt_gbps(res.goodput_gbps),
                 util::fmt_gbps(res.offered_gbps),
                 res.drops_recovered,
                 res.evictions,
                 util::Table::Cell(res.recovery_latency_ns.mean() / 1000.0, 1),
                 res.late_deliveries,
                 res.ooo_arrivals,
                 util::Table::Cell(res.p99_latency_us(), 1)});
      if (batch == 256 && loss == 0.05) phase_case = res;
    }
    table.print(std::cout,
                "Ablation: injected loss, batch size " + std::to_string(batch));
    std::cout << "\n";
  }
  // Where the surviving packets spend their time under loss: the eviction
  // backstop shows up as a fat reasm_hold tail.
  exp::print_phase_breakdown(std::cout,
                             "Per-packet phases at 5% loss, batch 256",
                             phase_case);
  exp::print_counters(std::cout, "Trace registry, 5% loss, batch 256",
                      phase_case);
  return 0;
}
