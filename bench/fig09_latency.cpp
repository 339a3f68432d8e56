// Figure 9 reproduction: single-flow per-message latency under load, TCP and
// UDP, across message sizes and modes.
//
// Method (sockperf "overloaded" scenario): each case is first driven to its
// maximum sustainable throughput; the latency run then offers 90% of that
// capacity and reports mean / p50 / p99 message latency.
//
// Paper shape (64KB TCP vs vanilla overlay): MFLOW cuts median latency ~46%
// and p99 ~21%; a gap to native remains (the overlay path is still longer).
#include <iostream>

#include "experiment/report.hpp"
#include "experiment/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace mflow;

namespace {

// Methodology note: the paper drives each case to its own saturation point;
// on real hardware saturation queueing is bounded by ring/backlog sizes and
// drops, so per-packet latency still reflects the data path. In simulation,
// queue depth at saturation is bounded only by the TCP window / pacing, so
// we use the standard equal-load comparison instead: every mode is offered
// the same absolute load — `load_fraction` of the *vanilla overlay*
// capacity, the highest load all overlay modes can sustain. Differences are
// then pure data-path + queueing effects. (Documented in EXPERIMENTS.md.)
exp::ScenarioResult run_loaded(exp::Mode mode, std::uint8_t proto,
                               std::uint32_t size, sim::Time measure,
                               double vanilla_msgs_per_sec,
                               double load_fraction) {
  exp::ScenarioConfig cfg;
  cfg.mode = mode;
  cfg.protocol = proto;
  cfg.message_size = size;
  cfg.measure = measure;
  const int senders = proto == net::Ipv4Header::kProtoTcp ? 1 : 3;
  cfg.pace_per_message = static_cast<sim::Time>(
      1e9 * senders / (vanilla_msgs_per_sec * load_fraction));
  // Tracing feeds the per-phase attribution; sample every 8th packet per
  // flow to bound trace memory at these rates.
  cfg.trace.enabled = true;
  cfg.trace.sample_period = 8;
  return exp::run_scenario(cfg);
}

double probe_capacity_msgs(std::uint8_t proto, std::uint32_t size,
                           sim::Time measure) {
  exp::ScenarioConfig cfg;
  cfg.mode = exp::Mode::kVanilla;
  cfg.protocol = proto;
  cfg.message_size = size;
  cfg.measure = measure;
  const auto probe = exp::run_scenario(cfg);
  return probe.goodput_gbps * 1e9 / 8.0 / static_cast<double>(size);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto measure = sim::ms(cli.get_double("measure-ms", 30));
  const double load = cli.get_double("load", 0.9);

  std::map<std::pair<std::string, bool>, exp::ScenarioResult> at64k;

  for (std::uint8_t proto :
       {net::Ipv4Header::kProtoTcp, net::Ipv4Header::kProtoUdp}) {
    const bool is_tcp = proto == net::Ipv4Header::kProtoTcp;
    for (std::uint32_t size : {4096u, 65536u}) {
      util::Table table({"mode", "mean (us)", "p50 (us)", "p99 (us)",
                         "offered Gbps"});
      const double cap = probe_capacity_msgs(proto, size, measure);
      for (exp::Mode mode : exp::evaluation_modes()) {
        auto res = run_loaded(mode, proto, size, measure, cap, load);
        table.add({res.mode, util::Table::Cell(res.mean_latency_us(), 1),
                   util::Table::Cell(res.p50_latency_us(), 1),
                   util::Table::Cell(res.p99_latency_us(), 1),
                   util::Table::Cell(res.offered_gbps, 2)});
        if (size == 65536) at64k.insert({{res.mode, is_tcp}, std::move(res)});
      }
      table.print(std::cout, std::string("Fig 9 latency, ") +
                                 (is_tcp ? "TCP" : "UDP") + ", msg=" +
                                 std::to_string(size / 1024) + "KB @" +
                                 std::to_string(static_cast<int>(load * 100)) +
                                 "% load");
      std::cout << "\n";
    }
  }

  const auto& tvan = at64k.at({"vanilla-overlay", true});
  const auto& tmfl = at64k.at({"mflow", true});
  const auto& tnat = at64k.at({"native", true});
  const auto& uvan = at64k.at({"vanilla-overlay", false});
  const auto& umfl = at64k.at({"mflow", false});

  // Where the latency goes: per-phase attribution of the two headline cases.
  exp::print_phase_breakdown(std::cout,
                             "Per-packet phases, TCP 64KB, vanilla-overlay",
                             tvan);
  std::cout << "\n";
  exp::print_phase_breakdown(std::cout, "Per-packet phases, TCP 64KB, mflow",
                             tmfl);
  std::cout << "\n";

  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  exp::print_expectations(
      std::cout, "Fig 9 shape checks (64KB)",
      {
          {"TCP p50 mflow/vanilla", 0.54,
           ratio(tmfl.p50_latency_us(), tvan.p50_latency_us()), 0.5},
          {"TCP p99 mflow/vanilla", 0.79,
           ratio(tmfl.p99_latency_us(), tvan.p99_latency_us()), 0.5},
          {"TCP mflow above native (gap remains)", 1.5,
           ratio(tmfl.p50_latency_us(), tnat.p50_latency_us()), 1.0},
          {"UDP mean mflow/vanilla < 1", 0.6,
           ratio(umfl.mean_latency_us(), uvan.mean_latency_us()), 0.7},
      });
  return 0;
}
