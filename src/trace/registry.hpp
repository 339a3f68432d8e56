// Named counter/gauge registry: a traced run's stats under `domain.metric`
// names ("nic.drops", "reasm.evictions", "latency.p50_us", ...). It is a
// report, not a live counter: run_scenario writes it once at the end of a
// run from the subsystems' own totals over the measurement window, and no
// tracepoint writes it. The only writers during a run are the control-plane
// and NF exporters, which refresh their gauges at tick / sweep rate.
// Readers take a snapshot() (ScenarioResult::stats).
//
// Every method takes one mutex, so calls from several threads are safe.
// Today only single-threaded code writes it: the DES and the reporting
// layer. The rt engine never touches a registry while its threads run; its
// counters live in per-stage structs folded into EngineResult after join.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace mflow::trace {

class Registry {
 public:
  /// Overwrite a counter with an externally computed total.
  void set_counter(std::string_view name, std::uint64_t value);
  /// Overwrite a gauge (point-in-time double).
  void set_gauge(std::string_view name, double value);

  /// Drop a gauge entirely (flow-state reclamation: exporters must stop
  /// reporting expired flows, not report them frozen at the last value).
  /// Returns false when the name was never registered.
  bool remove_gauge(std::string_view name);

  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;

    std::uint64_t counter(std::string_view name) const {
      auto it = counters.find(std::string(name));
      return it == counters.end() ? 0 : it->second;
    }
    double gauge(std::string_view name) const {
      auto it = gauges.find(std::string(name));
      return it == gauges.end() ? 0.0 : it->second;
    }
    bool empty() const { return counters.empty() && gauges.empty(); }
  };
  Snapshot snapshot() const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
};

}  // namespace mflow::trace
