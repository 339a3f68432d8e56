#include "trace/registry.hpp"

namespace mflow::trace {

void Registry::set_counter(std::string_view name, std::uint64_t value) {
  std::lock_guard lock(mu_);
  counters_[std::string(name)] = value;
}

void Registry::set_gauge(std::string_view name, double value) {
  std::lock_guard lock(mu_);
  gauges_[std::string(name)] = value;
}

bool Registry::remove_gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) return false;
  gauges_.erase(it);
  return true;
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard lock(mu_);
  Snapshot s;
  s.counters.insert(counters_.begin(), counters_.end());
  s.gauges.insert(gauges_.begin(), gauges_.end());
  return s;
}

void Registry::clear() {
  std::lock_guard lock(mu_);
  counters_.clear();
  gauges_.clear();
}

}  // namespace mflow::trace
