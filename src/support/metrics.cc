#include "support/metrics.h"

namespace cr::support {

std::map<std::string, double> MetricsRegistry::snapshot() const {
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) {
    out[name] = static_cast<double>(c.value());
  }
  return out;
}

uint64_t count_of(const std::map<std::string, double>& snapshot,
                  const std::string& name) {
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0 : static_cast<uint64_t>(it->second);
}

}  // namespace cr::support
