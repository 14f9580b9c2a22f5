#include "report.h"

#include <charconv>
#include <cmath>

namespace urbane::perfbench {

std::string FormatNumber(double value, double missed_value) {
  if (!std::isfinite(value)) value = missed_value;
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string ResultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics,
                       double missed_value) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value, missed_value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  return line;
}

std::string TallyLine(const std::string& what, const OpTally& tally) {
  return what + ": attempted=" + std::to_string(tally.attempted) +
         " ok=" + std::to_string(tally.ok) +
         " refused=" + std::to_string(tally.refused) +
         " failed=" + std::to_string(tally.failed);
}

}  // namespace urbane::perfbench
