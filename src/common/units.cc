#include "common/units.h"

#include <cmath>
#include <cstdio>

#include "common/error.h"

namespace lopass {

bool EnergyIsSane(Energy e) { return std::isfinite(e.joules); }

void CheckEnergySane(Energy e, const char* what) {
  if (!EnergyIsSane(e)) {
    throw Error(std::string(what) +
                " produced a non-finite energy value (model misconfiguration "
                "or overflowing accumulation)");
  }
}

std::string FormatEnergy(Energy e) {
  const double j = e.joules;
  const double a = std::fabs(j);
  char buf[64];
  if (a == 0.0) {
    std::snprintf(buf, sizeof buf, "0.0");
  } else if (a >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.3fJ", j);
  } else if (a >= 1e-3) {
    std::snprintf(buf, sizeof buf, "%.3fmJ", j * 1e3);
  } else if (a >= 1e-6) {
    std::snprintf(buf, sizeof buf, "%.3fuJ", j * 1e6);
  } else if (a >= 1e-9) {
    std::snprintf(buf, sizeof buf, "%.3fnJ", j * 1e9);
  } else {
    std::snprintf(buf, sizeof buf, "%.3fpJ", j * 1e12);
  }
  return buf;
}

std::string FormatPercent(double percent) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.2f", percent);
  return buf;
}

}  // namespace lopass
