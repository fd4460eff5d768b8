#include "apps/app.h"

#include "common/error.h"
#include "dsl/lower.h"

namespace lopass::apps {

std::vector<Application> AllApplications() {
  std::vector<Application> apps;
  apps.push_back(Make3d());
  apps.push_back(MakeMpg());
  apps.push_back(MakeCkey());
  apps.push_back(MakeDigs());
  apps.push_back(MakeEngine());
  apps.push_back(MakeTrick());
  return apps;
}

Application GetApplication(const std::string& name) {
  for (Application& a : AllApplications()) {
    if (a.name == name) return a;
  }
  throw Error("unknown application '" + name + "'");
}

core::PartitionResult RunApplication(const Application& app, int scale) {
  if (scale <= 0) scale = app.full_scale;
  dsl::LoweredProgram prog = dsl::Compile(app.dsl_source);
  core::Partitioner partitioner(prog.module, prog.regions, app.options);
  return partitioner.Run(app.workload(scale));
}

}  // namespace lopass::apps
