#include "soc/profile.h"

namespace delta::soc {

obs::ProfileInput profile_input(Mpsoc& soc, sim::Cycles horizon) {
  rtos::Kernel& k = soc.kernel();
  obs::ProfileInput in;
  in.horizon = horizon != 0 ? horizon : k.last_finish_time();
  if (in.horizon == 0) in.horizon = soc.simulator().now();

  for (rtos::TaskId id = 0; id < k.task_count(); ++id) {
    obs::ProfileTaskInfo info;
    info.name = k.task(id).name;
    info.pe = static_cast<std::uint16_t>(k.task(id).pe);
    in.tasks.push_back(std::move(info));
  }
  in.phases = k.transitions();
  in.events = soc.observer().trace.events();
  in.events_dropped = soc.observer().trace.dropped();
  for (const ResourceSpec& r : soc.config().resources)
    in.resource_names.push_back(r.name);
  return in;
}

obs::ProfileReport profile_report(Mpsoc& soc, sim::Cycles horizon) {
  return obs::build_profile(profile_input(soc, horizon));
}

}  // namespace delta::soc
