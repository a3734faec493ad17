// Bridge from a finished Mpsoc to the rtos-agnostic profiler input.
//
// obs/critpath.h deliberately knows nothing about the kernel; this
// adapter copies the kernel's phase log (already obs::PhaseChanges) and
// the retained structured-trace events, and carries the resource names
// so contention entries read "IDCT", not "resource1". The horizon rule
// matches utilization_report(): the explicit argument, else the last
// task finish time, and the simulator clock only when no task finished.
#pragma once

#include "obs/critpath.h"
#include "soc/mpsoc.h"

namespace delta::soc {

/// Assemble the profiler input from a finished system.
[[nodiscard]] obs::ProfileInput profile_input(Mpsoc& soc,
                                              sim::Cycles horizon = 0);

/// Convenience: build_profile(profile_input(soc, horizon)).
[[nodiscard]] obs::ProfileReport profile_report(Mpsoc& soc,
                                                sim::Cycles horizon = 0);

}  // namespace delta::soc
