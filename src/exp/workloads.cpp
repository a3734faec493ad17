#include "exp/workloads.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "apps/deadlock_apps.h"
#include "apps/robot_app.h"
#include "apps/splash.h"
#include "rtos/kernel.h"

namespace delta::exp {

Workload mixed_workload() {
  Workload w;
  w.name = "mixed";
  w.build = [](soc::Mpsoc& soc, sim::Rng& rng) {
    rtos::Kernel& k = soc.kernel();
    const rtos::ResourceId idct = soc.resource("IDCT");
    const rtos::ResourceId dsp = soc.resource("DSP");
    for (int t = 0; t < 4; ++t) {
      rtos::Program p;
      p.reserve(4 * 8);  // four rounds of eight ops
      for (int i = 0; i < 4; ++i) {
        p.alloc(4096, "work")
            .request({t % 2 ? dsp : idct})
            .lock(0)
            .compute(500 + rng.below(200))
            .unlock(0)
            .compute(1000 + rng.below(400))
            .release({t % 2 ? dsp : idct})
            .free("work");
      }
      k.create_task("task" + std::to_string(t + 1),
                    static_cast<std::size_t>(t), t + 1, std::move(p),
                    static_cast<sim::Cycles>(200 * t + rng.below(200)));
    }
  };
  return w;
}

Workload random_workload(int rounds) {
  Workload w;
  w.name = "random";
  w.build = [rounds](soc::Mpsoc& soc, sim::Rng& rng) {
    rtos::Kernel& k = soc.kernel();
    const rtos::KernelConfig& kc = k.config();
    const std::size_t resources = kc.resource_count;
    if (resources < 2)
      throw std::invalid_argument(
          "random workload needs >= 2 resources in the config");
    for (rtos::TaskId t = 0; t < kc.max_tasks; ++t) {
      rtos::Program p;
      p.reserve(6 * static_cast<std::size_t>(std::max(rounds, 0)));
      for (int round = 0; round < rounds; ++round) {
        const rtos::ResourceId a = rng.below(resources);
        rtos::ResourceId b = rng.below(resources);
        if (b == a) b = (b + 1) % resources;
        p.compute(100 + rng.below(300))
            .request({a})
            .compute(80 + rng.below(200))
            .request({b})
            .compute(150 + rng.below(400))
            .release({a, b});
      }
      k.create_task("t" + std::to_string(t), t % kc.pe_count,
                    static_cast<rtos::Priority>(t + 1), std::move(p),
                    rng.below(500));
    }
  };
  return w;
}

Workload jini_workload() {
  Workload w;
  w.name = "jini";
  w.build = [](soc::Mpsoc& soc, sim::Rng&) { apps::build_jini_app(soc); };
  return w;
}

Workload gdl_workload() {
  Workload w;
  w.name = "gdl";
  w.build = [](soc::Mpsoc& soc, sim::Rng&) { apps::build_gdl_app(soc); };
  return w;
}

Workload rdl_workload() {
  Workload w;
  w.name = "rdl";
  w.build = [](soc::Mpsoc& soc, sim::Rng&) { apps::build_rdl_app(soc); };
  return w;
}

Workload robot_workload() {
  Workload w;
  w.name = "robot";
  w.tune = [](soc::MpsocConfig& mc) {
    mc.lock_ceilings = apps::robot_lock_ceilings();
  };
  w.build = [](soc::Mpsoc& soc, sim::Rng&) { apps::build_robot_app(soc); };
  return w;
}

Workload splash_workload(const std::string& kernel) {
  // Run the real kernel once, host-side; every cell replays the trace.
  auto trace = std::make_shared<apps::SplashTrace>();
  if (kernel == "lu") {
    *trace = apps::run_lu_kernel();
  } else if (kernel == "fft") {
    *trace = apps::run_fft_kernel();
  } else if (kernel == "radix") {
    *trace = apps::run_radix_kernel();
  } else {
    throw std::invalid_argument("splash_workload: unknown kernel '" +
                                kernel + "' (want lu, fft or radix)");
  }
  if (!trace->verified)
    throw std::runtime_error("splash_workload: " + kernel +
                             " self-check failed");
  Workload w;
  w.name = "splash-" + kernel;
  w.build = [trace](soc::Mpsoc& soc, sim::Rng&) {
    soc.kernel().create_task(trace->name, 0, 1, trace->to_program());
  };
  return w;
}

Workload find_workload(const std::string& name) {
  if (name == "mixed") return mixed_workload();
  if (name == "random") return random_workload();
  if (name == "jini") return jini_workload();
  if (name == "gdl") return gdl_workload();
  if (name == "rdl") return rdl_workload();
  if (name == "robot") return robot_workload();
  if (name.rfind("splash-", 0) == 0) return splash_workload(name.substr(7));
  throw std::invalid_argument("find_workload: unknown workload '" + name +
                              "'");
}

std::vector<std::string> workload_names() {
  return {"mixed", "random",    "jini",       "gdl",         "rdl",
          "robot", "splash-lu", "splash-fft", "splash-radix"};
}

std::function<void(soc::MpsocConfig&)> generic_resources(std::size_t n) {
  return [n](soc::MpsocConfig& mc) {
    mc.resources.clear();
    for (std::size_t i = 0; i < n; ++i)
      mc.resources.push_back({"q" + std::to_string(i + 1), 0});
  };
}

}  // namespace delta::exp
