// Every public header must be self-contained (include what it uses).
// This TU includes all of them in isolation order; compiling it is the
// test, plus a couple of smoke assertions so the binary is non-trivial.
#include "apps/deadlock_apps.h"
#include "apps/robot_app.h"
#include "apps/splash.h"
#include "bus/bus.h"
#include "bus/bus_config.h"
#include "deadlock/avoidance_baselines.h"
#include "deadlock/baselines.h"
#include "deadlock/daa.h"
#include "deadlock/meter.h"
#include "deadlock/pdda.h"
#include "hw/dau.h"
#include "hw/ddu.h"
#include "hw/ddu_trace.h"
#include "hw/socdmmu.h"
#include "hw/soclc.h"
#include "hw/synth.h"
#include "hw/vcd.h"
#include "hw/verilog_gen.h"
#include "hw/verilog_lint.h"
#include "mem/heap.h"
#include "mem/l1_cache.h"
#include "rag/dot.h"
#include "rag/generators.h"
#include "rag/oracle.h"
#include "rag/reduction.h"
#include "rag/state_matrix.h"
#include "rag/types.h"
#include "rtos/atalanta.h"
#include "rtos/devices.h"
#include "rtos/ipc.h"
#include "rtos/kernel.h"
#include "rtos/locks.h"
#include "rtos/memory_manager.h"
#include "rtos/program.h"
#include "rtos/resource_manager.h"
#include "rtos/service_costs.h"
#include "rtos/task.h"
#include "rtos/timeline.h"
#include "rtos/types.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/trace.h"
#include "soc/archi_gen.h"
#include "soc/config_io.h"
#include "soc/delta_framework.h"
#include "soc/mpsoc.h"
#include "soc/utilization.h"

#include <gtest/gtest.h>

namespace delta {
namespace {

TEST(Headers, AllPublicHeadersAreSelfContained) {
  // Compiling this translation unit is the real assertion.
  SUCCEED();
}

TEST(Headers, KeyConstantsAreSane) {
  EXPECT_EQ(sim::cycles_to_ns(1), 10.0);  // 100 MHz bus clock
  EXPECT_EQ(bus::BusTiming{}.first_word, 3u);
  EXPECT_EQ(hw::SocdmmuConfig{}.total_blocks * hw::SocdmmuConfig{}.block_bytes,
            16ULL * 1024 * 1024);  // the 16 MB L2 of §5.1
}

}  // namespace
}  // namespace delta
