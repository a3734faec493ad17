#include "apps/deadlock_apps.h"

#include "rtos/program.h"

namespace delta::apps {

using rtos::Program;

namespace {
constexpr rtos::ResourceId kVi = 0;    // q1
constexpr rtos::ResourceId kIdct = 1;  // q2
constexpr rtos::ResourceId kDsp = 2;   // q3
constexpr rtos::ResourceId kWi = 3;    // q4
}  // namespace

void build_jini_app(soc::Mpsoc& soc) {
  rtos::Kernel& k = soc.kernel();
  const sim::Cycles idct_frame = soc.processing_cycles(kIdct);  // ~23600

  // p1 (highest priority): grabs VI+IDCT at t1, streams a frame through
  // the IDCT, then releases the IDCT at t4 — the release whose re-grant
  // deadlocks the system.
  Program p1;
  p1.compute(2400)
      .request({kIdct, kVi})
      .compute(idct_frame)
      .release({kIdct})
      .compute(2500)
      .release({kVi});
  k.create_task("p1", 0, 1, std::move(p1));

  // p2: at t3 wants IDCT+WI (image conversion + transmit). Like p3 it
  // consumes the frame p1 is producing, so its request lands near the
  // end of p1's IDCT processing.
  Program p2;
  p2.compute(25900)
      .request({kIdct, kWi})
      .compute(9000)
      .release({kIdct, kWi});
  k.create_task("p2", 1, 2, std::move(p2));

  // p3: at t2 wants IDCT+WI to convert and transmit the incoming frame;
  // gets only WI.
  Program p3;
  p3.compute(25300)
      .request({kIdct, kWi})
      .compute(8000)
      .release({kIdct, kWi});
  k.create_task("p3", 2, 3, std::move(p3));

  // p4 (lowest): background DSP lookups — contributes detection
  // invocations but no deadlock involvement. Its final release falls
  // after the deadlock point, so the scenario performs exactly the ten
  // detection invocations the paper reports.
  Program p4;
  p4.compute(900)
      .request({kDsp})
      .compute(2400)
      .release({kDsp})
      .compute(22100)
      .request({kDsp})
      .compute(30000)
      .release({kDsp});
  k.create_task("p4", 3, 4, std::move(p4));
}

void build_gdl_app(soc::Mpsoc& soc) {
  rtos::Kernel& k = soc.kernel();
  const sim::Cycles idct_frame = soc.processing_cycles(kIdct);

  // Table 6: p1 takes q1+q2 at t1 and releases both at t4. The release
  // of q2 would deadlock if handed to p2 (G-dl); the avoider grants p3.
  Program p1;
  p1.compute(700).request({kVi, kIdct}).compute(idct_frame).release(
      {kVi, kIdct});
  k.create_task("p1", 0, 1, std::move(p1));

  Program p2;  // t3: requests q2 and q4
  p2.compute(4200).request({kIdct, kWi}).compute(4600).release(
      {kIdct, kWi});
  k.create_task("p2", 1, 2, std::move(p2));

  Program p3;  // t2: requests q2 and q4; gets q4 only
  p3.compute(2600).request({kIdct, kWi}).compute(5200).release(
      {kIdct, kWi});
  k.create_task("p3", 2, 3, std::move(p3));
}

void build_rdl_app(soc::Mpsoc& soc) {
  rtos::Kernel& k = soc.kernel();

  // Table 8. Requirements: p1 needs q1+q2, p2 needs q2+q3, p3 needs
  // q3+q1. Single requests arrive in the t1..t6 order; p1's request of
  // q2 at t6 closes the 3-cycle (R-dl) and p2 is asked to give up q2.
  Program p1;
  p1.compute(600)
      .request({kVi})          // t1: q1
      .compute(9000)
      .request({kIdct})        // t6: q2 -> R-dl avoided
      .compute(12000)          // t8: uses q1 and q2
      .release({kVi, kIdct});
  k.create_task("p1", 0, 1, std::move(p1));

  Program p2;
  p2.compute(1500)
      .request({kIdct})        // t2: q2
      .compute(4500)
      .request({kDsp})         // t4: q3 (pending)
      .compute(8600)           // t10: uses q2 and q3 after re-acquiring
      .release({kIdct, kDsp});
  k.create_task("p2", 1, 2, std::move(p2));

  Program p3;
  p3.compute(2600)
      .request({kDsp})         // t3: q3
      .compute(4800)
      .request({kVi})          // t5: q1 (pending)
      .compute(7200)           // t9: uses q1 and q3
      .release({kDsp, kVi});
  k.create_task("p3", 2, 3, std::move(p3));
}

DeadlockAppReport run_deadlock_app(soc::Mpsoc& soc, sim::Cycles limit) {
  soc.run(limit);
  rtos::Kernel& k = soc.kernel();
  DeadlockAppReport r;
  r.deadlock_detected = k.deadlock_detected();
  r.detection_time = k.deadlock_time();
  r.all_finished = k.all_finished();
  r.app_run_time =
      k.deadlock_detected() ? k.deadlock_time() : k.last_finish_time();
  r.algorithm_avg_cycles = k.strategy().algorithm_times().mean();
  r.invocations = k.strategy().invocations();
  return r;
}

}  // namespace delta::apps
