// Shared allocation through the kernel (op::AllocShared) on both
// backends.
#include <gtest/gtest.h>

#include "rtos/kernel.h"

namespace delta::rtos {
namespace {

struct World {
  sim::Simulator sim;
  bus::SharedBus bus{5};
  std::unique_ptr<Kernel> kernel;

  explicit World(bool socdmmu) {
    KernelConfig cfg;
    std::unique_ptr<MemoryBackend> mem;
    if (socdmmu) {
      hw::SocdmmuConfig dc;
      dc.total_blocks = 32;
      dc.block_bytes = 4096;
      dc.pe_count = 4;
      mem = std::make_unique<SocdmmuBackend>(dc, cfg.costs, &bus);
    } else {
      mem = std::make_unique<SoftwareHeapBackend>(0x1000, 1 << 20,
                                                  cfg.costs);
    }
    kernel = std::make_unique<Kernel>(
        sim, bus, cfg, make_strategy(DeadlockComponent::kNone, 4, 8, cfg.costs),
        std::make_unique<SoftwarePiLockBackend>(8, cfg.costs),
        std::move(mem));
  }
  Kernel& k() { return *kernel; }
  void run() {
    kernel->start();
    sim.run(10'000'000);
  }
};

TEST(SharedMemory, CreateAndAttachBothBackends) {
  for (bool hw : {false, true}) {
    World w(hw);
    Program creator;
    creator.alloc_shared(3, 8192, true, "buf").compute(2000).free("buf");
    Program attacher;
    attacher.compute(500)
        .alloc_shared(3, 0, true, "buf")
        .compute(500)
        .free("buf");
    const TaskId a = w.k().create_task("creator", 0, 1, std::move(creator));
    const TaskId b = w.k().create_task("attacher", 1, 2, std::move(attacher));
    w.run();
    EXPECT_TRUE(w.k().all_finished()) << (hw ? "socdmmu" : "software");
    (void)a;
    (void)b;
    EXPECT_EQ(w.k().memory().call_count(), 4u);
  }
}

TEST(SharedMemory, SocdmmuMapsOnePhysicalRegion) {
  World w(true);
  std::uint64_t addr_a = 0, addr_b = 0;
  Program creator;
  creator.alloc_shared(1, 8192, true, "buf")
      .call([&](Kernel&, Task& t) { addr_a = t.allocations.at("buf"); })
      .compute(3000)
      .free("buf");
  Program attacher;
  attacher.compute(500)
      .alloc_shared(1, 0, false, "buf")
      .call([&](Kernel&, Task& t) { addr_b = t.allocations.at("buf"); })
      .free("buf");
  w.k().create_task("creator", 0, 1, std::move(creator));
  w.k().create_task("attacher", 1, 2, std::move(attacher));
  w.run();
  ASSERT_TRUE(w.k().all_finished());
  auto& unit = dynamic_cast<SocdmmuBackend&>(w.k().memory()).unit();
  // Virtual windows differ but both existed; after the frees everything
  // is reclaimed.
  EXPECT_NE(addr_a, addr_b);
  EXPECT_EQ(unit.used_blocks(), 0u);
}

TEST(SharedMemory, RoAttachmentIsNotWritableOnSocdmmu) {
  World w(true);
  bool checked = false;
  Program creator;
  creator.alloc_shared(2, 4096, true, "buf").compute(4000).free("buf");
  Program reader;
  reader.compute(300)
      .alloc_shared(2, 0, false, "view")
      .call([&](Kernel& k, Task& t) {
        auto& unit = dynamic_cast<SocdmmuBackend&>(k.memory()).unit();
        EXPECT_FALSE(unit.writable(t.pe, t.allocations.at("view")));
        checked = true;
      })
      .free("view");
  w.k().create_task("creator", 0, 1, std::move(creator));
  w.k().create_task("reader", 1, 2, std::move(reader));
  w.run();
  EXPECT_TRUE(checked);
  EXPECT_TRUE(w.k().all_finished());
}

TEST(SharedMemory, RoCannotCreateRegionThroughKernel) {
  World w(true);
  Program p;
  p.alloc_shared(9, 4096, /*writable=*/false, "x").compute(10);
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  EXPECT_TRUE(w.k().task(id).done());
  EXPECT_TRUE(w.k().task(id).allocations.empty());  // allocation failed
  EXPECT_FALSE(
      w.sim.trace().matching("shared allocation failed").empty());
}

}  // namespace
}  // namespace delta::rtos
