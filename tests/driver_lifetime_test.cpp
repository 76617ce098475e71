// An open-loop WorkloadDriver may be destroyed as soon as done() is true,
// on a runtime with real threads: a shard finishes its tick's bookkeeping
// before it submits its last arrival, because that arrival's completion, on
// another thread, can end the run while the tick is still running.  Run
// under ASan or TSan: a tick that touched the driver after its last submit
// is a use after free there.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "runtime/thread_runtime.hpp"

namespace snowkit {
namespace {

TEST(DriverLifetime, OpenLoopDriverMayGoOnceDone) {
  // The pacer ticks on node 0, server 0's executor.  `simple` serves object
  // 1 on server 1 alone, so a last arrival on object 1 can complete while
  // its tick is still running.
  for (int run = 0; run < 20; ++run) {
    ThreadRuntime rt;
    HistoryRecorder rec(2);
    auto sys = build_protocol("simple", rt, rec, SystemConfig{2, 1, 1});
    rt.start();
    WorkloadSpec spec;
    spec.read_span = 1;
    spec.write_span = 1;
    spec.seed = static_cast<std::uint64_t>(run) + 1;
    DriverOptions opts;
    opts.mode = ArrivalMode::kOpenLoop;
    opts.total_ops = 4;
    opts.arrival_interval_ns = 100'000;
    // A slow hook on the pacing chain: a tick that ran it after its last
    // submit would still be running long after that arrival completed.
    opts.after_arrival = [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); };
    auto driver = std::make_unique<WorkloadDriver>(rt, *sys, spec, opts);
    driver->start();
    driver->wait();
    ASSERT_TRUE(driver->done());
    driver.reset();
    rt.stop();
    EXPECT_EQ(rec.snapshot().completed_reads() + rec.snapshot().completed_writes(), 4u);
  }
}

}  // namespace
}  // namespace snowkit
