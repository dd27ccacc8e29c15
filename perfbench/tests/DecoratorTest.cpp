//===-- perfbench/tests/DecoratorTest.cpp ---------------------------------===//
//
// The layer decorators must only observe: a small db run with both of them
// installed gives byte-identical virtual counters to the same run without
// them. Also pins SpanLog's self-time arithmetic.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include <gtest/gtest.h>

using namespace hpmvm;
using namespace perfbench;

namespace {

struct Observed {
  RunResult Result;
  uint64_t AllocCalls = 0, Collections = 0, WriteBarriers = 0, Events = 0;
};

Observed runDb(bool Decorated) {
  RunConfig C = fig5Coalloc("db", /*Seed=*/7, /*Scale=*/10);
  Experiment E(C);
  SpanLog Log;
  TimedCollector Gc(E.collector(), Log, /*ClockCostNs=*/0);
  TimedListener Pebs(E.monitor()->pebs(), /*ClockCostNs=*/0);
  if (Decorated) {
    Gc.setSpanParent(Log.add("run", 0, 0, -1, 0), 0);
    E.vm().setCollector(&Gc);
    E.vm().memory().setListener(&Pebs);
  }
  E.run();
  E.vm().setCollector(&E.collector());
  Observed O;
  O.Result = E.result();
  O.AllocCalls = Gc.AllocCalls;
  O.Collections = Gc.Collections;
  O.WriteBarriers = Gc.WriteBarriers;
  O.Events = Pebs.events();
  return O;
}

TEST(DecoratorTest, VirtualCountersAreByteIdentical) {
  Observed Plain = runDb(false);
  Observed Traced = runDb(true);
  const RunResult &A = Plain.Result, &B = Traced.Result;
  EXPECT_EQ(A.TotalCycles, B.TotalCycles);
  EXPECT_EQ(A.GcCycles, B.GcCycles);
  EXPECT_EQ(A.MonitorOverheadCycles, B.MonitorOverheadCycles);
  EXPECT_EQ(A.SamplesTaken, B.SamplesTaken);
  EXPECT_EQ(A.CoallocatedPairs, B.CoallocatedPairs);
  EXPECT_EQ(A.Memory.Accesses, B.Memory.Accesses);
  EXPECT_EQ(A.Memory.L1Misses, B.Memory.L1Misses);
  EXPECT_EQ(A.Memory.L2Misses, B.Memory.L2Misses);
  EXPECT_EQ(A.Memory.TlbMisses, B.Memory.TlbMisses);
  EXPECT_EQ(A.Memory.PrefetchFills, B.Memory.PrefetchFills);
  EXPECT_EQ(A.Gc.MinorCollections, B.Gc.MinorCollections);
  EXPECT_EQ(A.Gc.MajorCollections, B.Gc.MajorCollections);
  EXPECT_EQ(A.Gc.ObjectsPromoted, B.Gc.ObjectsPromoted);
  EXPECT_EQ(A.Vm.MachineInstsExecuted, B.Vm.MachineInstsExecuted);
  EXPECT_EQ(A.Vm.ObjectsAllocated, B.Vm.ObjectsAllocated);
  EXPECT_EQ(A.Vm.BytesAllocated, B.Vm.BytesAllocated);
  EXPECT_EQ(A.Journal.size(), B.Journal.size());
  EXPECT_EQ(A.Metrics.Counters, B.Metrics.Counters);
  EXPECT_EQ(A.Metrics.Gauges, B.Metrics.Gauges);

  // The decorators saw the run's work, so the comparison is not vacuous.
  EXPECT_EQ(Traced.AllocCalls, B.Vm.ObjectsAllocated);
  EXPECT_EQ(Traced.Collections,
            B.Gc.MinorCollections + B.Gc.MajorCollections);
  EXPECT_GT(Traced.Collections, 0u);
  EXPECT_GT(Traced.WriteBarriers, 0u);
  EXPECT_EQ(Traced.Events, B.Memory.L1Misses + B.Memory.L2Misses +
                               B.Memory.TlbMisses);
}

TEST(SpanLogTest, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog Log;
  int32_t Run = Log.add("run", 100, 200, -1, 0);
  Log.add("a", 110, 130, Run, 0);
  Log.add("b", 120, 140, Run, 0); // Overlaps a: union 110..140.
  Log.add("c", 190, 250, Run, 0); // Clipped to the parent: 190..200.
  Log.add("other", 0, 1000, -1, 0);
  EXPECT_EQ(Log.selfNs(Run), 100u - 30u - 10u);
  Log.setTimes(Run, 100, 300);
  EXPECT_EQ(Log.selfNs(Run), 200u - 30u - 60u);
}

} // namespace
