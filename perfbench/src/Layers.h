//===-- perfbench/src/Layers.h - Outside-in layer timing --------*- C++ -*-===//
//
// Part of the hpmvm project (PLDI 2007 HPM-guided optimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host-time instrumentation that the benchmark installs around the public
/// layer interfaces of an already-constructed Experiment, without touching
/// the program:
///   - TimedCollector decorates the GarbageCollector the VM allocates
///     through (installed with VirtualMachine::setCollector);
///   - TimedListener decorates the PEBS unit's MemoryEventListener
///     (installed with MemoryHierarchy::setListener);
///   - SpanLog keeps the coarse spans (setup, run, each collection, each
///     sample batch) in memory and writes them out when the benchmark ends.
///
/// Per-call hooks (~1M PEBS events and ~230k allocations per db run) are
/// summed counters and times, not spans. Both decorators only forward, so
/// every virtual counter stays byte-identical (DecoratorTest checks it).
///
//===----------------------------------------------------------------------===//

#ifndef HPMVM_PERFBENCH_LAYERS_H
#define HPMVM_PERFBENCH_LAYERS_H

#include "heap/GcApi.h"
#include "memsim/MemoryEvent.h"
#include "obs/SelfProfiler.h"

#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

/// Host monotonic clock, nanoseconds.
inline uint64_t nowNs() { return hpmvm::SelfProfiler::nowNs(); }

/// Median cost of one nowNs() pair with nothing between, subtracted from
/// every timed hook call so short hooks are not dominated by the clock.
uint64_t clockPairCostNs();

/// One coarse boundary of a run.
struct Span {
  const char *Name; ///< String literal.
  uint64_t StartNs;
  uint64_t EndNs;
  int32_t Parent; ///< Index of the enclosing span; -1 for a root.
  uint32_t Rep;   ///< Repetition the span belongs to.
};

/// Spans kept in memory; written out once, when the benchmark ends.
class SpanLog {
public:
  int32_t add(const char *Name, uint64_t StartNs, uint64_t EndNs,
              int32_t Parent, uint32_t Rep) {
    Spans.push_back({Name, StartNs, EndNs, Parent, Rep});
    return static_cast<int32_t>(Spans.size() - 1);
  }

  /// Sets the interval of a span added before it ended (a parent whose
  /// children are logged while it runs).
  void setTimes(int32_t Id, uint64_t StartNs, uint64_t EndNs) {
    Spans[static_cast<size_t>(Id)].StartNs = StartNs;
    Spans[static_cast<size_t>(Id)].EndNs = EndNs;
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// The span's duration minus the part of it that its child spans cover
  /// (overlapping children are counted once).
  uint64_t selfNs(int32_t Id) const;

  /// Writes {"spans": [...]} with times relative to the first span.
  void writeJson(std::FILE *Out) const;

private:
  std::vector<Span> Spans;
};

/// Forwards every call to the wrapped collector, timing allocate() calls.
/// A collection is an allocate() (or collectFull()) call during which the
/// collector's collection count rose; each becomes a "gc.collect" span.
class TimedCollector final : public hpmvm::GarbageCollector {
public:
  TimedCollector(hpmvm::GarbageCollector &Inner, SpanLog &Log,
                 uint64_t ClockCostNs)
      : Inner(Inner), Log(Log), ClockCost(ClockCostNs) {}

  /// Parent span and repetition of the collection spans that follow.
  void setSpanParent(int32_t Parent, uint32_t Rep) {
    SpanParent = Parent;
    SpanRep = Rep;
  }

  hpmvm::Address allocate(hpmvm::ClassId Cls, uint32_t TotalBytes,
                          uint32_t ArrayLen) override;
  void writeBarrier(hpmvm::Address Holder, hpmvm::Address SlotAddr,
                    hpmvm::Address NewValue) override {
    ++WriteBarriers;
    Inner.writeBarrier(Holder, SlotAddr, NewValue);
  }
  void collectFull() override;
  void setRootProvider(hpmvm::RootProvider *P) override {
    Inner.setRootProvider(P);
  }
  void setPlacementAdvisor(hpmvm::PlacementAdvisor *A) override {
    Inner.setPlacementAdvisor(A);
  }
  void setGcAllowed(bool Allowed) override { Inner.setGcAllowed(Allowed); }
  const hpmvm::GcStats &stats() const override { return Inner.stats(); }
  const char *name() const override { return Inner.name(); }
  hpmvm::SpaceId spaceOf(hpmvm::Address A) const override {
    return Inner.spaceOf(A);
  }
  void setGcNotify(std::function<void(bool)> Fn) override {
    Inner.setGcNotify(std::move(Fn));
  }
  void attachObs(hpmvm::ObsContext &Obs) override { Inner.attachObs(Obs); }

  uint64_t AllocCalls = 0;
  uint64_t AllocNs = 0; ///< All allocate() time, collections included.
  uint64_t Collections = 0;
  uint64_t CollectNs = 0;
  uint64_t WriteBarriers = 0;

private:
  uint64_t collections() const {
    return Inner.stats().MinorCollections + Inner.stats().MajorCollections;
  }

  hpmvm::GarbageCollector &Inner;
  SpanLog &Log;
  uint64_t ClockCost;
  int32_t SpanParent = -1;
  uint32_t SpanRep = 0;
};

/// Forwards every memory event to the wrapped listener (the PEBS unit),
/// counting all of them and timing every kTimeEvery-th one; eventNs()
/// extrapolates the timed share to all events.
class TimedListener final : public hpmvm::MemoryEventListener {
public:
  static constexpr uint64_t kTimeEvery = 8;

  TimedListener(hpmvm::MemoryEventListener &Inner, uint64_t ClockCostNs)
      : Inner(Inner), ClockCost(ClockCostNs) {}

  void onMemoryEvent(hpmvm::HpmEventKind Kind, hpmvm::Address Pc,
                     hpmvm::Address DataAddr) override {
    if (++Events % kTimeEvery != 0) {
      Inner.onMemoryEvent(Kind, Pc, DataAddr);
      return;
    }
    uint64_t T0 = nowNs();
    Inner.onMemoryEvent(Kind, Pc, DataAddr);
    uint64_t Ns = nowNs() - T0;
    TimedNs += Ns > ClockCost ? Ns - ClockCost : 0;
  }

  uint64_t events() const { return Events; }
  uint64_t eventNs() const {
    uint64_t Timed = Events / kTimeEvery;
    return Timed ? static_cast<uint64_t>(static_cast<double>(TimedNs) *
                                         static_cast<double>(Events) /
                                         static_cast<double>(Timed))
                 : 0;
  }

private:
  hpmvm::MemoryEventListener &Inner;
  uint64_t ClockCost;
  uint64_t Events = 0;
  uint64_t TimedNs = 0;
};

} // namespace perfbench

#endif // HPMVM_PERFBENCH_LAYERS_H
