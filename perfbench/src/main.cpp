//===-- perfbench/src/main.cpp - Benchmark program ------------------------===//
//
// Part of the hpmvm project (PLDI 2007 HPM-guided optimization repro).
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--baseline bench/baselines/BENCH_fig5.json]
//             [--trace-out spans.json]
//
// Repeats set-up (Experiment or Fleet construction) and run of one
// workload, single-threaded, for S seconds of host time, timing each
// repetition and timing the host probe (HostProbe.h) between
// repetitions. With --trace 1 every other repetition is traced: the layer
// decorators of Layers.h are installed after construction, the opt-in
// self-profiler times the sample-pipeline stages, and the spans are
// written to --trace-out at exit. The untraced repetitions of the same
// process give the tracing overhead.
//
// Output check: every repetition's virtual counters must equal the first
// repetition's, traced or not. The fig5 workloads also rerun the committed
// BENCH_fig5.json cell (scale 30, seed 42) as the warm-up repetition and
// must reproduce it exactly.
//
// Prints one JSON line of raw measurements; perfbench/run.py summarizes it.
//
//===----------------------------------------------------------------------===//

#include "HostProbe.h"
#include "Layers.h"
#include "Workloads.h"

#include "memsim/MemoryHierarchy.h"
#include "support/Flags.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace hpmvm;
using namespace perfbench;

namespace {

/// Named virtual counters of one repetition, in a fixed order.
using Counters = std::vector<std::pair<std::string, uint64_t>>;

/// Per-layer metrics of one traced repetition, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// The paper-side headline of a repetition (virtual time, exact).
struct Headline {
  double VirtMs = 0.0;
  double L1MissPerKacc = 0.0;
  double MonitorOverheadPct = 0.0;
  uint64_t MachineInsts = 0;
  uint64_t Requests = 0;
};

struct RepResult {
  bool Traced = false;
  double SetupS = 0.0;
  double RunS = 0.0;
  /// Geometric mean of the host probe times just before and just after
  /// the repetition (HostProbe.h).
  double ProbeS = 0.0;
  Counters Virtual;
  Headline Head;
  LayerMetrics Layers;
  /// The run's memory hierarchy (shard 0's for the fleet).
  MemoryHierarchyConfig MemConfig;
};

double perKilo(uint64_t N, uint64_t D) {
  return D ? 1e3 * static_cast<double>(N) / static_cast<double>(D) : 0.0;
}

double pct(uint64_t N, uint64_t D) {
  return D ? 100.0 * static_cast<double>(N) / static_cast<double>(D) : 0.0;
}

double secs(uint64_t Ns) { return static_cast<double>(Ns) / 1e9; }

void addRunCounters(Counters &C, const std::string &Prefix,
                    const RunResult &R) {
  C.emplace_back(Prefix + "cycles", R.TotalCycles);
  C.emplace_back(Prefix + "gc_cycles", R.GcCycles);
  C.emplace_back(Prefix + "monitor_overhead_cycles", R.MonitorOverheadCycles);
  C.emplace_back(Prefix + "accesses", R.Memory.Accesses);
  C.emplace_back(Prefix + "l1_misses", R.Memory.L1Misses);
  C.emplace_back(Prefix + "l2_misses", R.Memory.L2Misses);
  C.emplace_back(Prefix + "tlb_misses", R.Memory.TlbMisses);
  C.emplace_back(Prefix + "collections",
                 R.Gc.MinorCollections + R.Gc.MajorCollections);
  C.emplace_back(Prefix + "samples", R.SamplesTaken);
  C.emplace_back(Prefix + "coallocated_pairs", R.CoallocatedPairs);
  C.emplace_back(Prefix + "machine_insts", R.Vm.MachineInstsExecuted);
}

/// Sum of the self-profiler's stage histograms of one experiment.
struct StageNs {
  uint64_t Drain = 0, Resolve = 0, Attribute = 0, Dispatch = 0;
  uint64_t total() const { return Drain + Resolve + Attribute + Dispatch; }
};

StageNs stageNs(Experiment &E) {
  MetricsRegistry &M = E.obs().metrics();
  return {M.histogram("pipeline.stage.drain_ns").sum(),
          M.histogram("pipeline.stage.resolve_ns").sum(),
          M.histogram("pipeline.stage.attribute_ns").sum(),
          M.histogram("pipeline.stage.dispatch_ns").sum()};
}

/// The instruments installed on one experiment (one fleet shard) for one
/// traced repetition.
struct Probe {
  std::unique_ptr<TimedCollector> Gc;
  std::unique_ptr<TimedListener> Pebs;
  uint64_t LastStageNs = 0;
};

/// Installs and reads the layer instruments; owns the span log.
class Tracer {
public:
  SpanLog Log;
  const uint64_t ClockCost = clockPairCostNs();

  /// Wraps \p E's collector and PEBS listener and turns every processed
  /// sample batch into an "hpm.batch" span under \p RunSpan. A batch's
  /// host interval is not visible from outside, so the span ends when the
  /// monitor's period observer fires and is as long as the self-profiler's
  /// drain + resolve + attribute + dispatch time for that batch.
  void install(Experiment &E, Probe &P, int32_t RunSpan, uint32_t Rep) {
    P.Gc = std::make_unique<TimedCollector>(E.collector(), Log, ClockCost);
    P.Gc->setSpanParent(RunSpan, Rep);
    E.vm().setCollector(P.Gc.get());
    HpmMonitor *M = E.monitor();
    if (!M)
      return;
    P.Pebs = std::make_unique<TimedListener>(M->pebs(), ClockCost);
    E.vm().memory().setListener(P.Pebs.get());
    M->setPeriodObserver([this, &E, &P, RunSpan, Rep] {
      uint64_t End = nowNs();
      uint64_t Stage = stageNs(E).total();
      Log.add("hpm.batch", End - std::min(End, Stage - P.LastStageNs), End,
              RunSpan, Rep);
      P.LastStageNs = Stage;
    });
  }

  /// Restores the experiment's own collector and listener.
  static void uninstall(Experiment &E) {
    E.vm().setCollector(&E.collector());
    E.vm().memory().setListener(nullptr);
    if (E.monitor())
      E.monitor()->setPeriodObserver({});
  }

  /// Host-time layer metrics of a traced repetition whose run span is
  /// \p RunSpan, summed over \p Shards.
  LayerMetrics hostLayers(std::vector<Experiment *> &Shards,
                          std::vector<Probe> &Probes, int32_t RunSpan) {
    LayerMetrics L;
    uint64_t AllocNs = 0, CollectNs = 0, EventNs = 0;
    uint64_t Allocs = 0, Collections = 0, Barriers = 0, Events = 0;
    StageNs Stages;
    for (size_t I = 0; I != Shards.size(); ++I) {
      const Probe &P = Probes[I];
      AllocNs += P.Gc->AllocNs;
      CollectNs += P.Gc->CollectNs;
      Allocs += P.Gc->AllocCalls;
      Collections += P.Gc->Collections;
      Barriers += P.Gc->WriteBarriers;
      if (P.Pebs) {
        EventNs += P.Pebs->eventNs();
        Events += P.Pebs->events();
      }
      StageNs S = stageNs(*Shards[I]);
      Stages.Drain += S.Drain;
      Stages.Resolve += S.Resolve;
      Stages.Attribute += S.Attribute;
      Stages.Dispatch += S.Dispatch;
    }
    // The run span's children (collections, sample batches) are spans;
    // allocations that did not collect and PEBS events are summed hooks.
    uint64_t Hooks = (AllocNs - std::min(AllocNs, CollectNs)) + EventNs;
    uint64_t RunSelf = Log.selfNs(RunSpan);
    L["vm.mutator_self_s"] = secs(RunSelf - std::min(RunSelf, Hooks));
    L["gc.alloc_calls"] = static_cast<double>(Allocs);
    L["gc.alloc_s"] = secs(AllocNs);
    L["gc.collections"] = static_cast<double>(Collections);
    L["gc.collect_s"] = secs(CollectNs);
    L["gc.write_barriers"] = static_cast<double>(Barriers);
    L["hpm.events"] = static_cast<double>(Events);
    L["hpm.event_s"] = secs(EventNs);
    L["hpm.drain_s"] = secs(Stages.Drain);
    L["core.resolve_s"] = secs(Stages.Resolve);
    L["core.attribute_s"] = secs(Stages.Attribute);
    L["core.dispatch_s"] = secs(Stages.Dispatch);
    return L;
  }
};

/// Virtual-side layer metrics shared by experiments and fleets.
void virtualLayers(LayerMetrics &L, const RunResult &Sum, uint64_t Cycles,
                   uint64_t PrefetchFills, uint64_t Invocations,
                   uint64_t Batches, const std::vector<DecisionRecord> &J) {
  L["vm.minsts"] = static_cast<double>(Sum.Vm.MachineInstsExecuted);
  L["vm.invocations"] = static_cast<double>(Invocations);
  L["vm.ns_per_minst"] =
      Sum.Vm.MachineInstsExecuted
          ? L["vm.mutator_self_s"] * 1e9 /
                static_cast<double>(Sum.Vm.MachineInstsExecuted)
          : 0.0;
  L["memsim.accesses"] = static_cast<double>(Sum.Memory.Accesses);
  L["memsim.tlb_miss_per_kacc"] =
      perKilo(Sum.Memory.TlbMisses, Sum.Memory.Accesses);
  L["memsim.l2_miss_per_kacc"] =
      perKilo(Sum.Memory.L2Misses, Sum.Memory.Accesses);
  L["memsim.prefetch_fills"] = static_cast<double>(PrefetchFills);
  L["gc.virt_share_pct"] = pct(Sum.GcCycles, Cycles);
  L["gc.coalloc_pairs"] = static_cast<double>(Sum.CoallocatedPairs);
  L["hpm.samples"] = static_cast<double>(Sum.SamplesTaken);
  L["core.batches"] = static_cast<double>(Batches);
  L["core.decisions"] = static_cast<double>(J.size());
  L["core.accepts"] = static_cast<double>(
      std::count_if(J.begin(), J.end(), [](const DecisionRecord &D) {
        return D.Kind == DecisionKind::Accept;
      }));
}

uint64_t batchesOf(const RunResult &R) {
  for (const auto &[Name, Value] : R.Metrics.Counters)
    if (Name == "monitor.batches")
      return Value;
  return 0;
}

std::vector<Experiment *> shardsOf(Experiment &E) { return {&E}; }

std::vector<Experiment *> shardsOf(Fleet &F) {
  std::vector<Experiment *> Shards;
  for (size_t I = 0; I != F.shards(); ++I)
    Shards.push_back(&F.shard(I));
  return Shards;
}

/// Constructs and runs one repetition of \p Target (an Experiment or a
/// Fleet), timing both phases into \p Out. When traced, the layer
/// instruments go on every shard between the two phases, and the host-time
/// layer metrics land in Out.Layers.
template <typename Target, typename Config>
std::unique_ptr<Target> timedRep(const Config &C, Tracer *T, uint32_t Rep,
                                 RepResult &Out) {
  uint64_t T0 = nowNs();
  auto X = std::make_unique<Target>(C);
  uint64_t T1 = nowNs();
  std::vector<Experiment *> Shards = shardsOf(*X);
  std::vector<Probe> Probes(Shards.size());
  int32_t RunSpan = -1;
  if (T) {
    T->Log.add("setup", T0, T1, -1, Rep);
    RunSpan = T->Log.add("run", 0, 0, -1, Rep);
    for (size_t I = 0; I != Shards.size(); ++I)
      T->install(*Shards[I], Probes[I], RunSpan, Rep);
  }
  uint64_t T2 = nowNs();
  X->run();
  uint64_t T3 = nowNs();
  Out.SetupS = secs(T1 - T0);
  Out.RunS = secs(T3 - T2);
  Out.MemConfig = Shards.front()->vm().memory().config();
  if (T) {
    for (Experiment *E : Shards)
      Tracer::uninstall(*E);
    T->Log.setTimes(RunSpan, T2, T3);
    Out.Layers = T->hostLayers(Shards, Probes, RunSpan);
  }
  return X;
}

/// One set-up + run of a single-program workload.
RunResult runExperimentRep(RunConfig C, Tracer *T, uint32_t Rep,
                           RepResult &Out) {
  C.Obs.SelfProfile = T != nullptr;
  RunResult R = timedRep<Experiment>(C, T, Rep, Out)->result();
  if (T) {
    virtualLayers(Out.Layers, R, R.TotalCycles, R.Memory.PrefetchFills,
                  R.Vm.Invocations, batchesOf(R), R.Journal);
    Out.Layers["hpm.pmu_rotations"] = 0;
    Out.Layers["hpm.granted_pct"] = 100.0;
    Out.Layers["harness.fleet_run_s"] = 0;
    Out.Layers["harness.requests"] = 0;
    Out.Layers["harness.shard_setup_s"] = 0;
  }
  addRunCounters(Out.Virtual, "", R);
  Out.Head.VirtMs = VirtualClock::toSeconds(R.TotalCycles) * 1e3;
  Out.Head.L1MissPerKacc = perKilo(R.Memory.L1Misses, R.Memory.Accesses);
  Out.Head.MonitorOverheadPct = pct(R.MonitorOverheadCycles, R.TotalCycles);
  Out.Head.MachineInsts = R.Vm.MachineInstsExecuted;
  Out.Head.Requests = 1; // One whole program run.
  return R;
}

/// One set-up + run of the fleet workload.
void runFleetRep(FleetConfig C, Tracer *T, uint32_t Rep, RepResult &Out) {
  C.Base.Obs.SelfProfile = T != nullptr;
  FleetResult R = timedRep<Fleet>(C, T, Rep, Out)->result();
  uint64_t SumCycles = 0, PrefetchFills = 0, Invocations = 0, Batches = 0;
  uint64_t Requests = 0;
  double GrantedPct = 0.0;
  Counters &V = Out.Virtual;
  V.emplace_back("makespan_cycles", R.MakespanCycles);
  V.emplace_back("pmu_rotations", R.PmuRotations);
  for (const FleetTenantResult &TR : R.Tenants) {
    std::string P = "tenant" + std::to_string(TR.Tenant) + ".";
    addRunCounters(V, P, TR.Run);
    V.emplace_back(P + "requests", TR.Requests);
    SumCycles += TR.Run.TotalCycles;
    PrefetchFills += TR.Run.Memory.PrefetchFills;
    Invocations += TR.Run.Vm.Invocations;
    Batches += batchesOf(TR.Run);
    Requests += TR.Requests;
    GrantedPct += pct(TR.Share.Granted, TR.Share.Executed);
  }
  const RunResult &A = R.Aggregate;
  if (T) {
    virtualLayers(Out.Layers, A, SumCycles, PrefetchFills, Invocations,
                  Batches, A.Journal);
    Out.Layers["hpm.pmu_rotations"] = static_cast<double>(R.PmuRotations);
    Out.Layers["hpm.granted_pct"] =
        R.Tenants.empty() ? 0.0
                          : GrantedPct / static_cast<double>(R.Tenants.size());
    Out.Layers["harness.fleet_run_s"] = Out.RunS;
    Out.Layers["harness.requests"] = static_cast<double>(Requests);
    Out.Layers["harness.shard_setup_s"] =
        Out.SetupS / static_cast<double>(R.Tenants.size());
  }
  Out.Head.VirtMs = VirtualClock::toSeconds(R.MakespanCycles) * 1e3;
  Out.Head.L1MissPerKacc = perKilo(A.Memory.L1Misses, A.Memory.Accesses);
  Out.Head.MonitorOverheadPct = pct(A.MonitorOverheadCycles, SumCycles);
  Out.Head.MachineInsts = A.Vm.MachineInstsExecuted;
  Out.Head.Requests = Requests;
}

/// Host ns per MemoryHierarchy::access on \p Config, replaying a seeded
/// hot-set/stream/noise mix (bench/memsim_trace's shape) that is generated
/// before the clock starts. Median of five passes over fresh hierarchies.
double replayNsPerAccess(const MemoryHierarchyConfig &Config, uint64_t Seed) {
  constexpr uint32_t kAccesses = 1u << 20;
  std::vector<Address> Addr(kAccesses);
  std::vector<uint8_t> Size(kAccesses), Write(kAccesses);
  SplitMix64 Rng(Seed);
  Address Stream = 0x40000000;
  for (uint32_t I = 0; I != kAccesses; ++I) {
    uint64_t D = Rng.nextBelow(100);
    if (D < 75) {
      uint64_t Line = Rng.nextBelow(32);
      Line = Line < 24 ? Line % 8 : Line;
      Addr[I] = 0x50000000 + static_cast<Address>(Line) * 128 +
                static_cast<Address>(Rng.nextBelow(120));
    } else if (D < 90) {
      Stream += 64;
      Addr[I] = Stream;
    } else {
      Addr[I] = 0x60000000 + static_cast<Address>(Rng.next() & 0x3fffff);
    }
    Size[I] = Rng.nextBelow(4) == 0 ? 8 : 4;
    Write[I] = Rng.nextBelow(3) == 0;
  }
  std::vector<double> Passes;
  Cycles Sink = 0;
  for (int P = 0; P != 5; ++P) {
    MemoryHierarchy M(Config);
    uint64_t T0 = nowNs();
    for (uint32_t I = 0; I != kAccesses; ++I)
      Sink += M.access(Addr[I], Size[I], Write[I] != 0,
                       0x20000000 + (I % 4096) * 4)
                  .Penalty;
    Passes.push_back(static_cast<double>(nowNs() - T0) / kAccesses);
  }
  // Keep the replay's result observable so the loop cannot be elided.
  if (Sink == 0)
    std::fprintf(stderr, "perfbench: replay charged no penalty\n");
  std::nth_element(Passes.begin(), Passes.begin() + 2, Passes.end());
  return Passes[2];
}

/// Compares \p Got with the fig5 baseline row \p Label; appends one message
/// per mismatching field to \p Errors.
void checkFig5Row(const std::string &BaselinePath, const std::string &Label,
                  const RunResult &Got, std::vector<std::string> &Errors) {
  std::ifstream In(BaselinePath);
  std::stringstream Text;
  Text << In.rdbuf();
  bool Ok = false;
  json::ValuePtr Doc = In ? json::parse(Text.str(), Ok) : nullptr;
  json::ValuePtr Runs = Ok ? Doc->get("runs") : nullptr;
  json::ValuePtr Row;
  if (Runs && Runs->isArray())
    for (const json::ValuePtr &R : Runs->Arr)
      if (R && R->str("label") == Label)
        Row = R;
  if (!Row) {
    Errors.push_back("baseline row " + Label + " not found in " +
                     BaselinePath);
    return;
  }
  const std::pair<const char *, uint64_t> Fields[] = {
      {"heap_bytes", Got.HeapBytes},
      {"total_cycles", Got.TotalCycles},
      {"gc_cycles", Got.GcCycles},
      {"monitor_overhead_cycles", Got.MonitorOverheadCycles},
      {"samples_taken", Got.SamplesTaken},
      {"coallocated_pairs", Got.CoallocatedPairs},
      {"accesses", Got.Memory.Accesses},
      {"l1_misses", Got.Memory.L1Misses},
      {"l2_misses", Got.Memory.L2Misses},
      {"tlb_misses", Got.Memory.TlbMisses},
      {"minor_collections", Got.Gc.MinorCollections},
      {"major_collections", Got.Gc.MajorCollections},
      {"objects_promoted", Got.Gc.ObjectsPromoted},
      {"bytecodes_interpreted", Got.Vm.BytecodesInterpreted},
      {"machine_insts_executed", Got.Vm.MachineInstsExecuted},
      {"objects_allocated", Got.Vm.ObjectsAllocated},
      {"bytes_allocated", Got.Vm.BytesAllocated},
  };
  for (const auto &[Key, Value] : Fields) {
    json::ValuePtr Want = Row->get(Key);
    if (!Want || !Want->isNumber() ||
        static_cast<uint64_t>(Want->Num) != Value)
      Errors.push_back(formatString(
          "%s %s: got %llu, baseline %s", Label.c_str(), Key,
          static_cast<unsigned long long>(Value),
          Want && Want->isNumber()
              ? formatString("%.0f", Want->Num).c_str()
              : "missing"));
  }
}

/// Names of the counters that differ between \p A and \p B.
std::string counterDiff(const Counters &A, const Counters &B) {
  if (A.size() != B.size())
    return "counter sets differ in size";
  std::string Diff;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I] != B[I])
      Diff += formatString("%s%s %llu != %llu", Diff.empty() ? "" : ", ",
                           A[I].first.c_str(),
                           static_cast<unsigned long long>(A[I].second),
                           static_cast<unsigned long long>(B[I].second));
  return Diff;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "db-coalloc|compress-coalloc|fleet16-policy --seed N "
               "--seconds S --trace 0|1 [--baseline FILE] "
               "[--trace-out FILE]\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, Baseline, TraceOut;
  uint64_t Seed = 0, Seconds = 0, TraceMode = 2;
  bool HaveSeed = false;
  {
    flags::ArgScanner S(Argc, Argv);
    while (S.next()) {
      if (S.take("--workload", Workload) || S.take("--baseline", Baseline) ||
          S.take("--trace-out", TraceOut) ||
          S.takeUint("--seconds", 3600, Seconds) ||
          S.takeUint("--trace", 1, TraceMode))
        continue;
      if (S.takeUint("--seed", UINT32_MAX, Seed)) {
        HaveSeed = true;
        continue;
      }
      S.keepUnknown();
    }
    if (!S.ok())
      return usage("bad arguments");
  }
  const bool IsFleet = Workload == "fleet16-policy";
  std::string Program = Workload == "db-coalloc"         ? "db"
                        : Workload == "compress-coalloc" ? "compress"
                                                         : "";
  if (!IsFleet && Program.empty())
    return usage("unknown workload");
  if (!HaveSeed || Seconds == 0 || TraceMode > 1)
    return usage("--seed, --seconds and --trace are required");
  if (!IsFleet && Baseline.empty())
    return usage("the fig5 workloads need --baseline");

  std::unique_ptr<Tracer> Trace;
  if (TraceMode)
    Trace = std::make_unique<Tracer>();
  std::vector<std::string> Errors;
  std::vector<RepResult> Reps;
  uint32_t Failed = 0;

  // Warm-up (untimed): the committed fig5 cell for the fig5 workloads, a
  // plain repetition for the fleet. It lets caches fill and lazy set-up
  // finish before timing starts.
  {
    RepResult Warm;
    if (IsFleet) {
      runFleetRep(fleet16Policy(Seed), nullptr, 0, Warm);
    } else {
      RunResult R = runExperimentRep(fig5Coalloc(Program, kFig5Seed), nullptr,
                                     0, Warm);
      size_t Before = Errors.size();
      checkFig5Row(Baseline, Program + "/1x/coalloc", R, Errors);
      Failed += Errors.size() != Before;
    }
  }

  HostProbe Probe;
  std::vector<double> ProbeS{Probe.measure()};
  const uint64_t Deadline = nowNs() + Seconds * 1000000000ull;
  // Untraced runs need a tail percentile with ten samples beyond it;
  // traced runs one repetition of each kind.
  const size_t MinReps = TraceMode ? 2 : 11;
  for (uint32_t Rep = 0; Reps.size() < MinReps || nowNs() < Deadline;
       ++Rep) {
    RepResult R;
    R.Traced = Trace && Rep % 2 == 1;
    Tracer *T = R.Traced ? Trace.get() : nullptr;
    if (IsFleet) {
      runFleetRep(fleet16Policy(Seed), T, Rep, R);
    } else {
      runExperimentRep(fig5Coalloc(Program, Seed), T, Rep, R);
    }
    if (!Reps.empty()) {
      std::string Diff = counterDiff(Reps.front().Virtual, R.Virtual);
      if (!Diff.empty()) {
        ++Failed;
        Errors.push_back(formatString("rep %u (%s) virtual counters differ "
                                      "from rep 0: %s",
                                      Rep, R.Traced ? "traced" : "untraced",
                                      Diff.c_str()));
      }
    }
    Reps.push_back(std::move(R));
    ProbeS.push_back(Probe.measure());
  }
  for (size_t I = 0; I != Reps.size(); ++I)
    Reps[I].ProbeS = std::sqrt(ProbeS[I] * ProbeS[I + 1]);
  if (Probe.sink() == 0)
    std::fprintf(stderr, "perfbench: host probe lanes ended at 0\n");
  double Replay = Trace ? replayNsPerAccess(Reps.front().MemConfig, Seed) : 0.0;

  if (Trace && !TraceOut.empty()) {
    if (std::FILE *F = std::fopen(TraceOut.c_str(), "w")) {
      Trace->Log.writeJson(F);
      std::fclose(F);
    } else {
      Errors.push_back("cannot write " + TraceOut);
    }
  }

  // VmHWM, not getrusage: ru_maxrss starts from the parent's peak at fork,
  // so a binary exec'd by a larger process would report the parent's size.
  double PeakRssMb = 0.0;
  {
    std::ifstream Status("/proc/self/status");
    std::string Line;
    while (std::getline(Status, Line))
      if (Line.rfind("VmHWM:", 0) == 0)
        PeakRssMb = std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  }
  if (PeakRssMb == 0.0)
    Errors.push_back("cannot read VmHWM from /proc/self/status");

  const Headline &H = Reps.front().Head;
  std::printf("{\"workload\": ");
  writeJsonStringEscaped(stdout, Workload);
  std::printf(", \"seed\": %llu, \"attempted\": %zu, \"failed\": %u",
              static_cast<unsigned long long>(Seed), Reps.size() + 1, Failed);
  // %.17g keeps every digit of a double.
  std::printf(", \"peak_rss_mb\": %.17g", PeakRssMb);
  std::printf(", \"virt_ms\": %.17g, \"l1_miss_per_kacc\": %.17g"
              ", \"monitor_overhead_pct\": %.17g, \"machine_insts\": %llu"
              ", \"requests\": %llu",
              H.VirtMs, H.L1MissPerKacc, H.MonitorOverheadPct,
              static_cast<unsigned long long>(H.MachineInsts),
              static_cast<unsigned long long>(H.Requests));
  std::printf(", \"errors\": [");
  for (size_t I = 0; I != Errors.size(); ++I) {
    std::printf("%s", I ? ", " : "");
    writeJsonStringEscaped(stdout, Errors[I]);
  }
  std::printf("], \"reps\": [");
  for (size_t I = 0; I != Reps.size(); ++I) {
    const RepResult &R = Reps[I];
    std::printf("%s{\"traced\": %s, \"setup_s\": %.9f, \"run_s\": %.9f"
                ", \"probe_s\": %.9f",
                I ? ", " : "", R.Traced ? "true" : "false", R.SetupS, R.RunS,
                R.ProbeS);
    if (R.Traced) {
      std::printf(", \"layers\": {\"memsim.replay_ns_per_access\": %.17g",
                  Replay);
      for (const auto &[Name, Value] : R.Layers)
        std::printf(", \"%s\": %.17g", Name.c_str(), Value);
      std::printf("}");
    }
    std::printf("}");
  }
  std::printf("]}\n");
  return 0;
}
