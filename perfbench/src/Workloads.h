//===-- perfbench/src/Workloads.h - The benchmark's workloads --*- C++ -*-===//
//
// Part of the hpmvm project (PLDI 2007 HPM-guided optimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configurations of the three benchmark workloads. perfbench/README.md
/// records why each was chosen.
///   db-coalloc        fig5's db/1x/coalloc cell: GenMS at the minimum
///                     heap, monitoring + co-allocation, auto interval.
///   compress-coalloc  the same configuration on compress (the bypass
///                     case: executor-bound, no collections).
///   fleet16-policy    fleet_scaling's s16/policy cell: 16 servermix
///                     tenants on one shared PMU, policy engine on.
/// The seed is the benchmark's input seed: it feeds the workload data and,
/// for the fleet, the traffic streams.
///
//===----------------------------------------------------------------------===//

#ifndef HPMVM_PERFBENCH_WORKLOADS_H
#define HPMVM_PERFBENCH_WORKLOADS_H

#include "harness/Fleet.h"

#include <cstdint>
#include <string>

namespace perfbench {

/// Scale and seed of the committed bench/baselines/BENCH_fig5.json rows.
constexpr uint32_t kFig5Scale = 30;
constexpr uint64_t kFig5Seed = 42;

/// The fig5 "coalloc" variant at 1x minimum heap for \p Program.
inline hpmvm::RunConfig fig5Coalloc(const std::string &Program,
                                    uint64_t Seed,
                                    uint32_t Scale = kFig5Scale) {
  hpmvm::RunConfig C;
  C.Workload = Program;
  C.Params.ScalePercent = Scale;
  C.Params.Seed = Seed;
  C.HeapFactor = 1.0;
  C.Monitoring = true;
  C.Coallocation = true;
  C.Monitor.AutoInterval = true;
  C.Monitor.TargetSamplesPerSec = 2000;
  C.Monitor.SamplingInterval = 10000;
  return C;
}

/// fleet_scaling's s16/policy cell, shortened to 256 requests per tenant so
/// one repetition takes ~1 s of host time and a run has enough repetitions
/// for a tail percentile. At fleet_scaling's default mux intervals a tenant
/// holding 1/16 of the PMU needs 1024 requests before the policy engine
/// journals anything (512 journal nothing), so the cell takes
/// fleet_scaling's own countermeasure for thin PMU shares, the 4x denser
/// intervals of its 32+ shard cells: 256 requests then journal 6-8
/// decisions.
inline hpmvm::FleetConfig fleet16Policy(uint64_t Seed) {
  hpmvm::FleetConfig F;
  F.Shards = 16;
  F.Base.Workload = "servermix";
  F.Base.Params.ScalePercent = 60;
  F.Base.Params.Seed = Seed;
  F.Base.HeapFactor = 2.0;
  F.Base.Monitoring = true;
  F.Base.PolicyEngine = true;
  F.Base.Policy.Classifier.WindowPeriods = 2;
  F.Base.Policy.Classifier.MinWindowSamples = 2.0;
  F.Base.Policy.MinBaselineWindows = 2;
  F.Base.Policy.Gate.WarmupPeriods = 0;
  F.Base.Monitor.Events = {{hpmvm::HpmEventKind::L1DMiss, 1250},
                           {hpmvm::HpmEventKind::L2Miss, 250},
                           {hpmvm::HpmEventKind::DtlbMiss, 125}};
  F.TrafficCfg.RequestsPerTenant = 256;
  F.TrafficCfg.ArrivalRatePerSec = 200000.0;
  F.TrafficCfg.Seed += Seed;
  return F;
}

} // namespace perfbench

#endif // HPMVM_PERFBENCH_WORKLOADS_H
