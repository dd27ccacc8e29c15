//===-- perfbench/src/HostProbe.h - Host speed probe ------------*- C++ -*-===//
//
// Part of the hpmvm project (PLDI 2007 HPM-guided optimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed piece of host work, owned by the benchmark and independent of
/// the program, that is timed between repetitions. The host this benchmark
/// runs on is shared: its speed drifts in phases of seconds to minutes,
/// and a repetition's wall time drifts with it. run.py divides each
/// repetition's time by the probe time around it (perfbench/README.md,
/// "Host-speed correction"), so the phases cancel while a change to the
/// program does not.
///
/// The probe is eight independent integer lanes, a few instructions per
/// cycle when the core is the program's alone. It measures how much of the
/// core the benchmark gets, which is what the shared host's phases move: a
/// busy sibling hyperthread slows the probe about as much as it slows the
/// simulator's interpreter loop. Probes that stay in one cache level move
/// far less than the workloads do (perfbench/README.md).
///
//===----------------------------------------------------------------------===//

#ifndef HPMVM_PERFBENCH_HOSTPROBE_H
#define HPMVM_PERFBENCH_HOSTPROBE_H

#include "Layers.h"

#include <cstdint>

namespace perfbench {

class HostProbe {
public:
  /// Host seconds of one pass of the fixed work (~15 ms).
  double measure() {
    uint64_t T0 = nowNs();
    uint64_t A = 1, B = 2, C = 3, D = 4, E = 5, F = 6, G = 7, H = 8;
    for (uint64_t I = 0; I != kSteps; ++I) {
      A = A * 0x9e3779b97f4a7c15ull + I;
      B ^= B >> 7;
      B += I;
      C = C * 0xbf58476d1ce4e5b9ull + 3;
      D ^= D << 9;
      D += A;
      E = (E << 5) + E + I;
      F = F * 31 + (E >> 3);
      G ^= G >> 11;
      G += C;
      H += G ^ F;
    }
    uint64_t T1 = nowNs();
    // Keep the lanes observable so the loop cannot be elided.
    Sink += A ^ B ^ C ^ D ^ E ^ F ^ G ^ H;
    return static_cast<double>(T1 - T0) / 1e9;
  }

  uint64_t sink() const { return Sink; }

private:
  static constexpr uint64_t kSteps = 4000000;
  uint64_t Sink = 0;
};

} // namespace perfbench

#endif // HPMVM_PERFBENCH_HOSTPROBE_H
