//===-- perfbench/src/Layers.cpp ------------------------------------------===//

#include "Layers.h"

#include <algorithm>

using namespace perfbench;
using namespace hpmvm;

uint64_t perfbench::clockPairCostNs() {
  std::vector<uint64_t> D(1001);
  for (uint64_t &V : D) {
    uint64_t T0 = nowNs();
    V = nowNs() - T0;
  }
  std::nth_element(D.begin(), D.begin() + D.size() / 2, D.end());
  return D[D.size() / 2];
}

uint64_t SpanLog::selfNs(int32_t Id) const {
  const Span &P = Spans[static_cast<size_t>(Id)];
  std::vector<std::pair<uint64_t, uint64_t>> Kids;
  for (const Span &S : Spans)
    if (S.Parent == Id)
      Kids.emplace_back(std::max(S.StartNs, P.StartNs),
                        std::min(S.EndNs, P.EndNs));
  std::sort(Kids.begin(), Kids.end());
  uint64_t Covered = 0, Reach = P.StartNs;
  for (auto [Start, End] : Kids) {
    Start = std::max(Start, Reach);
    if (End > Start) {
      Covered += End - Start;
      Reach = End;
    }
  }
  return (P.EndNs - P.StartNs) - Covered;
}

void SpanLog::writeJson(std::FILE *Out) const {
  uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans)
    Origin = std::min(Origin, S.StartNs);
  std::fprintf(Out, "{\"time_unit\": \"ns\", \"spans\": [");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start\": %llu, "
                 "\"end\": %llu, \"parent\": %d, \"rep\": %u}",
                 I ? "," : "", I, S.Name,
                 static_cast<unsigned long long>(S.StartNs - Origin),
                 static_cast<unsigned long long>(S.EndNs - Origin), S.Parent,
                 S.Rep);
  }
  std::fprintf(Out, "\n]}\n");
}

Address TimedCollector::allocate(ClassId Cls, uint32_t TotalBytes,
                                 uint32_t ArrayLen) {
  uint64_t Before = collections();
  uint64_t T0 = nowNs();
  Address A = Inner.allocate(Cls, TotalBytes, ArrayLen);
  uint64_t T1 = nowNs();
  uint64_t Ns = T1 - T0 > ClockCost ? T1 - T0 - ClockCost : 0;
  ++AllocCalls;
  AllocNs += Ns;
  if (collections() != Before) {
    ++Collections;
    CollectNs += Ns;
    Log.add("gc.collect", T0, T1, SpanParent, SpanRep);
  }
  return A;
}

void TimedCollector::collectFull() {
  uint64_t Before = collections();
  uint64_t T0 = nowNs();
  Inner.collectFull();
  uint64_t T1 = nowNs();
  if (collections() != Before) {
    ++Collections;
    CollectNs += T1 - T0;
    Log.add("gc.collect", T0, T1, SpanParent, SpanRep);
  }
}
