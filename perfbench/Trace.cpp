//===- perfbench/Trace.cpp - In-memory spans around library calls ---------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

using namespace perfbench;

uint64_t perfbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t Tracer::open(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? Span::NoParent : Open.back();
  S.Op = CurOp;
  uint32_t Id = static_cast<uint32_t>(Spans.size());
  Open.push_back(Id);
  S.StartNs = nowNs();
  Spans.push_back(S);
  return Id;
}

void Tracer::close(uint32_t Id) {
  Spans[Id].EndNs = nowNs();
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

std::vector<uint64_t> perfbench::selfTimesNs(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans)
    if (S.Parent != Span::NoParent && S.Parent < Spans.size())
      Children[S.Parent].emplace_back(S.StartNs, S.EndNs);

  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    uint64_t Lo = Spans[I].StartNs, Hi = std::max(Lo, Spans[I].EndNs);
    auto &C = Children[I];
    std::sort(C.begin(), C.end());
    uint64_t Covered = 0, Reach = Lo;
    for (auto [Start, End] : C) {
      Start = std::clamp(Start, Lo, Hi);
      End = std::clamp(End, Lo, Hi);
      if (End <= Reach)
        continue;
      Covered += End - std::max(Start, Reach);
      Reach = End;
    }
    Self[I] = (Hi - Lo) - Covered;
  }
  return Self;
}

std::map<std::string, LayerTotals>
perfbench::summarize(const std::vector<Span> &Spans) {
  std::vector<uint64_t> Self = selfTimesNs(Spans);
  std::map<std::string, LayerTotals> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    LayerTotals &T = Out[Spans[I].Name];
    ++T.Calls;
    T.SelfNs += static_cast<double>(Self[I]);
  }
  return Out;
}

bool perfbench::writeTrace(const std::string &Path,
                           const std::vector<Span> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<uint64_t> Self = selfTimesNs(Spans);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    long long Parent =
        S.Parent == Span::NoParent ? -1 : static_cast<long long>(S.Parent);
    std::fprintf(F,
                 "{\"id\":%zu,\"parent\":%lld,\"op\":%u,\"name\":\"%s\","
                 "\"start_ns\":%llu,\"end_ns\":%llu,\"self_ns\":%llu}\n",
                 I, Parent, S.Op, S.Name,
                 static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs),
                 static_cast<unsigned long long>(Self[I]));
  }
  return std::fclose(F) == 0;
}
