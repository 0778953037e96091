//===- perfbench/Spans.cpp ----------------------------------------------------==//

#include "Spans.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <ostream>

using namespace perfbench;

int64_t perfbench::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t perfbench::cpuNs() {
  timespec T{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return int64_t(T.tv_sec) * 1'000'000'000 + T.tv_nsec;
}

uint64_t SpanLog::begin(std::string Name, uint64_t Parent, uint64_t Cell) {
  if (!Enabled)
    return 0;
  int64_t T = nowNs();
  return add(std::move(Name), Parent, Cell, T, T);
}

void SpanLog::end(uint64_t Id) {
  if (Id != 0)
    Spans[Id - 1].EndNs = nowNs();
}

uint64_t SpanLog::add(std::string Name, uint64_t Parent, uint64_t Cell,
                      int64_t StartNs, int64_t EndNs) {
  if (!Enabled)
    return 0;
  Span S;
  S.Name = std::move(Name);
  S.Id = Spans.size() + 1;
  S.Parent = Parent;
  S.Cell = Cell;
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

std::map<std::string, int64_t> SpanLog::selfNsByName() const {
  std::vector<std::vector<const Span *>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent != 0)
      Children[S.Parent - 1].push_back(&S);
  std::map<std::string, int64_t> Self;
  for (const Span &S : Spans) {
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<int64_t, int64_t>> Iv;
    for (const Span *C : Children[S.Id - 1])
      Iv.emplace_back(std::max(C->StartNs, S.StartNs),
                      std::min(C->EndNs, S.EndNs));
    std::sort(Iv.begin(), Iv.end());
    int64_t Covered = 0, Reach = S.StartNs;
    for (auto [B, E] : Iv) {
      B = std::max(B, Reach);
      if (E > B) {
        Covered += E - B;
        Reach = E;
      }
    }
    Self[S.Name] += (S.EndNs - S.StartNs) - Covered;
  }
  return Self;
}

std::map<std::string, int64_t> SpanLog::totalNsByName() const {
  std::map<std::string, int64_t> Total;
  for (const Span &S : Spans)
    Total[S.Name] += S.EndNs - S.StartNs;
  return Total;
}

void SpanLog::writeChromeTrace(std::ostream &OS) const {
  int64_t Epoch = Spans.empty() ? 0 : Spans.front().StartNs;
  OS << "{\"traceEvents\":[";
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << (I ? ",\n" : "\n") << "{\"name\":\"" << S.Name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << double(S.StartNs - Epoch) / 1e3
       << ",\"dur\":" << double(S.EndNs - S.StartNs) / 1e3
       << ",\"args\":{\"id\":" << S.Id << ",\"parent\":" << S.Parent
       << ",\"cell\":" << S.Cell << "}}";
  }
  OS << "\n]}\n";
}
