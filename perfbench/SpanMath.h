//===- perfbench/SpanMath.h - self-time and percentile arithmetic --------------//
//
// Part of the delinq benchmark. Pure functions over recorded spans and job
// service times, kept apart from the main program so that
// `delinq_perf --self-test` can pin them on synthetic inputs.
//
// Self time: spans on one thread nest (obs::Span is RAII), so each span's
// parent is the innermost earlier span on the same thread whose interval
// contains it. A span's self time is its duration minus the durations of its
// direct children. Only spans inside a "job.run" span (one JobPool job)
// count; the job.run span's own self time is the job time no layer span
// covers. Summed over a job, the self times of all its spans equal the job's
// duration exactly, which is the accounting identity the benchmark asserts.
//
//===----------------------------------------------------------------------===//

#ifndef DLQ_PERFBENCH_SPANMATH_H
#define DLQ_PERFBENCH_SPANMATH_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dlq {
namespace perf {

/// One completed span: the fields of obs::TraceEvent the arithmetic needs.
struct SpanRec {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  uint32_t Tid = 0;
};

/// The name of the JobPool's per-job span, the root of job-time accounting.
inline const char *jobSpanName() { return "job.run"; }

/// Self time of every span inside a job, summed per layer.
struct SelfTimes {
  std::map<std::string, uint64_t> LayerNs; ///< Layer -> summed self time.
  std::map<std::string, uint64_t> Spans;   ///< Span name -> count in jobs.
  uint64_t JobNs = 0;  ///< Summed job.run durations (traced job time).
  uint64_t Jobs = 0;   ///< job.run spans seen.
  uint64_t Outside = 0; ///< Spans outside any job (not accounted).

  uint64_t layerSumNs() const {
    uint64_t S = 0;
    for (const auto &[Layer, Ns] : LayerNs)
      S += Ns;
    return S;
  }
};

/// Computes per-layer self time. \p LayerOf maps a span name to its layer
/// (the job span itself maps to the unattributed bucket).
template <typename LayerFn>
SelfTimes selfTimes(std::vector<SpanRec> Events, LayerFn LayerOf) {
  // Per thread, by start; a parent starting at the same instant as its
  // child is the longer of the two and must come first.
  std::sort(Events.begin(), Events.end(),
            [](const SpanRec &A, const SpanRec &B) {
              if (A.Tid != B.Tid)
                return A.Tid < B.Tid;
              if (A.StartNs != B.StartNs)
                return A.StartNs < B.StartNs;
              return A.DurNs > B.DurNs;
            });
  const size_t None = SIZE_MAX;
  std::vector<size_t> Job(Events.size(), None);
  std::vector<uint64_t> Self(Events.size());
  std::vector<size_t> Stack;
  for (size_t I = 0; I != Events.size(); ++I) {
    const SpanRec &E = Events[I];
    Self[I] = E.DurNs;
    if (I != 0 && Events[I - 1].Tid != E.Tid)
      Stack.clear();
    while (!Stack.empty()) {
      const SpanRec &Top = Events[Stack.back()];
      if (Top.StartNs + Top.DurNs > E.StartNs)
        break;
      Stack.pop_back();
    }
    if (!Stack.empty()) {
      size_t P = Stack.back();
      const SpanRec &Parent = Events[P];
      // RAII spans nest exactly; clamp anyway so a torn interval can never
      // drive a self time negative.
      uint64_t End = std::min(E.StartNs + E.DurNs,
                              Parent.StartNs + Parent.DurNs);
      Self[P] -= std::min(Self[P], End - E.StartNs);
      Job[I] = Job[P];
    }
    if (E.Name == jobSpanName())
      Job[I] = I;
    Stack.push_back(I);
  }

  SelfTimes R;
  for (size_t I = 0; I != Events.size(); ++I) {
    if (Job[I] == None) {
      ++R.Outside;
      continue;
    }
    R.LayerNs[LayerOf(Events[I].Name)] += Self[I];
    ++R.Spans[Events[I].Name];
    if (Job[I] == I) {
      R.JobNs += Events[I].DurNs;
      ++R.Jobs;
    }
  }
  return R;
}

/// Linear-interpolated quantile of sorted \p V (q in [0, 1]); 0 when empty.
inline double quantileSorted(const std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

inline double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return quantileSorted(V, 0.5);
}

/// The tail percentile a workload reports: the highest rung of a fixed
/// ladder that leaves at least 10 samples beyond it in \p GuaranteedN samples
/// (the job count of the minimum number of passes), so it does not flip
/// between rungs as the number of passes in a run varies.
inline double tailPercentile(size_t GuaranteedN) {
  static const double Ladder[] = {99.9, 99.5, 99, 97.5, 95, 90, 75, 50};
  for (double P : Ladder)
    if ((100.0 - P) / 100.0 * static_cast<double>(GuaranteedN) >= 10.0)
      return P;
  return 50;
}

} // namespace perf
} // namespace dlq

#endif // DLQ_PERFBENCH_SPANMATH_H
