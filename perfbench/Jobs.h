//===- perfbench/Jobs.h - the four benchmark workloads as job lists ------------//
//
// Part of the delinq benchmark. A workload is a list of jobs; one pass
// submits every job once to a JobPool (dependencies respected) and waits for
// all of them. Each job has a Run function (the timed work, with a span
// around each call the benchmark makes into a layer) and a Check function
// that digests the job's results after the pass, outside the timed region.
//
//===----------------------------------------------------------------------===//

#ifndef DLQ_PERFBENCH_JOBS_H
#define DLQ_PERFBENCH_JOBS_H

#include "absint/Lint.h"
#include "camodel/Camodel.h"
#include "classify/Delinquency.h"
#include "exec/Hash.h"
#include "fuzz/Generator.h"
#include "ipa/Summaries.h"
#include "mcc/Compiler.h"
#include "obs/Trace.h"
#include "pipeline/Pipeline.h"
#include "prefetch/Seed.h"
#include "sim/Profile.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dlq {
namespace perf {

using pipeline::InputSel;

inline const sim::CacheConfig &baseCache() {
  static const sim::CacheConfig C = sim::CacheConfig::baseline();
  return C;
}

/// Table 8 (8 KiB, 32 B blocks, 2/4/8-way) and Table 9 (4-way, 8..64 KiB)
/// geometries; the shared 8 KiB 4-way point appears once.
inline std::vector<sim::CacheConfig> sweepGeometries() {
  return {{8192, 2, 32},  {8192, 4, 32},  {8192, 8, 32},
          {16384, 4, 32}, {32768, 4, 32}, {65536, 4, 32}};
}

inline std::string geometryName(const sim::CacheConfig &C) {
  return formatString("%uK%uw", C.SizeBytes / 1024, C.Assoc);
}

inline const char *inputName(InputSel In) {
  return In == InputSel::Input1 ? "input1" : "input2";
}

inline std::string hex64(uint64_t V) {
  return formatString("%016llx", static_cast<unsigned long long>(V));
}

/// Everything the reference pins about one simulation.
inline std::string runDigest(const sim::RunResult &R) {
  exec::Fnv1a E, M;
  for (uint64_t C : R.ExecCounts)
    E.u64(C);
  for (uint64_t C : R.MissCounts)
    M.u64(C);
  std::string S = formatString(
      "halt=%d exit=%d instrs=%llu acc=%llu lmiss=%llu smiss=%llu exech=%s "
      "missh=%s outh=%s",
      static_cast<int>(R.Halt), R.ExitCode,
      static_cast<unsigned long long>(R.InstrsExecuted),
      static_cast<unsigned long long>(R.DataAccesses),
      static_cast<unsigned long long>(R.LoadMisses),
      static_cast<unsigned long long>(R.StoreMisses), hex64(E.value()).c_str(),
      hex64(M.value()).c_str(),
      hex64(exec::fnv1a(R.Output.data(), R.Output.size())).c_str());
  if (R.PrefetchesIssued || !R.PrefetchPerPc.empty())
    S += formatString(" pf_issued=%llu pf_fills=%llu pf_useful=%llu "
                      "pf_late=%llu",
                      static_cast<unsigned long long>(R.PrefetchesIssued),
                      static_cast<unsigned long long>(R.PrefetchFills),
                      static_cast<unsigned long long>(R.PrefetchUseful),
                      static_cast<unsigned long long>(R.PrefetchLate));
  return S;
}

inline std::string evalDigest(const pipeline::HeuristicEval &H) {
  return formatString("lambda=%zu delta=%zu covered=%llu total=%llu",
                      H.E.Lambda, H.E.DeltaSize,
                      static_cast<unsigned long long>(H.E.CoveredMisses),
                      static_cast<unsigned long long>(H.E.TotalMisses));
}

inline uint64_t setHash(const metrics::LoadSet &S) {
  exec::Fnv1a H;
  for (const masm::InstrRef &R : S)
    H.u32(R.FuncIdx).u32(R.InstrIdx);
  return H.value();
}

inline std::string setDigest(const metrics::LoadSet &S) {
  return formatString("n=%zu h=%s", S.size(), hex64(setHash(S)).c_str());
}

inline size_t patternCount(const pipeline::Compiled &C) {
  size_t N = 0;
  for (const auto &[Ref, Pats] : C.Analysis->loadPatterns())
    N += Pats.size();
  return N;
}

/// Work counts a pass reports per layer (summed over its jobs).
struct Counts {
  uint64_t Patterns = 0;  ///< Address patterns built.
  uint64_t Loads = 0;     ///< Loads scored by the classifier.
  uint64_t Flagged = 0;   ///< Loads flagged possibly delinquent.
  uint64_t Known = 0;     ///< camodel predictions with a Known verdict.
  uint64_t Predicted = 0; ///< camodel predictions made.
};

/// What a static-analysis job leaves behind (its module dies with the job).
struct StaticOut {
  bool Ok = false;
  std::string Error;
  size_t Loads = 0, Flagged = 0, Patterns = 0, Known = 0, Predicted = 0,
         Hints = 0, Lint = 0;
  uint64_t FlaggedHash = 0;
};

/// One store request of a job (a run and its eval), replayed by the traced
/// run's store probe on the same keys.
struct Request {
  std::string Workload;
  InputSel In;
  unsigned Opt;
  sim::CacheConfig Cache;
};

struct JobSpec {
  static constexpr size_t NoDep = SIZE_MAX;
  std::string Key;
  size_t Dep = NoDep; ///< A job of the same list that must finish first.
  std::function<void(pipeline::Driver *, StaticOut &)> Run;
  std::function<std::string(pipeline::Driver *, const StaticOut &, Counts &)>
      Check;
  std::vector<Request> Requests;
  std::string FuzzSource; ///< Non-empty for generated programs.
};

inline classify::HeuristicOptions evalOptions() {
  return classify::HeuristicOptions(); // Default delta, trained weights.
}

/// tables-cold (and the first half of warm-replay): the 18 registry
/// workloads x {input1, input2} x {-O0, -O1}, each job compiled -> run ->
/// evalHeuristic -> hotspotLoads(0.90). The warm variant skips the explicit
/// compile, so only the compile work the warm path itself does shows.
inline void addTableJobs(std::vector<JobSpec> &Jobs, bool Warm) {
  for (const workloads::Workload &W : workloads::allWorkloads())
    for (InputSel In : {InputSel::Input1, InputSel::Input2})
      for (unsigned O : {0u, 1u}) {
        JobSpec J;
        J.Key = formatString("%s/%s/O%u", W.Name.c_str(), inputName(In), O);
        std::string N = W.Name;
        J.Run = [N, In, O, Warm](pipeline::Driver *D, StaticOut &) {
          if (!Warm) {
            obs::Span S("driver.compiled");
            D->compiled(N, In, O);
          }
          {
            obs::Span S("driver.run");
            D->run(N, In, O, baseCache());
          }
          {
            obs::Span S("driver.eval");
            D->evalHeuristic(N, In, O, baseCache(), evalOptions());
          }
          obs::Span S("driver.hotspot");
          D->hotspotLoads(N, In, O, baseCache(), 0.90);
        };
        J.Check = [N, In, O](pipeline::Driver *D, const StaticOut &,
                             Counts &C) {
          C.Patterns += patternCount(D->compiled(N, In, O));
          const pipeline::HeuristicEval &H =
              D->evalHeuristic(N, In, O, baseCache(), evalOptions());
          C.Loads += H.E.Lambda;
          C.Flagged += H.E.DeltaSize;
          return "run " + runDigest(D->run(N, In, O, baseCache())) +
                 " | eval " + evalDigest(H) + " | hot " +
                 setDigest(D->hotspotLoads(N, In, O, baseCache(), 0.90));
        };
        J.Requests = {{N, In, O, baseCache()}};
        Jobs.push_back(std::move(J));
      }
}

/// warm-replay's second half: the Table 8/9 geometry runs and evals of the
/// eleven training workloads at -O1 (the baseline point is already in the
/// table jobs).
inline void addGeometryEvalJobs(std::vector<JobSpec> &Jobs) {
  for (const std::string &N : workloads::trainingSetNames())
    for (const sim::CacheConfig &G : sweepGeometries()) {
      if (G.SizeBytes == baseCache().SizeBytes &&
          G.Assoc == baseCache().Assoc)
        continue;
      JobSpec J;
      J.Key = formatString("%s/input1/O1/%s", N.c_str(),
                           geometryName(G).c_str());
      J.Run = [N, G](pipeline::Driver *D, StaticOut &) {
        {
          obs::Span S("driver.run");
          D->run(N, InputSel::Input1, 1, G);
        }
        obs::Span S("driver.eval");
        D->evalHeuristic(N, InputSel::Input1, 1, G, evalOptions());
      };
      J.Check = [N, G](pipeline::Driver *D, const StaticOut &, Counts &C) {
        const pipeline::HeuristicEval &H =
            D->evalHeuristic(N, InputSel::Input1, 1, G, evalOptions());
        C.Loads += H.E.Lambda;
        C.Flagged += H.E.DeltaSize;
        return "run " + runDigest(D->run(N, InputSel::Input1, 1, G)) +
               " | eval " + evalDigest(H);
      };
      J.Requests = {{N, InputSel::Input1, 1, G}};
      Jobs.push_back(std::move(J));
    }
}

/// The armed sets of the prefetch what-if: Delta_H, a |Delta_H|-sized
/// random draw from all loads (seeded per workload, independent of the
/// benchmark seed) and every load.
enum class ArmedSet { DeltaH, Random, All };

inline metrics::LoadSet armedSet(pipeline::Driver &D, const std::string &N,
                                 ArmedSet Kind) {
  const pipeline::HeuristicEval &H =
      D.evalHeuristic(N, InputSel::Input1, 0, baseCache(), evalOptions());
  if (Kind == ArmedSet::DeltaH)
    return H.Delta;
  const pipeline::Compiled &C = D.compiled(N, InputSel::Input1, 0);
  std::vector<masm::InstrRef> AllLoads;
  const auto &Funcs = C.M->functions();
  for (uint32_t FI = 0; FI != Funcs.size(); ++FI) {
    const auto &Body = Funcs[FI].instrs();
    for (uint32_t II = 0; II != Body.size(); ++II)
      if (masm::isLoad(Body[II].Op))
        AllLoads.push_back(masm::InstrRef{FI, II});
  }
  if (Kind == ArmedSet::All)
    return metrics::LoadSet(AllLoads.begin(), AllLoads.end());
  Rng Pick(777 ^ exec::fnv1a(N.data(), N.size()));
  metrics::LoadSet Set;
  while (Set.size() < H.Delta.size() && Set.size() < AllLoads.size())
    Set.insert(AllLoads[Pick.nextBelow(AllLoads.size())]);
  return Set;
}

/// sweep-prefetch: per training workload, the -O1 geometry sweep, and at
/// -O0 the baseline + eval (Delta_H) followed by the armed runs of the
/// prefetch what-if.
inline void addSweepJobs(std::vector<JobSpec> &Jobs) {
  struct Armed {
    const char *Name;
    prefetch::Policy P;
    ArmedSet Set;
  };
  static const Armed ArmedRuns[] = {
      {"none", prefetch::Policy::None, ArmedSet::DeltaH},
      {"nextline", prefetch::Policy::NextLine, ArmedSet::DeltaH},
      {"pcax", prefetch::Policy::Pcax, ArmedSet::DeltaH},
      {"oracle", prefetch::Policy::Oracle, ArmedSet::DeltaH},
      {"pcax-random", prefetch::Policy::Pcax, ArmedSet::Random},
      {"pcax-all", prefetch::Policy::Pcax, ArmedSet::All},
  };
  for (const std::string &N : workloads::trainingSetNames()) {
    JobSpec B;
    B.Key = N + "/input1/O0/base";
    B.Run = [N](pipeline::Driver *D, StaticOut &) {
      {
        obs::Span S("driver.compiled");
        D->compiled(N, InputSel::Input1, 0);
      }
      {
        obs::Span S("driver.run");
        D->run(N, InputSel::Input1, 0, baseCache());
      }
      obs::Span S("driver.eval");
      D->evalHeuristic(N, InputSel::Input1, 0, baseCache(), evalOptions());
    };
    B.Check = [N](pipeline::Driver *D, const StaticOut &, Counts &C) {
      C.Patterns += patternCount(D->compiled(N, InputSel::Input1, 0));
      const pipeline::HeuristicEval &H = D->evalHeuristic(
          N, InputSel::Input1, 0, baseCache(), evalOptions());
      C.Loads += H.E.Lambda;
      C.Flagged += H.E.DeltaSize;
      return "run " +
             runDigest(D->run(N, InputSel::Input1, 0, baseCache())) +
             " | eval " + evalDigest(H);
    };
    size_t BaseIdx = Jobs.size();
    Jobs.push_back(std::move(B));

    for (const sim::CacheConfig &G : sweepGeometries()) {
      JobSpec J;
      J.Key = N + "/input1/O1/" + geometryName(G);
      J.Run = [N, G](pipeline::Driver *D, StaticOut &) {
        obs::Span S("driver.run");
        D->run(N, InputSel::Input1, 1, G);
      };
      bool CountModule = G.SizeBytes == baseCache().SizeBytes &&
                         G.Assoc == baseCache().Assoc;
      J.Check = [N, G, CountModule](pipeline::Driver *D, const StaticOut &,
                                    Counts &C) {
        if (CountModule)
          C.Patterns += patternCount(D->compiled(N, InputSel::Input1, 1));
        return "run " + runDigest(D->run(N, InputSel::Input1, 1, G));
      };
      Jobs.push_back(std::move(J));
    }

    for (const Armed &A : ArmedRuns) {
      JobSpec J;
      J.Key = N + "/input1/O0/" + A.Name;
      J.Dep = BaseIdx;
      prefetch::Policy P = A.P;
      ArmedSet Kind = A.Set;
      J.Run = [N, P, Kind](pipeline::Driver *D, StaticOut &) {
        metrics::LoadSet Set = armedSet(*D, N, Kind);
        obs::Span S("driver.armed");
        D->runWithPrefetchPolicy(N, InputSel::Input1, 0, baseCache(), P, Set);
      };
      J.Check = [N, P, Kind](pipeline::Driver *D, const StaticOut &,
                             Counts &) {
        metrics::LoadSet Set = armedSet(*D, N, Kind);
        return "set " + setDigest(Set) + " | run " +
               runDigest(D->runWithPrefetchPolicy(N, InputSel::Input1, 0,
                                                  baseCache(), P, Set));
      };
      Jobs.push_back(std::move(J));
    }
  }
}

/// static-analyze: one program through the static stack with no simulator:
/// compile -> Layout + CFGs -> IPA summaries (k=3) -> ModuleAnalysis with
/// IPA -> static scores -> camodel predictions -> prefetch seeds -> lint.
inline void staticJob(const std::string &Source, unsigned Opt, StaticOut &Out) {
  mcc::CompileOptions CO;
  CO.OptLevel = Opt;
  mcc::CompileResult CR = [&] {
    obs::Span S("mcc.compile");
    return mcc::compile(Source, CO);
  }();
  if (!CR.ok()) {
    Out.Error = CR.Errors;
    return;
  }
  const masm::Module &M = *CR.M;
  std::unique_ptr<masm::Layout> L;
  {
    obs::Span S("cfg.build");
    L = std::make_unique<masm::Layout>(M);
    std::vector<cfg::Cfg> Cfgs = sim::buildAllCfgs(M);
  }
  ipa::IpaOptions IO;
  IO.Enable = true;
  IO.ContextK = 3;
  std::unique_ptr<ipa::ModuleSummaries> Sums;
  {
    obs::Span S("ipa.summaries");
    Sums = std::make_unique<ipa::ModuleSummaries>(M, *L, IO);
  }
  std::unique_ptr<classify::ModuleAnalysis> A;
  {
    obs::Span S("ap.module_analysis");
    A = std::make_unique<classify::ModuleAnalysis>(M, ap::ApBuilderOptions(),
                                                   IO);
  }
  {
    obs::Span S("classify.scores");
    classify::HeuristicOptions H;
    H.UseFreqClasses = false; // Static only: no H5 profile.
    metrics::LoadSet Flagged;
    for (const auto &[Ref, Phi] : A->scores(H, nullptr))
      if (classify::isPossiblyDelinquent(Phi, H))
        Flagged.insert(Ref);
    Out.Loads = A->loadPatterns().size();
    Out.Flagged = Flagged.size();
    Out.FlaggedHash = setHash(Flagged);
  }
  for (const auto &[Ref, Pats] : A->loadPatterns())
    Out.Patterns += Pats.size();
  {
    obs::Span S("camodel.predict");
    camodel::CacheModel CM(M, *L, Sums.get());
    for (const auto &[Ref, P] : CM.predict(baseCache())) {
      ++Out.Predicted;
      Out.Known += P.Known;
    }
  }
  {
    obs::Span S("prefetch.hints");
    Out.Hints =
        prefetch::buildStaticHints(M, *L, A->loadPatterns(), Sums.get()).size();
  }
  {
    obs::Span S("absint.lint");
    absint::LintOptions LO;
    LO.Ipa = Sums.get();
    Out.Lint = absint::lintModule(M, LO).size();
  }
  Out.Ok = true;
}

inline std::string staticDigest(const StaticOut &O, Counts &C) {
  if (!O.Ok)
    return "compile-error " + O.Error;
  C.Patterns += O.Patterns;
  C.Loads += O.Loads;
  C.Flagged += O.Flagged;
  C.Known += O.Known;
  C.Predicted += O.Predicted;
  return formatString("loads=%zu flagged=%zu fh=%s patterns=%zu known=%zu "
                      "predicted=%zu hints=%zu lint=%zu",
                      O.Loads, O.Flagged, hex64(O.FlaggedHash).c_str(),
                      O.Patterns, O.Known, O.Predicted, O.Hints, O.Lint);
}

/// Adds one static job per opt level for \p Source. The source must outlive
/// the job list (the caller keeps it in stable storage).
inline void addStaticJobs(std::vector<JobSpec> &Jobs, const std::string &Label,
                          const std::string *Source, bool Fuzz) {
  for (unsigned O : {0u, 1u}) {
    JobSpec J;
    J.Key = formatString("%s/O%u", Label.c_str(), O);
    J.Run = [Source, O](pipeline::Driver *, StaticOut &Out) {
      staticJob(*Source, O, Out);
    };
    J.Check = [](pipeline::Driver *, const StaticOut &Out, Counts &C) {
      return staticDigest(Out, C);
    };
    if (Fuzz)
      J.FuzzSource = *Source;
    Jobs.push_back(std::move(J));
  }
}

} // namespace perf
} // namespace dlq

#endif // DLQ_PERFBENCH_JOBS_H
