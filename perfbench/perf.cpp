//===- perfbench/perf.cpp - the delinq repository benchmark -------------------//
//
// Part of the delinq benchmark. One process runs one workload:
//
//   delinq_perf --workload W --seed N --seconds S --trace 0|1
//               --reference perfbench/reference.tsv --work-dir DIR
//   delinq_perf --record --work-dir DIR     (prints a fresh reference)
//   delinq_perf --self-test                 (pins SpanMath.h arithmetic)
//
// The load is a closed loop: one client submits a pass (every job of the
// workload, in a seeded order), waits for all of them, then submits the
// next pass, until --seconds have passed. Results are checked against the
// reference after each pass, outside the timed region. The last line of
// stdout is the JSON result object; the human-readable report goes to
// stderr. perfbench/NOTES.md documents the workloads and metrics.
//
//===----------------------------------------------------------------------===//

#include "Jobs.h"
#include "SpanMath.h"

#include "exec/JobPool.h"
#include "exec/ResultStore.h"
#include "exec/Serialize.h"
#include "fuzz/Oracles.h"
#include "obs/Counters.h"

#include <sched.h>
#include <time.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace dlq;
using namespace dlq::perf;
namespace fs = std::filesystem;

namespace {

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuS() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  auto S = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) * 1e-6;
  };
  return S(U.ru_utime) + S(U.ru_stime);
}

/// Resets the process's resident-set high-water mark (Linux clear_refs
/// "5"), so each pass reads its own peak; false where that is unsupported.
bool resetPeakRss() {
  std::ofstream F("/proc/self/clear_refs");
  return F && (F << "5").flush();
}

/// Peak resident set since the last reset (VmHWM), falling back to the
/// process lifetime peak from getrusage.
double peakRssMb() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // KiB.
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// Worker count: the CPUs this process may run on, at most 4, so the
/// configuration is the same on any box with at least four.
unsigned workerCount() {
  cpu_set_t Set;
  unsigned N = 1;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    N = static_cast<unsigned>(CPU_COUNT(&Set));
  return std::max(1u, std::min(4u, N));
}

//===-- Host speed ------------------------------------------------------===//

/// The probe time of the nominal host that end-to-end times are scaled to:
/// about what an otherwise idle 4-vCPU Xeon VM measured.
constexpr double NominalCalibS = 0.0125;

double threadCpuS() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

/// Host speed probe: the mean per-thread CPU time of a fixed integer task
/// (xorshift updates of an L2-resident table) that does not depend on the
/// code under test, run on every worker thread at once. CPU time, not wall
/// time, so time-slicing by other processes does not move it; a host that
/// executes instructions more slowly (a busy sibling hyperthread, a lower
/// clock) does.
double calibrationS() {
  unsigned N = workerCount();
  std::vector<double> Cpu(N);
  std::vector<uint64_t> Sums(N);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != N; ++I)
    Threads.emplace_back([&Cpu, &Sums, I] {
      double T0 = threadCpuS();
      std::vector<uint32_t> T(1u << 15);
      uint64_t X = 0x9E3779B97F4A7C15ull;
      for (unsigned K = 0; K != 4'000'000; ++K) {
        X ^= X << 13;
        X ^= X >> 7;
        X ^= X << 17;
        T[X & 0x7fff] += static_cast<uint32_t>(X >> 40);
      }
      for (uint32_t V : T)
        Sums[I] += V;
      Cpu[I] = threadCpuS() - T0;
    });
  for (std::thread &T : Threads)
    T.join();
  // Every thread computes the same table; the sum keeps the loop live.
  if (std::adjacent_find(Sums.begin(), Sums.end(),
                         std::not_equal_to<>()) != Sums.end())
    std::fprintf(stderr, "warning: calibration threads disagree\n");
  double Sum = 0;
  for (double C : Cpu)
    Sum += C;
  return Sum / N;
}

//===-- Counters --------------------------------------------------------===//

using CounterMap = std::map<std::string, uint64_t>;

CounterMap snapshotCounters() {
  CounterMap M;
  obs::counters().forEachCounter(
      [&](const std::string &N, const obs::Counter &C) { M[N] = C.value(); });
  obs::counters().forEachHistogram(
      [&](const std::string &N, const obs::Histogram &H) {
        M[N + ".count"] = H.count();
        M[N + ".sum"] = H.sum();
      });
  return M;
}

CounterMap counterDelta(const CounterMap &Before, const CounterMap &After) {
  CounterMap D;
  for (const auto &[N, V] : After) {
    auto It = Before.find(N);
    D[N] = V - (It == Before.end() ? 0 : It->second);
  }
  return D;
}

uint64_t get(const CounterMap &M, const std::string &N) {
  auto It = M.find(N);
  return It == M.end() ? 0 : It->second;
}

//===-- Layers ----------------------------------------------------------===//

/// Maps a span name (the program's stage.* spans and the benchmark's own
/// spans around its calls into each layer) to the layer its self time is
/// charged to. The job span's own self time is the unattributed remainder.
std::string layerOf(const std::string &Name) {
  static const std::map<std::string, std::string> Map = {
      {"job.run", "pipeline.unattributed"},
      {"driver.compiled", "pipeline.driver"},
      {"driver.run", "pipeline.driver"},
      {"driver.eval", "pipeline.driver"},
      {"driver.hotspot", "pipeline.driver"},
      {"driver.armed", "pipeline.driver"},
      {"stage.compile", "mcc"},
      {"mcc.compile", "mcc"},
      {"stage.cfg", "cfg"},
      {"cfg.build", "cfg"},
      {"stage.ap-build", "ap"},
      {"stage.dataflow", "ap"},
      {"stage.ipa-patterns", "ap"},
      {"ap.module_analysis", "ap"},
      {"phase.compile", "ap"},
      {"stage.classify", "classify"},
      {"classify.scores", "classify"},
      {"phase.analyze", "classify"},
      {"stage.ipa", "ipa"},
      {"ipa.summaries", "ipa"},
      {"absint.lint", "absint"},
      {"camodel.predict", "camodel"},
      {"stage.freq", "freq"},
      {"stage.prefetch_hints", "prefetch"},
      {"prefetch.hints", "prefetch"},
      {"stage.predecode", "sim.predecode"},
      {"stage.sim", "sim.run"},
      {"stage.pf_record", "sim.run"},
      {"phase.simulate", "sim.run"},
      {"sim.jit.compile", "jit"},
  };
  auto It = Map.find(Name);
  return It == Map.end() ? "unmapped:" + Name : It->second;
}

//===-- Reference -------------------------------------------------------===//

/// workload -> job key -> digest, from the reference TSV.
using Reference = std::map<std::string, std::map<std::string, std::string>>;

bool loadReference(const std::string &Path, Reference &Ref) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t T1 = Line.find('\t');
    size_t T2 = T1 == std::string::npos ? T1 : Line.find('\t', T1 + 1);
    if (T2 == std::string::npos)
      return false;
    Ref[Line.substr(0, T1)][Line.substr(T1 + 1, T2 - T1 - 1)] =
        Line.substr(T2 + 1);
  }
  return true;
}

//===-- Workloads -------------------------------------------------------===//

struct Workload {
  std::string Name;
  bool UsesDriver = true;
  bool FreshStorePerPass = false; ///< tables-cold: empty store dir per pass.
  bool WarmStore = false;         ///< warm-replay: store populated in set-up.
  /// Set-up repeats before the first pass and after each pass; the median
  /// of all of them is reported. Sub-millisecond set-ups need many.
  unsigned SetupRepeats = 11;
  unsigned SetupRepeatsPerPass = 11;
  unsigned MinPasses = 3;
  std::vector<JobSpec> Jobs;
  std::map<std::string, std::string> Sources; ///< Stable storage for jobs.
  std::string WarmDir; ///< The populated store warm passes read.
};

const char *const WorkloadNames[] = {"tables-cold", "sweep-prefetch",
                                     "static-analyze", "warm-replay"};

/// Generated programs in a static-analyze pass. Their analysis cost grows
/// with source size, so the draw keeps programs inside a size band: the
/// seed still picks the programs, but the pass cost varies little with it.
constexpr unsigned FuzzPrograms = 12;
constexpr size_t FuzzMinBytes = 2500, FuzzMaxBytes = 4000;

bool makeWorkload(const std::string &Name, Workload &W) {
  W = Workload();
  W.Name = Name;
  if (Name == "tables-cold") {
    W.FreshStorePerPass = true;
  } else if (Name == "sweep-prefetch") {
  } else if (Name == "static-analyze") {
    W.UsesDriver = false;
  } else if (Name == "warm-replay") {
    W.WarmStore = true;
    W.SetupRepeats = 3;
    W.SetupRepeatsPerPass = 0;
  } else {
    return false;
  }
  return true;
}

/// Source instantiation and job-list construction (the set-up every
/// workload has); warm-replay adds its store population separately.
void buildJobs(Workload &W, uint64_t Seed) {
  W.Jobs.clear();
  W.Sources.clear();
  // Instantiate every source the workload's programs use. The Driver
  // instantiates its own copies; these feed the static jobs and the store
  // probe's key computation.
  for (const workloads::Workload &R : workloads::allWorkloads())
    for (InputSel In : {InputSel::Input1, InputSel::Input2})
      W.Sources[R.Name + "/" + inputName(In)] = workloads::instantiate(
          R, pipeline::Driver::inputOf(R, In));
  if (W.Name == "tables-cold") {
    addTableJobs(W.Jobs, /*Warm=*/false);
  } else if (W.Name == "sweep-prefetch") {
    addSweepJobs(W.Jobs);
  } else if (W.Name == "warm-replay") {
    addTableJobs(W.Jobs, /*Warm=*/true);
    addGeometryEvalJobs(W.Jobs);
  } else {
    for (const workloads::Workload &R : workloads::allWorkloads())
      addStaticJobs(W.Jobs, "static/" + R.Name,
                    &W.Sources.at(R.Name + "/input1"), false);
    Rng Draw(Seed ^ 0x5eedf00dull);
    for (unsigned I = 0; I != FuzzPrograms;) {
      uint64_t ProgSeed = Draw.next();
      fuzz::GeneratorOptions GO;
      GO.InterprocDepth = 1 + static_cast<unsigned>(Draw.nextBelow(3));
      std::string Src = fuzz::generateProgram(ProgSeed, GO);
      if (Src.size() < FuzzMinBytes || Src.size() > FuzzMaxBytes)
        continue;
      std::string Label = formatString("fuzz/%s/d%u", hex64(ProgSeed).c_str(),
                                       GO.InterprocDepth);
      std::string &Slot = W.Sources[Label];
      Slot = std::move(Src);
      addStaticJobs(W.Jobs, Label, &Slot, true);
      ++I;
    }
  }
}

pipeline::Driver *newDriver(std::unique_ptr<pipeline::Driver> &Owner,
                            const std::string &StoreDir) {
  exec::ExecOptions O;
  O.Jobs = workerCount();
  O.UseDiskCache = !StoreDir.empty();
  O.CacheDir = StoreDir;
  Owner = std::make_unique<pipeline::Driver>(O);
  return Owner.get();
}

/// Job order for one pass: the seeded shuffle of the jobs with no
/// dependency, then the seeded shuffle of the dependent ones (their
/// dependencies are always roots, so TaskSet sees edges to earlier ids).
std::vector<size_t> passOrder(const std::vector<JobSpec> &Jobs, Rng &R) {
  std::vector<size_t> Roots, Deps;
  for (size_t I = 0; I != Jobs.size(); ++I)
    (Jobs[I].Dep == JobSpec::NoDep ? Roots : Deps).push_back(I);
  auto Shuffle = [&R](std::vector<size_t> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[R.nextBelow(I)]);
  };
  Shuffle(Roots);
  Shuffle(Deps);
  Roots.insert(Roots.end(), Deps.begin(), Deps.end());
  return Roots;
}

//===-- One pass --------------------------------------------------------===//

struct ProbeTimes {
  double KeyMs = 0, LookupMs = 0, WriteMs = 0;
};

struct PassResult {
  bool Traced = false;
  double WallS = 0, CpuS = 0;
  double PeakRssMb = 0; ///< Resident-set peak during the pass.
  std::vector<double> JobMs; ///< Per-job service time; < 0 = not completed.
  CounterMap Counters;       ///< Global counter deltas over the pass.
  Counts Work;
  SelfTimes Self;
  ProbeTimes Probe;
  size_t Failed = 0;
  std::map<std::string, std::string> Digests; ///< Job key -> digest.
};

/// Runs every job once. \p StoreDir empty = store off.
PassResult runPass(Workload &W, Rng &OrderRng, bool Traced,
                   const std::string &StoreDir) {
  PassResult P;
  P.Traced = Traced;
  std::vector<size_t> Order = passOrder(W.Jobs, OrderRng);
  std::vector<StaticOut> Outs(W.Jobs.size());
  P.JobMs.assign(W.Jobs.size(), -1.0);

  obs::Tracer &T = obs::Tracer::instance();
  if (Traced) {
    T.clear();
    T.enable();
  }
  CounterMap Before = snapshotCounters();
  resetPeakRss();
  double Wall0 = nowS(), Cpu0 = cpuS();

  std::unique_ptr<pipeline::Driver> DOwner;
  std::unique_ptr<exec::JobPool> OwnPool;
  pipeline::Driver *D = W.UsesDriver ? newDriver(DOwner, StoreDir) : nullptr;
  if (!D)
    OwnPool = std::make_unique<exec::JobPool>(workerCount());
  exec::JobPool &Pool = D ? D->pool() : *OwnPool;
  try {
    exec::TaskSet Tasks(Pool);
    std::vector<size_t> TaskId(W.Jobs.size());
    for (size_t I : Order) {
      std::vector<size_t> Deps;
      if (W.Jobs[I].Dep != JobSpec::NoDep)
        Deps.push_back(TaskId[W.Jobs[I].Dep]);
      TaskId[I] = Tasks.add(
          [&, I] {
            double S = nowS();
            W.Jobs[I].Run(D, Outs[I]);
            P.JobMs[I] = (nowS() - S) * 1e3;
          },
          Deps);
    }
    Tasks.run();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: job failed: %s\n", E.what());
  }

  P.WallS = nowS() - Wall0;
  P.CpuS = cpuS() - Cpu0;
  P.PeakRssMb = peakRssMb();
  P.Counters = counterDelta(Before, snapshotCounters());
  if (Traced) {
    T.disable();
    std::vector<SpanRec> Spans;
    for (const obs::TraceEvent &E : T.snapshot())
      Spans.push_back({E.Name, E.StartNs, E.DurNs, E.Tid});
    T.clear();
    P.Self = selfTimes(std::move(Spans), layerOf);
  }

  // Everything below is outside the timed region.
  for (size_t I = 0; I != W.Jobs.size(); ++I)
    if (P.JobMs[I] >= 0)
      P.Digests[W.Jobs[I].Key] = W.Jobs[I].Check(D, Outs[I], P.Work);
  return P;
}

/// The traced run's store probe: recomputes the pass's run and eval keys
/// with Driver::runKeyOf/evalKeyOf, reads each entry back from \p StoreDir
/// (decoding run results), and writes the same payloads to a scratch store.
/// Returns false when a key the pass requested is missing from the store.
bool probeStore(const Workload &W, const std::string &StoreDir,
                const std::string &ScratchDir, ProbeTimes &Out) {
  std::vector<std::pair<uint64_t, bool>> Keys; // (key, is run)
  double T0 = nowS();
  for (const JobSpec &J : W.Jobs)
    for (const Request &R : J.Requests) {
      uint64_t RunKey = pipeline::Driver::runKeyOf(
          W.Sources.at(R.Workload + "/" + inputName(R.In)), inputName(R.In),
          R.Opt, R.Cache, 400'000'000, metrics::LoadSet());
      Keys.push_back({RunKey, true});
      Keys.push_back({pipeline::Driver::evalKeyOf(RunKey, evalOptions(),
                                                  ap::ApBuilderOptions()),
                      false});
    }
  double T1 = nowS();
  exec::ResultStore Store(StoreDir);
  std::vector<std::vector<uint8_t>> Payloads(Keys.size());
  bool AllHit = true;
  for (size_t I = 0; I != Keys.size(); ++I) {
    if (!Store.lookup(Keys[I].first, Payloads[I])) {
      AllHit = false;
      continue;
    }
    if (Keys[I].second) {
      sim::RunResult R;
      exec::ByteReader Reader(Payloads[I]);
      AllHit &= exec::readRunResult(Reader, R) && Reader.atEnd();
    }
  }
  double T2 = nowS();
  exec::ResultStore Scratch(ScratchDir);
  for (size_t I = 0; I != Keys.size(); ++I)
    Scratch.store(Keys[I].first, Payloads[I]);
  double T3 = nowS();
  std::error_code EC;
  fs::remove_all(ScratchDir, EC);
  Out.KeyMs = (T1 - T0) * 1e3;
  Out.LookupMs = (T2 - T1) * 1e3;
  Out.WriteMs = (T3 - T2) * 1e3;
  return AllHit;
}

//===-- Checks ----------------------------------------------------------===//

/// Compares each pass's digests with the reference (registry programs) or
/// with the first pass (generated programs, which the seed picks and the
/// fuzz oracles check once), and applies the workload's own invariants.
class Verifier {
public:
  Verifier(const Workload &W, std::map<std::string, std::string> Ref)
      : W(W), Ref(std::move(Ref)) {}

  /// Returns the number of failed jobs in \p P (also stored in P.Failed).
  size_t check(PassResult &P, size_t PassNo) {
    size_t Failed = 0;
    for (size_t I = 0; I != W.Jobs.size(); ++I) {
      const JobSpec &J = W.Jobs[I];
      auto Got = P.Digests.find(J.Key);
      if (Got == P.Digests.end()) {
        fail(Failed, PassNo, J.Key, "job did not complete");
        continue;
      }
      if (!J.FuzzSource.empty()) {
        checkFuzz(Failed, PassNo, J, Got->second);
        continue;
      }
      auto Want = Ref.find(J.Key);
      if (Want == Ref.end())
        fail(Failed, PassNo, J.Key, "no reference row");
      else if (Want->second != Got->second)
        fail(Failed, PassNo, J.Key,
             "got '" + Got->second + "', want '" + Want->second + "'");
    }
    if (W.WarmStore) {
      // Every warm request must replay from the store: no miss, no write,
      // no simulation.
      uint64_t Hits = get(P.Counters, "store.hits");
      uint64_t Misses = get(P.Counters, "store.misses");
      uint64_t Runs = get(P.Counters, "sim.runs");
      if (Misses != 0 || Hits == 0 || Runs != 0 ||
          get(P.Counters, "store.writes") != 0) {
        std::fprintf(stderr,
                     "FAIL pass %zu: warm pass had %llu hits, %llu misses, "
                     "%llu simulations\n",
                     PassNo, static_cast<unsigned long long>(Hits),
                     static_cast<unsigned long long>(Misses),
                     static_cast<unsigned long long>(Runs));
        Failed = W.Jobs.size();
      }
    }
    if (P.Traced && P.Self.layerSumNs() != P.Self.JobNs) {
      std::fprintf(stderr,
                   "FAIL pass %zu: layer self times sum to %llu ns, traced "
                   "job time is %llu ns\n",
                   PassNo, static_cast<unsigned long long>(P.Self.layerSumNs()),
                   static_cast<unsigned long long>(P.Self.JobNs));
      Failed = W.Jobs.size();
    }
    P.Failed = std::min(Failed, W.Jobs.size());
    return P.Failed;
  }

private:
  void fail(size_t &Failed, size_t PassNo, const std::string &Key,
            const std::string &Why) {
    ++Failed;
    if (++Reported <= 10)
      std::fprintf(stderr, "FAIL pass %zu %s: %s\n", PassNo, Key.c_str(),
                   Why.c_str());
  }

  void checkFuzz(size_t &Failed, size_t PassNo, const JobSpec &J,
                 const std::string &Digest) {
    auto [It, First] = FirstDigest.insert({J.Key, Digest});
    if (!First && It->second != Digest)
      fail(Failed, PassNo, J.Key, "digest changed between passes");
    if (Digest.rfind("compile-error", 0) == 0)
      fail(Failed, PassNo, J.Key, Digest);
    auto [OIt, New] = OracleClean.insert({J.FuzzSource, true});
    if (New) {
      // The AP/classifier invariants of the fuzz oracles only.
      fuzz::OracleOptions O;
      O.CheckLint = O.CheckJit = O.CheckIpa = false;
      fuzz::OracleReport Rep = fuzz::runOracles(J.FuzzSource, O);
      OIt->second = Rep.clean();
      for (const fuzz::OracleFinding &F : Rep.Findings)
        std::fprintf(stderr, "FAIL %s: oracle %s: %s\n", J.Key.c_str(),
                     std::string(fuzz::oracleName(F.Id)).c_str(),
                     F.Detail.c_str());
    }
    if (!OIt->second)
      fail(Failed, PassNo, J.Key, "fuzz oracle finding");
  }

  const Workload &W;
  std::map<std::string, std::string> Ref;
  std::map<std::string, std::string> FirstDigest;
  std::map<std::string, bool> OracleClean; ///< Keyed by program source.
  size_t Reported = 0;
};

//===-- Metrics ---------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string S = "{";
  for (size_t I = 0; I != Ms.size(); ++I)
    S += formatString("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                      Ms[I].Unit.c_str());
  return S + "}";
}

double ratio(double Num, double Den) { return Den == 0 ? 0 : Num / Den; }

/// Median over \p Passes of a per-pass value.
template <typename Fn>
double medianOf(const std::vector<const PassResult *> &Passes, Fn F) {
  std::vector<double> V;
  for (const PassResult *P : Passes)
    V.push_back(F(*P));
  return median(V);
}

std::vector<Metric> endToEnd(const Workload &W,
                             const std::vector<const PassResult *> &Passes,
                             const std::vector<double> &SetupS) {
  std::vector<double> Jobs;
  for (const PassResult *P : Passes)
    for (double Ms : P->JobMs)
      if (Ms >= 0)
        Jobs.push_back(Ms);
  std::sort(Jobs.begin(), Jobs.end());
  double TailPct = tailPercentile(W.MinPasses * W.Jobs.size());
  std::fprintf(stderr,
               "job service time: %zu samples over %zu passes; tail is p%g "
               "(>= 10 samples beyond it in %u passes)\n",
               Jobs.size(), Passes.size(), TailPct, W.MinPasses);
  return {
      {"wall_s", medianOf(Passes, [](const PassResult &P) { return P.WallS; }),
       "s"},
      {"cpu_s", medianOf(Passes, [](const PassResult &P) { return P.CpuS; }),
       "s"},
      {"job_p50_ms", quantileSorted(Jobs, 0.5), "ms"},
      {"job_tail_ms", quantileSorted(Jobs, TailPct / 100.0), "ms"},
      {"setup_s", median(SetupS), "s"},
      {"peak_rss_mb",
       medianOf(Passes, [](const PassResult &P) { return P.PeakRssMb; }),
       "MiB"},
  };
}

std::vector<Metric> perLayer(const std::vector<const PassResult *> &All,
                             const std::vector<const PassResult *> &Traced,
                             const std::vector<const PassResult *> &Untraced) {
  auto Ns = [](const PassResult &P, const char *Layer) {
    auto It = P.Self.LayerNs.find(Layer);
    return It == P.Self.LayerNs.end() ? 0.0
                                      : static_cast<double>(It->second) * 1e-6;
  };
  auto Span = [&](const char *Layer) {
    return medianOf(Traced, [&](const PassResult &P) { return Ns(P, Layer); });
  };
  auto SpanCount = [&](std::initializer_list<const char *> Names) {
    return medianOf(Traced, [&](const PassResult &P) {
      double N = 0;
      for (const char *Name : Names) {
        auto It = P.Self.Spans.find(Name);
        N += It == P.Self.Spans.end() ? 0 : static_cast<double>(It->second);
      }
      return N;
    });
  };
  auto C = [&](const char *Name) {
    return medianOf(All, [&](const PassResult &P) {
      return static_cast<double>(get(P.Counters, Name));
    });
  };
  auto CRatio = [&](const char *Num, const char *Den) {
    return medianOf(All, [&](const PassResult &P) {
      return ratio(static_cast<double>(get(P.Counters, Num)),
                   static_cast<double>(get(P.Counters, Den)));
    });
  };
  auto HistMeanMs = [&](const char *Hist) {
    std::string N = Hist;
    return medianOf(All, [&](const PassResult &P) {
      return ratio(static_cast<double>(get(P.Counters, N + ".sum")),
                   static_cast<double>(get(P.Counters, N + ".count"))) *
             1e-6;
    });
  };
  auto W = [&](auto F) { return medianOf(All, F); };
  double TracedWall =
      medianOf(Traced, [](const PassResult &P) { return P.WallS; });
  double UntracedWall =
      medianOf(Untraced, [](const PassResult &P) { return P.WallS; });

  return {
      {"pipeline.job_ms",
       medianOf(Traced,
                [](const PassResult &P) {
                  return static_cast<double>(P.Self.JobNs) * 1e-6;
                }),
       "ms"},
      {"pipeline.unattributed_ms", Span("pipeline.unattributed"), "ms"},
      {"pipeline.driver_ms", Span("pipeline.driver"), "ms"},
      {"pipeline.run_key_ms",
       medianOf(Traced, [](const PassResult &P) { return P.Probe.KeyMs; }),
       "ms"},
      {"mcc.compile_ms", Span("mcc"), "ms"},
      {"mcc.compiles", SpanCount({"stage.compile", "mcc.compile"}), "count"},
      {"cfg.build_ms", Span("cfg"), "ms"},
      {"ap.module_analysis_ms", Span("ap"), "ms"},
      {"ap.patterns",
       W([](const PassResult &P) {
         return static_cast<double>(P.Work.Patterns);
       }),
       "count"},
      {"classify.scores_ms", Span("classify"), "ms"},
      {"classify.loads",
       W([](const PassResult &P) { return static_cast<double>(P.Work.Loads); }),
       "count"},
      {"classify.flagged",
       W([](const PassResult &P) {
         return static_cast<double>(P.Work.Flagged);
       }),
       "count"},
      {"ipa.summaries_ms", Span("ipa"), "ms"},
      {"ipa.contexts", C("ipa.contexts"), "count"},
      {"ipa.budget_hits", C("ipa.budget_hits"), "count"},
      {"absint.ms", Span("absint"), "ms"},
      {"camodel.predict_ms", Span("camodel"), "ms"},
      {"camodel.known_share",
       W([](const PassResult &P) {
         return ratio(static_cast<double>(P.Work.Known),
                      static_cast<double>(P.Work.Predicted));
       }),
       "ratio"},
      {"freq.hotspot_ms", Span("freq"), "ms"},
      {"prefetch.hints_ms", Span("prefetch"), "ms"},
      {"prefetch.issued", C("sim.prefetch.issued"), "count"},
      {"prefetch.useful_ratio",
       CRatio("sim.prefetch.useful", "sim.prefetch.issued"), "ratio"},
      {"prefetch.late", C("sim.prefetch.late"), "count"},
      {"sim.predecode_ms", Span("sim.predecode"), "ms"},
      {"sim.run_ms", Span("sim.run"), "ms"},
      {"sim.runs", C("sim.runs"), "count"},
      {"sim.instrs_retired", C("sim.instrs_retired"), "count"},
      {"sim.minstr_per_s",
       medianOf(Traced,
                [&](const PassResult &P) {
                  return ratio(static_cast<double>(
                                   get(P.Counters, "sim.instrs_retired")) *
                                   1e-6,
                               Ns(P, "sim.run") * 1e-3);
                }),
       "Minstr/s"},
      {"sim.data_accesses", C("sim.data_accesses"), "count"},
      {"sim.load_misses", C("sim.load_misses"), "count"},
      {"sim.dispatches", C("sim.dispatches"), "count"},
      {"jit.compile_ms", Span("jit"), "ms"},
      {"jit.blocks_compiled", C("sim.jit.blocks_compiled"), "count"},
      {"jit.code_bytes", C("sim.jit.code_bytes"), "bytes"},
      {"jit.deopts", C("sim.jit.deopts"), "count"},
      {"jit.interp_retire_share",
       CRatio("sim.jit.interp_retires", "sim.instrs_retired"), "ratio"},
      {"store.lookup_ms",
       medianOf(Traced, [](const PassResult &P) { return P.Probe.LookupMs; }),
       "ms"},
      {"store.write_ms",
       medianOf(Traced, [](const PassResult &P) { return P.Probe.WriteMs; }),
       "ms"},
      {"store.hits", C("store.hits"), "count"},
      {"store.misses", C("store.misses"), "count"},
      {"store.hit_ratio",
       medianOf(All,
                [](const PassResult &P) {
                  double H = static_cast<double>(get(P.Counters, "store.hits"));
                  double M =
                      static_cast<double>(get(P.Counters, "store.misses"));
                  return ratio(H, H + M);
                }),
       "ratio"},
      {"store.bytes_read", C("store.bytes_read"), "bytes"},
      {"store.bytes_written", C("store.bytes_written"), "bytes"},
      {"exec.queue_wait_ms", HistMeanMs("job.queue_wait.ns"), "ms"},
      {"exec.job_run_ms", HistMeanMs("job.run.ns"), "ms"},
      {"trace.overhead_ms", (TracedWall - UntracedWall) * 1e3, "ms"},
  };
}

/// Prints where traced job time went, largest self time first, and the
/// accounting identity the checks assert.
void reportSelfTimes(const std::vector<const PassResult *> &Traced) {
  std::map<std::string, double> Layer;
  double Job = 0;
  for (const PassResult *P : Traced) {
    for (const auto &[L, Ns] : P->Self.LayerNs)
      Layer[L] += static_cast<double>(Ns) * 1e-6 / Traced.size();
    Job += static_cast<double>(P->Self.JobNs) * 1e-6 / Traced.size();
  }
  std::vector<std::pair<double, std::string>> Rank;
  double Sum = 0;
  for (const auto &[L, Ms] : Layer) {
    Rank.push_back({Ms, L});
    Sum += Ms;
  }
  std::sort(Rank.rbegin(), Rank.rend());
  std::fprintf(stderr, "self time per traced pass (mean of %zu):\n",
               Traced.size());
  for (const auto &[Ms, L] : Rank)
    std::fprintf(stderr, "  %-24s %10.3f ms  %5.1f%%\n", L.c_str(), Ms,
                 100.0 * ratio(Ms, Job));
  std::fprintf(stderr, "  %-24s %10.3f ms (traced job time %.3f ms)\n",
               "sum", Sum, Job);
}

//===-- Set-up and the run loop -----------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Reference;
  std::string WorkDir = ".bench_build/work";
};

/// One set-up: source instantiation and job lists, plus (warm-replay) a
/// cold population of a fresh store directory with the workload's requests.
void setupOnce(Workload &W, uint64_t Seed, const std::string &Dir) {
  buildJobs(W, Seed);
  if (!W.WarmStore)
    return;
  Rng Order(Seed);
  std::error_code EC;
  fs::remove_all(Dir, EC);
  runPass(W, Order, /*Traced=*/false, Dir);
  W.WarmDir = Dir;
}

int runWorkload(const Args &A) {
  Workload W;
  if (!makeWorkload(A.Workload, W)) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }
  Reference Ref;
  if (!loadReference(A.Reference, Ref) || Ref[W.Name].empty()) {
    std::fprintf(stderr, "error: no reference rows for '%s' in '%s'\n",
                 W.Name.c_str(), A.Reference.c_str());
    return 2;
  }
  std::string Work = A.WorkDir + "/" + W.Name + "-" +
                     std::to_string(static_cast<long>(getpid()));
  std::error_code EC;
  fs::create_directories(Work, EC);

  // Set-up runs before the first pass. Cheap set-ups repeat after every
  // pass too, so their median samples the whole run, not one moment of it.
  std::vector<double> SetupS;
  auto TimeSetups = [&](unsigned Reps) {
    for (unsigned R = 0; R != Reps; ++R) {
      std::string Old = W.WarmDir;
      double T0 = nowS();
      setupOnce(W, A.Seed, Work + "/warm-" + std::to_string(SetupS.size()));
      SetupS.push_back(nowS() - T0);
      if (!Old.empty())
        fs::remove_all(Old, EC);
    }
  };
  std::vector<double> CalibS = {calibrationS()};
  double LastCalib = nowS();
  TimeSetups(W.SetupRepeats);
  CalibS.push_back(calibrationS());

  Verifier V(W, Ref[W.Name]);
  Rng Order(A.Seed);
  std::vector<PassResult> Passes;
  size_t Attempted = 0, Failed = 0, NU = 0, NT = 0;
  double Start = nowS();
  for (size_t PassNo = 0;; ++PassNo) {
    bool Traced = A.Trace && PassNo % 2 == 1;
    std::string Dir = W.WarmStore ? W.WarmDir : "";
    if (W.FreshStorePerPass)
      Dir = Work + "/pass-" + std::to_string(PassNo);
    PassResult P = runPass(W, Order, Traced, Dir);
    bool ProbeOk = !Traced || Dir.empty() ||
                   probeStore(W, Dir, Work + "/probe", P.Probe);
    if (W.FreshStorePerPass)
      fs::remove_all(Dir, EC);
    Attempted += W.Jobs.size();
    Failed += V.check(P, PassNo);
    if (!ProbeOk) {
      std::fprintf(stderr, "FAIL pass %zu: store probe missed a key\n",
                   PassNo);
      Failed += W.Jobs.size() - P.Failed;
      P.Failed = W.Jobs.size();
    }
    (Traced ? NT : NU) += 1;
    Passes.push_back(std::move(P));
    TimeSetups(W.SetupRepeatsPerPass);
    if (nowS() - LastCalib >= 1.0) {
      CalibS.push_back(calibrationS());
      LastCalib = nowS();
    }
    double Elapsed = nowS() - Start;
    bool Enough = A.Trace ? NU >= 2 && NT >= 2 : NU >= W.MinPasses;
    // The cap keeps one run under three minutes even on a slow host.
    if (Enough && Elapsed >= std::min(A.Seconds, 120.0))
      break;
  }
  fs::remove_all(Work, EC);

  std::vector<const PassResult *> All, Traced, Untraced;
  for (const PassResult &P : Passes) {
    All.push_back(&P);
    (P.Traced ? Traced : Untraced).push_back(&P);
  }
  std::fprintf(stderr, "%s: seed %llu, %zu passes of %zu jobs on %u workers, "
                       "%zu of %zu jobs failed\n",
               W.Name.c_str(), static_cast<unsigned long long>(A.Seed),
               Passes.size(), W.Jobs.size(), workerCount(), Failed, Attempted);
  std::fprintf(stderr, "host probe: median %.6f s per thread over %zu probes "
                       "(nominal %.4f)\n",
               median(CalibS), CalibS.size(), NominalCalibS);
  std::sort(SetupS.begin(), SetupS.end());
  std::fprintf(stderr, "set-up s: min %.6f median %.6f max %.6f (%zu runs)\n",
               SetupS.front(), median(SetupS), SetupS.back(), SetupS.size());
  std::fprintf(stderr, "pass wall/cpu s:");
  for (const PassResult &P : Passes)
    std::fprintf(stderr, " %s%.3f/%.3f", P.Traced ? "T" : "", P.WallS, P.CpuS);
  std::fprintf(stderr, "\n");
  std::vector<Metric> Ms;
  if (A.Trace) {
    reportSelfTimes(Traced);
    for (const auto &[Name, N] : Traced.front()->Self.Spans)
      if (layerOf(Name).rfind("unmapped:", 0) == 0)
        std::fprintf(stderr, "note: span '%s' has no layer\n", Name.c_str());
    Ms = perLayer(All, Traced, Untraced);
    Ms.push_back({"host.calib_ms", median(CalibS) * 1e3, "ms"});
  } else {
    Ms = endToEnd(W, Untraced, SetupS);
    // Host speed changes between runs by more than the bounds allow (other
    // tenants of the machine); scale times to the nominal host speed.
    double Scale = NominalCalibS / median(CalibS);
    for (Metric &M : Ms)
      if (M.Unit == "s" || M.Unit == "ms") {
        std::fprintf(stderr, "raw %-22s %.6f %s\n", M.Name.c_str(), M.Value,
                     M.Unit.c_str());
        M.Value *= Scale;
      }
  }
  std::fprintf(stderr, "failed_share %.6f ratio (%zu/%zu)\n",
               ratio(static_cast<double>(Failed),
                     static_cast<double>(Attempted)),
               Failed, Attempted);
  for (const Metric &M : Ms)
    std::fprintf(stderr, "%-26s %.6f %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              Failed == 0 ? "true" : "false", Attempted, Failed,
              metricsJson(Ms).c_str());
  return Failed == 0 ? 0 : 1;
}

/// Prints a fresh reference: one cold pass of every workload with the store
/// off, one row per job (generated programs excluded; the seed picks them).
int record(const Args &A) {
  std::printf("# workload\tjob\tdigest (delinq_perf --record)\n");
  for (const char *Name : WorkloadNames) {
    Workload W;
    makeWorkload(Name, W);
    buildJobs(W, A.Seed);
    Rng Order(A.Seed);
    PassResult P = runPass(W, Order, false, "");
    for (const JobSpec &J : W.Jobs) {
      if (!J.FuzzSource.empty())
        continue;
      auto It = P.Digests.find(J.Key);
      if (It == P.Digests.end()) {
        std::fprintf(stderr, "error: %s %s did not complete\n", Name,
                     J.Key.c_str());
        return 1;
      }
      std::printf("%s\t%s\t%s\n", Name, J.Key.c_str(), It->second.c_str());
    }
  }
  return 0;
}

//===-- Self-test -------------------------------------------------------===//

int selfTest() {
  unsigned Bad = 0;
  auto Expect = [&Bad](bool Ok, const char *What) {
    if (!Ok) {
      ++Bad;
      std::fprintf(stderr, "self-test FAIL: %s\n", What);
    }
  };
  // Two threads, deliberately interleaved; tid 1 nests three deep, a
  // sibling starts where its neighbour ends, and a child shares both ends
  // of its job; tid 2 has a span outside any job.
  std::vector<SpanRec> S = {
      {"stage.freq", 60, 10, 1},      {"mcc.compile", 5, 35, 2},
      {"job.run", 0, 100, 1},         {"driver.run", 10, 50, 1},
      {"job.run", 5, 90, 2},          {"stage.sim", 20, 30, 1},
      {"sim.jit.compile", 25, 5, 1},  {"cfg.build", 40, 1, 2},
      {"job.run", 200, 50, 1},        {"stage.compile", 200, 50, 1},
      {"pipeline.key", 300, 10, 2},
  };
  SelfTimes T = selfTimes(S, layerOf);
  auto L = [&T](const char *Name) {
    auto It = T.LayerNs.find(Name);
    return It == T.LayerNs.end() ? uint64_t(0) : It->second;
  };
  Expect(L("pipeline.unattributed") == 40 + 0 + 54, "unattributed");
  Expect(L("pipeline.driver") == 20, "driver self time");
  Expect(L("sim.run") == 25, "sim self time");
  Expect(L("jit") == 5, "jit self time");
  Expect(L("freq") == 10, "sibling is not a child");
  Expect(L("mcc") == 85, "compile across threads");
  Expect(L("cfg") == 1, "cfg");
  Expect(T.JobNs == 240 && T.Jobs == 3, "job time");
  Expect(T.layerSumNs() == T.JobNs, "self times sum to job time");
  Expect(T.Outside == 1, "span outside jobs");

  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(I);
  Expect(std::abs(quantileSorted(V, 0.95) - 95.05) < 1e-9, "p95 interpolation");
  Expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median");
  Expect(tailPercentile(216) == 95, "tail rung for 216 samples");
  Expect(tailPercentile(100) == 90, "tail rung for 100 samples");
  Expect(tailPercentile(20000) == 99.9, "tail rung for 20000 samples");
  Expect(tailPercentile(5) == 50, "tail rung floor");
  if (Bad == 0)
    std::fprintf(stderr, "self-test ok\n");
  return Bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: delinq_perf --workload W --seed N --seconds S "
               "--trace 0|1 --reference FILE [--work-dir DIR]\n"
               "       delinq_perf --record [--work-dir DIR]\n"
               "       delinq_perf --self-test\n"
               "workloads: tables-cold sweep-prefetch static-analyze "
               "warm-replay\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  bool Record = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : std::string();
    };
    if (Arg == "--self-test")
      return selfTest();
    if (Arg == "--record")
      Record = true;
    else if (Arg == "--workload")
      A.Workload = Value();
    else if (Arg == "--seed")
      A.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      A.Seconds = std::strtod(Value().c_str(), nullptr);
    else if (Arg == "--trace")
      A.Trace = Value() == "1";
    else if (Arg == "--reference")
      A.Reference = Value();
    else if (Arg == "--work-dir")
      A.WorkDir = Value();
    else
      return usage();
  }
  if (Record)
    return record(A);
  if (A.Workload.empty() || A.Reference.empty())
    return usage();
  return runWorkload(A);
}
