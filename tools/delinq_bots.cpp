//===- tools/delinq_bots.cpp - synthetic-user load fleet for delinqd ------------//
//
// Replays N concurrent synthetic users against a running delinqd:
//
//   delinqd --port 7099 &
//   delinq_bots --port 7099 --users 200 --requests 20 --seed 1 --drain
//
// Add `--json BENCH_delinqd.json` for a JSON report.
//
// Each user owns one connection and issues a seeded, mixed stream of
// ANALYZE / RUN / CLASSIFY / PING requests over the registry workloads,
// timing every call end-to-end. The report combines the client-side
// latencies (exact quantiles over the recorded samples) with the server's
// own net.req.* histograms fetched via STATS — the cross-check that the
// daemon's observability agrees with what clients actually experienced.
// --drain ends the campaign with a graceful server shutdown and asserts the
// DRAIN response arrived after every in-flight response.
//
// Exit code: nonzero on any protocol error, dropped response, or empty
// campaign — CI treats this binary as its own acceptance check.
//
//===----------------------------------------------------------------------===//

#include "net/Client.h"
#include "obs/Trace.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace dlq;

namespace {

struct BotOptions {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  unsigned Users = 8;
  unsigned RequestsPerUser = 20; ///< 0 = run until --duration expires.
  double DurationS = 0;
  uint64_t Seed = 1;
  unsigned OptLevel = 0;
  // Weighted opcode mix, parsed from --mix analyze=40,run=30,...
  unsigned MixAnalyze = 40, MixRun = 30, MixClassify = 20, MixPing = 10;
  std::vector<std::string> Workloads; ///< Default: the training set.
  std::string JsonPath;
  bool Drain = false;
  bool PrintServerCounters = false;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: delinq_bots --port N [options]\n"
      "options:\n"
      "  --host A               server address (default 127.0.0.1)\n"
      "  --port N               server port (required)\n"
      "  --users N              concurrent synthetic users (default 8)\n"
      "  --requests N           requests per user (default 20)\n"
      "  --duration S           run for S seconds instead of a fixed count\n"
      "  --seed N               campaign seed (default 1)\n"
      "  --mix a=40,run=30,...  opcode mix weights (analyze/run/classify/"
      "ping)\n"
      "  --workloads a,b,c      registry workloads (default: training set)\n"
      "  --opt 0|1              opt level for compiled requests (default "
      "0)\n"
      "  --json PATH            write BENCH_delinqd.json-style report\n"
      "  --drain                finish with a graceful server DRAIN\n"
      "  --server-counters      print the server counter dump from STATS\n");
  return 2;
}

bool parseMix(const std::string &Spec, BotOptions &O) {
  unsigned *Slots[4] = {&O.MixAnalyze, &O.MixRun, &O.MixClassify,
                        &O.MixPing};
  const char *Names[4] = {"analyze", "run", "classify", "ping"};
  for (unsigned *S : Slots)
    *S = 0;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Spec.size();
    std::string Part = Spec.substr(Pos, Comma - Pos);
    size_t Eq = Part.find('=');
    if (Eq == std::string::npos)
      return false;
    std::string Name = Part.substr(0, Eq);
    unsigned Weight = static_cast<unsigned>(std::atoi(Part.c_str() + Eq + 1));
    bool Known = false;
    for (unsigned I = 0; I != 4; ++I)
      if (Name == Names[I]) {
        *Slots[I] = Weight;
        Known = true;
      }
    if (!Known)
      return false;
    Pos = Comma + 1;
  }
  return O.MixAnalyze + O.MixRun + O.MixClassify + O.MixPing > 0;
}

/// Per-opcode client-side samples, merged across users after the join.
struct OpSamples {
  std::vector<uint64_t> LatNs;

  uint64_t quantile(double Q) const {
    if (LatNs.empty())
      return 0;
    size_t Idx = static_cast<size_t>(
        Q * static_cast<double>(LatNs.size() - 1) + 0.5);
    return LatNs[std::min(Idx, LatNs.size() - 1)];
  }
  double mean() const {
    if (LatNs.empty())
      return 0;
    double Sum = 0;
    for (uint64_t V : LatNs)
      Sum += static_cast<double>(V);
    return Sum / static_cast<double>(LatNs.size());
  }
};

struct UserResult {
  std::map<uint16_t, std::vector<uint64_t>> LatByOp;
  uint64_t Requests = 0;
  uint64_t Responses = 0;
  uint64_t ProtocolErrors = 0;
  uint64_t AppErrors = 0;
  std::string FirstError;
};

uint64_t nowNs() { return obs::Tracer::instance().nowNs(); }

void runUser(const BotOptions &O, unsigned UserIdx, uint64_t DeadlineNs,
             UserResult &R) {
  Rng Rand(O.Seed * 0x9E3779B97F4A7C15ull + UserIdx * 1000003ull + 1);
  net::Client C;
  std::string Err;
  if (!C.connect(O.Host, O.Port, Err)) {
    R.ProtocolErrors++;
    R.FirstError = Err;
    return;
  }
  unsigned TotalWeight = O.MixAnalyze + O.MixRun + O.MixClassify + O.MixPing;

  for (uint64_t I = 0;; ++I) {
    if (O.RequestsPerUser != 0 && I >= O.RequestsPerUser)
      break;
    if (O.RequestsPerUser == 0 && nowNs() >= DeadlineNs)
      break;
    uint64_t Pick = Rand.nextBelow(TotalWeight);
    const std::string &W =
        O.Workloads[Rand.nextBelow(O.Workloads.size())];
    net::Status S = net::Status::Ok;
    bool Ok;
    uint16_t Op;
    uint64_t T0 = nowNs();
    if (Pick < O.MixAnalyze) {
      Op = static_cast<uint16_t>(net::Opcode::Analyze);
      net::AnalyzeRequest Req;
      Req.Workload = W;
      Req.OptLevel = static_cast<uint8_t>(O.OptLevel);
      net::AnalyzeResponse Resp;
      Ok = C.analyze(Req, Resp, S, Err);
    } else if (Pick < O.MixAnalyze + O.MixRun) {
      Op = static_cast<uint16_t>(net::Opcode::Run);
      net::RunRequest Req;
      Req.Workload = W;
      Req.OptLevel = static_cast<uint8_t>(O.OptLevel);
      net::RunResponse Resp;
      Ok = C.run(Req, Resp, S, Err);
    } else if (Pick < O.MixAnalyze + O.MixRun + O.MixClassify) {
      Op = static_cast<uint16_t>(net::Opcode::Classify);
      net::ClassifyRequest Req;
      Req.Workload = W;
      Req.OptLevel = static_cast<uint8_t>(O.OptLevel);
      net::ClassifyResponse Resp;
      Ok = C.classify(Req, Resp, S, Err);
    } else {
      Op = static_cast<uint16_t>(net::Opcode::Ping);
      Ok = C.ping(formatString("u%u-%llu", UserIdx,
                               static_cast<unsigned long long>(I)),
                  S, Err);
    }
    uint64_t T1 = nowNs();
    R.Requests++;
    if (!Ok) {
      R.ProtocolErrors++;
      if (R.FirstError.empty())
        R.FirstError = Err;
      return; // Transport is gone; this user is done.
    }
    R.Responses++;
    if (S != net::Status::Ok) {
      R.AppErrors++;
      if (R.FirstError.empty())
        R.FirstError = Err;
      continue;
    }
    R.LatByOp[Op].push_back(T1 - T0);
  }
}

std::string jsonEscapeMix(const BotOptions &O) {
  return formatString(
      "{\"analyze\": %u, \"run\": %u, \"classify\": %u, \"ping\": %u}",
      O.MixAnalyze, O.MixRun, O.MixClassify, O.MixPing);
}

} // namespace

int main(int Argc, char **Argv) {
  BotOptions O;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Name) -> const char * {
      size_t N = std::strlen(Name);
      if (Arg.compare(0, N, Name) == 0 && Arg.size() > N + 1 &&
          Arg[N] == '=')
        return Arg.c_str() + N + 1;
      if (Arg == Name && I + 1 < Argc)
        return Argv[++I];
      return nullptr;
    };
    if (const char *V = Value("--host")) {
      O.Host = V;
    } else if (const char *V = Value("--port")) {
      O.Port = static_cast<uint16_t>(std::atoi(V));
    } else if (const char *V = Value("--users")) {
      O.Users = static_cast<unsigned>(std::atoi(V));
    } else if (const char *V = Value("--requests")) {
      O.RequestsPerUser = static_cast<unsigned>(std::atoi(V));
    } else if (const char *V = Value("--duration")) {
      O.DurationS = std::atof(V);
      O.RequestsPerUser = 0;
    } else if (const char *V = Value("--seed")) {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (const char *V = Value("--opt")) {
      O.OptLevel = static_cast<unsigned>(std::atoi(V));
    } else if (const char *V = Value("--mix")) {
      if (!parseMix(V, O)) {
        std::fprintf(stderr, "error: bad --mix spec '%s'\n", V);
        return 2;
      }
    } else if (const char *V = Value("--workloads")) {
      std::string Spec = V;
      size_t Pos = 0;
      while (Pos < Spec.size()) {
        size_t Comma = Spec.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = Spec.size();
        O.Workloads.push_back(Spec.substr(Pos, Comma - Pos));
        Pos = Comma + 1;
      }
    } else if (const char *V = Value("--json")) {
      O.JsonPath = V;
    } else if (Arg == "--drain") {
      O.Drain = true;
    } else if (Arg == "--server-counters") {
      O.PrintServerCounters = true;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return usage();
    }
  }
  if (O.Port == 0)
    return usage();
  if (O.Workloads.empty())
    O.Workloads = workloads::trainingSetNames();
  for (const std::string &W : O.Workloads)
    if (!workloads::findWorkload(W)) {
      std::fprintf(stderr, "error: unknown workload '%s'\n", W.c_str());
      return 2;
    }
  std::signal(SIGPIPE, SIG_IGN);

  // The fleet: one thread + one connection per user.
  std::vector<UserResult> Results(O.Users);
  uint64_t T0 = nowNs();
  uint64_t DeadlineNs =
      T0 + static_cast<uint64_t>(O.DurationS * 1e9);
  {
    std::vector<std::thread> Threads;
    Threads.reserve(O.Users);
    for (unsigned U = 0; U != O.Users; ++U)
      Threads.emplace_back(
          [&, U] { runUser(O, U, DeadlineNs, Results[U]); });
    for (std::thread &T : Threads)
      T.join();
  }
  uint64_t CampaignNs = nowNs() - T0;

  // Merge.
  std::map<uint16_t, OpSamples> ByOp;
  uint64_t Requests = 0, Responses = 0, ProtocolErrors = 0, AppErrors = 0;
  std::string FirstError;
  for (UserResult &R : Results) {
    Requests += R.Requests;
    Responses += R.Responses;
    ProtocolErrors += R.ProtocolErrors;
    AppErrors += R.AppErrors;
    if (FirstError.empty())
      FirstError = R.FirstError;
    for (auto &[Op, Lat] : R.LatByOp) {
      auto &Dst = ByOp[Op].LatNs;
      Dst.insert(Dst.end(), Lat.begin(), Lat.end());
    }
  }
  for (auto &[Op, S] : ByOp)
    std::sort(S.LatNs.begin(), S.LatNs.end());

  // Server-side view + graceful drain.
  net::StatsResponse Stats;
  bool HaveStats = false;
  {
    net::Client C;
    std::string Err;
    net::Status S = net::Status::Ok;
    if (C.connect(O.Host, O.Port, Err) && C.stats(Stats, S, Err) &&
        S == net::Status::Ok) {
      HaveStats = true;
    } else if (FirstError.empty()) {
      FirstError = Err;
    }
    if (O.Drain) {
      if (!C.connected() || !C.drain(S, Err) || S != net::Status::Ok) {
        ProtocolErrors++;
        if (FirstError.empty())
          FirstError = Err;
      }
    }
  }

  double Secs = static_cast<double>(CampaignNs) / 1e9;
  double Throughput = Secs > 0 ? static_cast<double>(Responses) / Secs : 0;

  // Human summary.
  TextTable T({"opcode", "count", "p50 us", "p90 us", "p99 us", "max us",
               "server p99 us"});
  for (auto &[Op, S] : ByOp) {
    double ServerP99 = 0;
    if (HaveStats)
      for (const net::OpcodeLatency &L : Stats.Latencies)
        if (L.Op == Op)
          ServerP99 = L.P99Ns / 1000.0;
    T.addRow({net::opcodeName(Op), formatWithCommas(S.LatNs.size()),
              formatString("%.1f", S.quantile(0.50) / 1000.0),
              formatString("%.1f", S.quantile(0.90) / 1000.0),
              formatString("%.1f", S.quantile(0.99) / 1000.0),
              formatString("%.1f",
                           (S.LatNs.empty() ? 0 : S.LatNs.back()) / 1000.0),
              formatString("%.1f", ServerP99)});
  }
  std::fputs(T.render().c_str(), stdout);
  std::printf("%llu requests, %llu responses in %.2fs (%.0f rps); "
              "%llu protocol error(s), %llu app error(s)\n",
              static_cast<unsigned long long>(Requests),
              static_cast<unsigned long long>(Responses), Secs, Throughput,
              static_cast<unsigned long long>(ProtocolErrors),
              static_cast<unsigned long long>(AppErrors));
  if (HaveStats)
    std::printf("server: store hits %llu misses %llu (hit rate %.1f%%), "
                "frames in/out %llu/%llu, dropped %llu, rejects %llu\n",
                static_cast<unsigned long long>(Stats.StoreHits),
                static_cast<unsigned long long>(Stats.StoreMisses),
                Stats.storeHitRate() * 100.0,
                static_cast<unsigned long long>(Stats.FramesIn),
                static_cast<unsigned long long>(Stats.FramesOut),
                static_cast<unsigned long long>(Stats.ResponsesDropped),
                static_cast<unsigned long long>(Stats.Rejects));
  if (!FirstError.empty())
    std::fprintf(stderr, "first error: %s\n", FirstError.c_str());
  if (O.PrintServerCounters && HaveStats)
    std::fprintf(stderr, "%s\n", Stats.CountersJson.c_str());

  // Machine-readable report.
  if (!O.JsonPath.empty()) {
    std::FILE *F = std::fopen(O.JsonPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write '%s'\n", O.JsonPath.c_str());
      return 1;
    }
    std::fprintf(
        F,
        "{\n"
        "  \"config\": {\"users\": %u, \"requests_per_user\": %u, "
        "\"duration_s\": %.3f, \"seed\": %llu, \"opt\": %u, \"mix\": %s},\n",
        O.Users, O.RequestsPerUser, O.DurationS,
        static_cast<unsigned long long>(O.Seed), O.OptLevel,
        jsonEscapeMix(O).c_str());
    std::fprintf(
        F,
        "  \"totals\": {\"requests\": %llu, \"responses\": %llu, "
        "\"protocol_errors\": %llu, \"app_errors\": %llu, "
        "\"campaign_s\": %.3f, \"throughput_rps\": %.2f},\n",
        static_cast<unsigned long long>(Requests),
        static_cast<unsigned long long>(Responses),
        static_cast<unsigned long long>(ProtocolErrors),
        static_cast<unsigned long long>(AppErrors), Secs, Throughput);
    std::fprintf(F, "  \"opcodes\": {\n");
    bool First = true;
    for (auto &[Op, S] : ByOp) {
      double ServerP50 = 0, ServerP99 = 0;
      uint64_t ServerCount = 0;
      if (HaveStats)
        for (const net::OpcodeLatency &L : Stats.Latencies)
          if (L.Op == Op) {
            ServerP50 = L.P50Ns;
            ServerP99 = L.P99Ns;
            ServerCount = L.Count;
          }
      std::fprintf(
          F,
          "%s    \"%s\": {\"count\": %zu, \"p50_ns\": %llu, "
          "\"p90_ns\": %llu, \"p99_ns\": %llu, \"mean_ns\": %.1f, "
          "\"max_ns\": %llu, \"server_count\": %llu, "
          "\"server_p50_ns\": %.1f, \"server_p99_ns\": %.1f}",
          First ? "" : ",\n", net::opcodeName(Op), S.LatNs.size(),
          static_cast<unsigned long long>(S.quantile(0.50)),
          static_cast<unsigned long long>(S.quantile(0.90)),
          static_cast<unsigned long long>(S.quantile(0.99)), S.mean(),
          static_cast<unsigned long long>(
              S.LatNs.empty() ? 0 : S.LatNs.back()),
          static_cast<unsigned long long>(ServerCount), ServerP50,
          ServerP99);
      First = false;
    }
    std::fprintf(F, "\n  },\n");
    std::fprintf(
        F,
        "  \"server\": {\"have_stats\": %s, \"uptime_ns\": %llu, "
        "\"accepts\": %llu, \"frames_in\": %llu, \"frames_out\": %llu, "
        "\"bytes_in\": %llu, \"bytes_out\": %llu, \"rejects\": %llu, "
        "\"responses_dropped\": %llu, \"store_hits\": %llu, "
        "\"store_misses\": %llu, \"store_hit_rate\": %.4f}\n",
        HaveStats ? "true" : "false",
        static_cast<unsigned long long>(Stats.UptimeNs),
        static_cast<unsigned long long>(Stats.Accepts),
        static_cast<unsigned long long>(Stats.FramesIn),
        static_cast<unsigned long long>(Stats.FramesOut),
        static_cast<unsigned long long>(Stats.BytesIn),
        static_cast<unsigned long long>(Stats.BytesOut),
        static_cast<unsigned long long>(Stats.Rejects),
        static_cast<unsigned long long>(Stats.ResponsesDropped),
        static_cast<unsigned long long>(Stats.StoreHits),
        static_cast<unsigned long long>(Stats.StoreMisses),
        Stats.storeHitRate());
    std::fprintf(F, "}\n");
    std::fclose(F);
  }

  bool Failed = ProtocolErrors > 0 || Responses == 0 ||
                (HaveStats && Stats.ResponsesDropped > 0);
  return Failed ? 1 : 0;
}
