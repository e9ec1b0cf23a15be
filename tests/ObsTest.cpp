//===- tests/ObsTest.cpp - observability layer tests ------------------------==//
//
// Covers the src/obs tracing + counters subsystem: counter/histogram
// arithmetic, span nesting across threads, counter merge on pool shutdown,
// Chrome-trace JSON validity (parsed back by a small JSON reader below), and
// the disabled-tracer zero-allocation fast path.
//
//===----------------------------------------------------------------------===//

#include "exec/JobPool.h"
#include "obs/Counters.h"
#include "obs/Trace.h"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

using namespace dlq;

// Global allocation counter for the zero-allocation test. The default
// operator new[] forwards to operator new, so overriding the scalar forms
// counts every heap allocation in the test binary.
static std::atomic<uint64_t> GAllocs{0};

void *operator new(size_t Sz) {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  void *P = std::malloc(Sz == 0 ? 1 : Sz);
  if (!P)
    throw std::bad_alloc();
  return P;
}

// Out of line: inlined into a `new T` / `delete` pair, the free() call would
// look like it releases operator new's memory and trip
// -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, size_t) noexcept {
  std::free(P);
}

namespace {

/// Resets the process tracer around a test: clears recorded spans and
/// restores the disabled state on exit.
struct TracerFixture {
  TracerFixture() {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().enable();
  }
  ~TracerFixture() {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
  }
};

TEST(Counters, CounterAddAndValue) {
  obs::Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
}

TEST(Counters, HistogramStatistics) {
  obs::Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.quantileBound(0.5), 0u);

  for (uint64_t V : {0ull, 1ull, 2ull, 3ull, 100ull, 1000ull})
    H.record(V);
  EXPECT_EQ(H.count(), 6u);
  EXPECT_EQ(H.sum(), 1106u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 1000u);
  EXPECT_DOUBLE_EQ(H.mean(), 1106.0 / 6.0);
  // Median falls in the bucket holding 2 and 3: upper bound 3.
  EXPECT_EQ(H.quantileBound(0.5), 3u);
  // The top quantile lands in 1000's bucket [512, 1024).
  EXPECT_EQ(H.quantileBound(1.0), 1023u);
}

TEST(Counters, QuantileEmptyAndSingleValued) {
  obs::Histogram H;
  EXPECT_DOUBLE_EQ(H.quantile(0.5), 0.0);
  // A single-valued distribution is exact at every quantile: interpolation
  // lands inside the bucket span but the [min, max] clamp collapses it.
  for (int I = 0; I != 100; ++I)
    H.record(100);
  EXPECT_DOUBLE_EQ(H.quantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.99), 100.0);
  EXPECT_DOUBLE_EQ(H.quantile(1.0), 100.0);
}

TEST(Counters, QuantileInterpolatesUniformData) {
  obs::Histogram H;
  for (uint64_t V = 1; V <= 1000; ++V)
    H.record(V);
  // Rank 500 falls in bucket [256, 512): 255 values seen below it, so the
  // linear estimate is 256 + 256 * (500-255)/256 = 501.
  EXPECT_NEAR(H.quantile(0.50), 501.0, 1.0);
  // p99's bucket is [512, 1024); the estimate stays inside the true decade.
  EXPECT_GE(H.quantile(0.99), 512.0);
  EXPECT_LE(H.quantile(0.99), 1000.0);
  // Extremes clamp to what was actually observed.
  EXPECT_DOUBLE_EQ(H.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(H.quantile(1.0), 1000.0);
}

TEST(Counters, QuantileIsMonotonicInQ) {
  obs::Histogram H;
  for (uint64_t V : {3ull, 17ull, 90ull, 1200ull, 55000ull, 55000ull, 7ull})
    H.record(V);
  double Prev = 0;
  for (double Q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    double V = H.quantile(Q);
    EXPECT_GE(V, Prev) << "quantile not monotonic at Q=" << Q;
    Prev = V;
  }
  EXPECT_DOUBLE_EQ(H.quantile(1.0), 55000.0);
}

TEST(Counters, HistogramBucketBoundaries) {
  obs::Histogram H;
  H.record(0); // bucket 0
  H.record(1); // bucket 1
  H.record(2); // bucket 2: [2,4)
  H.record(3);
  H.record(4); // bucket 3: [4,8)
  EXPECT_EQ(H.bucketCount(0), 1u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(2), 2u);
  EXPECT_EQ(H.bucketCount(3), 1u);
}

TEST(Counters, RegistryHandlesAreStable) {
  obs::Counters Reg;
  obs::Counter &A = Reg.counter("a");
  // Force the map to grow.
  for (int I = 0; I != 100; ++I)
    Reg.counter("grow." + std::to_string(I)).inc();
  obs::Counter &AAgain = Reg.counter("a");
  EXPECT_EQ(&A, &AAgain);
  A.add(7);
  EXPECT_EQ(Reg.counter("a").value(), 7u);
}

TEST(Counters, SummaryTableAndJson) {
  obs::Counters Reg;
  Reg.counter("alpha").add(3);
  Reg.histogram("lat.ns").record(1000);
  std::string Table = Reg.summaryTable();
  EXPECT_NE(Table.find("alpha"), std::string::npos);
  EXPECT_NE(Table.find("lat.ns"), std::string::npos);
  std::string Json = Reg.json();
  EXPECT_NE(Json.find("\"alpha\": 3"), std::string::npos);
  EXPECT_NE(Json.find("\"lat.ns\""), std::string::npos);
  EXPECT_EQ(Json.find("nan"), std::string::npos);
}

TEST(Counters, ConcurrentUpdatesMergeExactly) {
  obs::Counters Reg;
  obs::Counter &C = Reg.counter("hits");
  constexpr int Threads = 8, PerThread = 10000;
  std::vector<std::thread> Ts;
  for (int T = 0; T != Threads; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I != PerThread; ++I)
        C.inc();
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(C.value(), static_cast<uint64_t>(Threads) * PerThread);
}

/// Counters recorded from worker threads must be fully visible after the
/// pool joins its workers (the "merge on shutdown" contract).
TEST(Counters, MergeVisibleAfterPoolShutdown) {
  obs::Counters Reg;
  obs::Counter &Work = Reg.counter("work.done");
  obs::Histogram &Sizes = Reg.histogram("work.size");
  constexpr size_t Jobs = 200;
  {
    exec::JobPool Pool(4);
    for (size_t I = 0; I != Jobs; ++I)
      Pool.submit([&, I] {
        Work.inc();
        Sizes.record(I);
      });
    Pool.waitIdle();
  } // Pool destructor joins every worker.
  EXPECT_EQ(Work.value(), Jobs);
  EXPECT_EQ(Sizes.count(), Jobs);
}

TEST(Trace, SpanRecordsNameAndDuration) {
  TracerFixture Fix;
  {
    obs::Span S("unit.outer");
    obs::Span Inner("unit.inner");
  }
  std::vector<obs::TraceEvent> Events = obs::Tracer::instance().snapshot();
  ASSERT_EQ(Events.size(), 2u);
  // Snapshot is start-ordered: outer begins first.
  EXPECT_STREQ(Events[0].Name, "unit.outer");
  EXPECT_STREQ(Events[1].Name, "unit.inner");
  // The inner span nests inside the outer one.
  EXPECT_GE(Events[1].StartNs, Events[0].StartNs);
  EXPECT_LE(Events[1].StartNs + Events[1].DurNs,
            Events[0].StartNs + Events[0].DurNs);
  EXPECT_EQ(Events[0].Tid, Events[1].Tid);
}

TEST(Trace, SpanAttrsRenderAsJsonMembers) {
  TracerFixture Fix;
  {
    obs::Span S("unit.attrs");
    S.attr("wl", std::string("li_like"));
    S.attr("n", static_cast<uint64_t>(42));
    S.attr("frac", 0.5);
    S.attr("quote", std::string("a\"b"));
  }
  std::vector<obs::TraceEvent> Events = obs::Tracer::instance().snapshot();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_NE(Events[0].Args.find("\"wl\": \"li_like\""), std::string::npos);
  EXPECT_NE(Events[0].Args.find("\"n\": 42"), std::string::npos);
  EXPECT_NE(Events[0].Args.find("\"frac\": 0.5"), std::string::npos);
  EXPECT_NE(Events[0].Args.find("a\\\"b"), std::string::npos);
}

TEST(Trace, SpansCloseIndependentlyAcrossThreads) {
  TracerFixture Fix;
  constexpr int Threads = 6, PerThread = 50;
  std::vector<std::thread> Ts;
  for (int T = 0; T != Threads; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I != PerThread; ++I) {
        obs::Span Outer("thread.outer");
        obs::Span Inner("thread.inner");
      }
    });
  for (std::thread &T : Ts)
    T.join();
  std::vector<obs::TraceEvent> Events = obs::Tracer::instance().snapshot();
  EXPECT_EQ(Events.size(), static_cast<size_t>(Threads) * PerThread * 2);
  // Each recording thread got its own tid, and inner/outer pair up per tid.
  std::map<uint32_t, size_t> PerTid;
  for (const obs::TraceEvent &E : Events)
    ++PerTid[E.Tid];
  EXPECT_EQ(PerTid.size(), static_cast<size_t>(Threads));
  for (const auto &[Tid, N] : PerTid)
    EXPECT_EQ(N, static_cast<size_t>(PerThread) * 2) << "tid " << Tid;
}

TEST(Trace, BufferCapDropsAndCounts) {
  TracerFixture Fix;
  obs::Tracer::instance().setMaxEventsPerThread(10);
  for (int I = 0; I != 25; ++I)
    obs::Span S("cap.test");
  EXPECT_EQ(obs::Tracer::instance().eventCount(), 10u);
  EXPECT_EQ(obs::Tracer::instance().droppedCount(), 15u);
  obs::Tracer::instance().setMaxEventsPerThread(size_t(1) << 20);
}

// ---- Chrome trace parse-back ------------------------------------------------
//
// A deliberately small JSON reader: enough to validate the exporter's
// output structurally (balanced B/E per tid, monotonic timestamps, numeric
// ts values — NaN/Infinity are not valid JSON and fail the number parser).

struct JsonValue {
  enum Kind { Null, Bool, Number, String, Array, Object } K = Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::map<std::string, JsonValue> Obj;
};

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : S(Text) {}

  bool parse(JsonValue &Out) {
    skipWs();
    if (!value(Out))
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  const std::string &S;
  size_t Pos = 0;

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Lit) {
    size_t N = std::strlen(Lit);
    if (S.compare(Pos, N, Lit) != 0)
      return false;
    Pos += N;
    return true;
  }

  bool value(JsonValue &Out) {
    skipWs();
    if (Pos >= S.size())
      return false;
    char C = S[Pos];
    if (C == '{')
      return object(Out);
    if (C == '[')
      return array(Out);
    if (C == '"') {
      Out.K = JsonValue::String;
      return string(Out.Str);
    }
    if (literal("true")) {
      Out.K = JsonValue::Bool;
      Out.B = true;
      return true;
    }
    if (literal("false")) {
      Out.K = JsonValue::Bool;
      Out.B = false;
      return true;
    }
    if (literal("null")) {
      Out.K = JsonValue::Null;
      return true;
    }
    return number(Out);
  }

  bool number(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    while (Pos < S.size() && (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
                              S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E' ||
                              S[Pos] == '+' || S[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return false;
    char *End = nullptr;
    std::string Tok = S.substr(Start, Pos - Start);
    Out.Num = std::strtod(Tok.c_str(), &End);
    Out.K = JsonValue::Number;
    return End && *End == '\0' && std::isfinite(Out.Num);
  }

  bool string(std::string &Out) {
    if (S[Pos] != '"')
      return false;
    ++Pos;
    Out.clear();
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        if (Pos + 1 >= S.size())
          return false;
        char E = S[Pos + 1];
        Pos += 2;
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'u': {
          if (Pos + 4 > S.size())
            return false;
          Out += '?'; // Escaped control char; value irrelevant here.
          Pos += 4;
          break;
        }
        default:
          return false;
        }
        continue;
      }
      Out += S[Pos++];
    }
    if (Pos >= S.size())
      return false;
    ++Pos; // closing quote
    return true;
  }

  bool array(JsonValue &Out) {
    Out.K = JsonValue::Array;
    ++Pos; // [
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      JsonValue V;
      if (!value(V))
        return false;
      Out.Arr.push_back(std::move(V));
      skipWs();
      if (Pos >= S.size())
        return false;
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool object(JsonValue &Out) {
    Out.K = JsonValue::Object;
    ++Pos; // {
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      std::string Key;
      if (Pos >= S.size() || !string(Key))
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return false;
      ++Pos;
      JsonValue V;
      if (!value(V))
        return false;
      Out.Obj[Key] = std::move(V);
      skipWs();
      if (Pos >= S.size())
        return false;
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }
};

/// Structural validation shared with the CI trace job's expectations:
/// parses, checks required members, per-tid B/E balance and monotonic
/// timestamps. Returns the number of B events.
size_t validateChromeTrace(const std::string &Json) {
  JsonParser P(Json);
  JsonValue Root;
  EXPECT_TRUE(P.parse(Root)) << "trace JSON failed to parse";
  EXPECT_EQ(Root.K, JsonValue::Object);
  auto It = Root.Obj.find("traceEvents");
  EXPECT_NE(It, Root.Obj.end());
  if (It == Root.Obj.end())
    return 0;
  EXPECT_EQ(It->second.K, JsonValue::Array);

  std::map<double, std::vector<std::string>> Stacks; // tid -> open span names
  std::map<double, double> LastTs;                   // tid -> last timestamp
  size_t Begins = 0;
  for (const JsonValue &Ev : It->second.Arr) {
    EXPECT_EQ(Ev.K, JsonValue::Object);
    bool HasAll = Ev.Obj.count("name") && Ev.Obj.count("ph") &&
                  Ev.Obj.count("tid") && Ev.Obj.count("ts");
    EXPECT_TRUE(HasAll) << "event missing a required member";
    if (!HasAll)
      return 0;
    const JsonValue &Ts = Ev.Obj.at("ts");
    EXPECT_EQ(Ts.K, JsonValue::Number);
    EXPECT_TRUE(std::isfinite(Ts.Num));
    double Tid = Ev.Obj.at("tid").Num;
    const std::string &Ph = Ev.Obj.at("ph").Str;
    const std::string &Name = Ev.Obj.at("name").Str;

    auto Last = LastTs.find(Tid);
    if (Last != LastTs.end()) {
      EXPECT_GE(Ts.Num, Last->second) << "timestamps not monotonic";
    }
    LastTs[Tid] = Ts.Num;

    if (Ph == "B") {
      ++Begins;
      Stacks[Tid].push_back(Name);
    } else {
      EXPECT_EQ(Ph, "E") << "unexpected phase " << Ph;
      EXPECT_FALSE(Stacks[Tid].empty()) << "E with no open B";
      if (Ph != "E" || Stacks[Tid].empty())
        return 0;
      EXPECT_EQ(Stacks[Tid].back(), Name) << "interleaved B/E";
      Stacks[Tid].pop_back();
    }
  }
  for (const auto &[Tid, Stack] : Stacks)
    EXPECT_TRUE(Stack.empty()) << "unbalanced spans on tid " << Tid;
  return Begins;
}

TEST(Trace, ChromeTraceParsesBackBalanced) {
  TracerFixture Fix;
  constexpr int Threads = 4, PerThread = 20;
  std::vector<std::thread> Ts;
  for (int T = 0; T != Threads; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I != PerThread; ++I) {
        obs::Span Outer("json.outer");
        Outer.attr("i", static_cast<uint64_t>(I));
        {
          obs::Span Inner("json.inner");
          Inner.attr("note", std::string("quote\" and \\slash"));
        }
      }
    });
  for (std::thread &T : Ts)
    T.join();

  std::string Json = obs::Tracer::instance().chromeTraceJson();
  size_t Begins = validateChromeTrace(Json);
  EXPECT_EQ(Begins, static_cast<size_t>(Threads) * PerThread * 2);
}

TEST(Trace, ChromeTraceEmptyIsValid) {
  TracerFixture Fix;
  EXPECT_EQ(validateChromeTrace(obs::Tracer::instance().chromeTraceJson()),
            0u);
}

TEST(Trace, SummaryTableAggregatesByName) {
  TracerFixture Fix;
  for (int I = 0; I != 3; ++I)
    obs::Span S("summary.stage");
  std::string Table = obs::Tracer::instance().summaryTable();
  EXPECT_NE(Table.find("summary.stage"), std::string::npos);
  EXPECT_NE(Table.find("3"), std::string::npos);
}

TEST(Trace, DisabledSpanAllocatesNothing) {
  obs::Tracer::instance().disable();
  // Warm the thread buffer path so lazily-initialized state is excluded.
  {
    obs::Span Warm("warm");
    Warm.attr("k", static_cast<uint64_t>(1));
  }
  uint64_t Before = GAllocs.load(std::memory_order_relaxed);
  for (int I = 0; I != 10000; ++I) {
    obs::Span S("fastpath");
    S.attr("n", static_cast<uint64_t>(I));
    S.attr("f", 0.25);
    S.attr("s", "literal");
  }
  uint64_t After = GAllocs.load(std::memory_order_relaxed);
  EXPECT_EQ(Before, After) << "disabled tracer allocated on the fast path";
  EXPECT_EQ(obs::Tracer::instance().eventCount(), 0u);
  obs::Tracer::instance().clear();
}

TEST(Trace, DisabledSpanRecordsNothing) {
  obs::Tracer::instance().disable();
  obs::Tracer::instance().clear();
  {
    obs::Span S("invisible");
  }
  EXPECT_EQ(obs::Tracer::instance().eventCount(), 0u);
}

TEST(Trace, WriteChromeTraceRoundTrips) {
  TracerFixture Fix;
  {
    obs::Span S("file.span");
  }
  std::string Path = ::testing::TempDir() + "/obs-trace-test.json";
  ASSERT_TRUE(obs::Tracer::instance().writeChromeTrace(Path));
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Json((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(validateChromeTrace(Json), 1u);
  std::remove(Path.c_str());
}

} // namespace
