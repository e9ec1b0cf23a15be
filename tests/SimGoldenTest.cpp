//===- tests/SimGoldenTest.cpp - interpreter differential regression ----------//
//
// Part of the delinq project: reproduction of "Static Identification of
// Delinquent Loads" (CGO 2004).
//
// Differential test pinning the interpreter's observable behaviour to golden
// values recorded from the pre-predecode (seed) interpreter. Every workload
// in the registry is compiled at -O0 and -O1 and run for up to 20M
// instructions; the halt reason, exit code, all aggregate counters, and FNV
// hashes of the per-PC execution/miss count vectors and the captured output
// must match exactly. Any change to decode, fusion, the memory backing or
// the cache model that shifts even one counter at one PC fails here.
//
// Regenerating (only when an intentional semantic change is made): print the
// row for each workload with the fields in the order of GoldenRow below;
// ExecHash/MissHash chain exec::Fnv1a::u64 over R.ExecCounts/R.MissCounts,
// OutputHash is exec::fnv1a over R.Output.
//
//===----------------------------------------------------------------------===//

#include "exec/Hash.h"
#include "masm/Module.h"
#include "mcc/Compiler.h"
#include "sim/Machine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

using namespace dlq;

namespace {

struct GoldenRow {
  const char *Name;
  unsigned OptLevel;
  int Halt; ///< static_cast<int>(HaltReason).
  int32_t ExitCode;
  uint64_t InstrsExecuted;
  uint64_t DataAccesses;
  uint64_t LoadMisses;
  uint64_t StoreMisses;
  uint64_t ExecHash;
  uint64_t MissHash;
  uint64_t OutputHash;
};

/// Recorded from the seed interpreter: default MachineOptions (baseline
/// 8 KB D-cache, no I-cache, no prefetching), Input1, MaxInstrs = 20M.
const GoldenRow Golden[] = {
    {"espresso_like", 0, 0, 0, 12769752ull, 4950302ull, 65795ull, 3191ull, 0x9ef4ff80b751c40dull, 0xa91ded41a7f31d3eull, 0xfd1146e1074ccb5cull},
    {"espresso_like", 1, 0, 0, 12722601ull, 1399702ull, 65782ull, 3191ull, 0x4016602c392e5430ull, 0x7594f77f311062dull, 0xfd1146e1074ccb5cull},
    {"li_like", 0, 0, 0, 2349671ull, 1253506ull, 96652ull, 8444ull, 0x8568bef1f483a7a1ull, 0x84dce45327ee7d2eull, 0xf0c470c5cd90aabull},
    {"li_like", 1, 0, 0, 2350514ull, 338722ull, 96652ull, 8470ull, 0x4a6a8785eb52c08cull, 0x1ba69bf558571e0eull, 0xf0c470c5cd90aabull},
    {"sc_like", 0, 0, 0, 18636230ull, 8902070ull, 648256ull, 18587ull, 0x7c824ded7a961425ull, 0xaf855a12ccdf7271ull, 0x2d73d267a9749a30ull},
    {"sc_like", 1, 0, 0, 18637079ull, 2537212ull, 647927ull, 18587ull, 0x9189d7fcf50367b4ull, 0x5c5f01f9b9b006c1ull, 0x2d73d267a9749a30ull},
    {"go_like", 0, 0, 0, 9232298ull, 3674346ull, 54555ull, 15076ull, 0x24e99a5f65d91fbbull, 0x4114fea16f3c2217ull, 0x496e9ebf47a379fdull},
    {"go_like", 1, 0, 0, 8954679ull, 1899272ull, 54456ull, 15044ull, 0x77e94318c9a29b06ull, 0x8cf184ec2360f78eull, 0x496e9ebf47a379fdull},
    {"tomcatv_like", 0, 1, 0, 20000000ull, 5282771ull, 30077ull, 38963ull, 0x6d2c8bcf410f6f76ull, 0x380275645564cfddull, 0xcbf29ce484222325ull},
    {"tomcatv_like", 1, 1, 0, 20000000ull, 1522820ull, 30847ull, 39733ull, 0xc414775d57b32d62ull, 0x95a38371aac25faull, 0xcbf29ce484222325ull},
    {"m88ksim_like", 0, 1, 0, 20000000ull, 7426611ull, 28ull, 392ull, 0x9b9aabe24eba1161ull, 0x94bcd1dbf040e999ull, 0xcbf29ce484222325ull},
    {"m88ksim_like", 1, 1, 0, 20000000ull, 940796ull, 28ull, 392ull, 0xf57c2aa7c2e75acfull, 0x65d3b914d256a5b9ull, 0xcbf29ce484222325ull},
    {"gcc_like", 0, 0, 0, 6833701ull, 3158384ull, 109041ull, 14247ull, 0x4c84e6e01ddd05d7ull, 0x49e42c53828e1c27ull, 0xf6487ad712434874ull},
    {"gcc_like", 1, 0, 0, 8214334ull, 2830004ull, 109042ull, 14247ull, 0xe7a333b783a0ff22ull, 0xd98369f4fe797e0aull, 0xf6487ad712434874ull},
    {"compress_like", 0, 1, 0, 20000000ull, 7462826ull, 171709ull, 75384ull, 0xfd9f68e763129b6ull, 0x21b9922fe4297799ull, 0xcbf29ce484222325ull},
    {"compress_like", 1, 1, 0, 20000000ull, 1627371ull, 176412ull, 75554ull, 0xf835df3cc4f50d51ull, 0x9f57ffbda1b5bf15ull, 0xcbf29ce484222325ull},
    {"ijpeg_like", 0, 1, 0, 20000000ull, 7701286ull, 15775ull, 23968ull, 0x8de4d11dff0c19abull, 0x1ce1c7e7ee629eb5ull, 0xcbf29ce484222325ull},
    {"ijpeg_like", 1, 1, 0, 20000000ull, 1147134ull, 15884ull, 24077ull, 0xcdd4d136fefc1d4ull, 0xd6b74014439ef92dull, 0xcbf29ce484222325ull},
    {"vortex_like", 0, 0, 0, 7484681ull, 3720075ull, 372887ull, 16121ull, 0xc6f35200cbcb96daull, 0x2c624b9ac7a1133ull, 0x409553e29f8b4fe9ull},
    {"vortex_like", 1, 0, 0, 7725528ull, 1546882ull, 373267ull, 15701ull, 0xfd7cba109caf054full, 0x116d1cd9fc1c908eull, 0x409553e29f8b4fe9ull},
    {"gzip_like", 0, 1, 0, 20000000ull, 7843562ull, 369513ull, 11393ull, 0xf046319427b7dbfbull, 0x76db6a0680b901fdull, 0xcbf29ce484222325ull},
    {"gzip_like", 1, 1, 0, 20000000ull, 2011904ull, 375949ull, 11401ull, 0x11111495fcf31cbull, 0x42f619bf02e7b0f5ull, 0xcbf29ce484222325ull},
    {"vpr_like", 0, 1, 0, 20000000ull, 8564738ull, 408296ull, 28386ull, 0x5e45bf1bca43252cull, 0x761ead17c1955c61ull, 0xcbf29ce484222325ull},
    {"vpr_like", 1, 1, 0, 20000000ull, 2786990ull, 390285ull, 27585ull, 0xda168a924d02e2a3ull, 0xa337f7732a0edc9full, 0xcbf29ce484222325ull},
    {"art_like", 0, 1, 0, 20000000ull, 8508372ull, 73686ull, 4108ull, 0x6002cde553e86255ull, 0x22e11884f9cc7c5ull, 0xcbf29ce484222325ull},
    {"art_like", 1, 1, 0, 20000000ull, 1821206ull, 73932ull, 4108ull, 0x12b539461e0cb4d4ull, 0xbae31d5e17660070ull, 0xcbf29ce484222325ull},
    {"mcf_like", 0, 0, 0, 13024001ull, 7650666ull, 847280ull, 54460ull, 0x94bc89d1e97fa7f2ull, 0x4ad6ae430c42525eull, 0xdcfa5dfc59f08680ull},
    {"mcf_like", 1, 0, 0, 13024852ull, 2970354ull, 847156ull, 54461ull, 0xaa6e0e88e706a4e3ull, 0x1f4d9678d61f533cull, 0xdcfa5dfc59f08680ull},
    {"equake_like", 0, 1, 0, 20000000ull, 8069989ull, 601743ull, 27214ull, 0xe0e8a0e8872f13e0ull, 0x5b682d2d52be6e42ull, 0xcbf29ce484222325ull},
    {"equake_like", 1, 1, 0, 20000000ull, 2165296ull, 600785ull, 27165ull, 0x689e2f95d7022640ull, 0xd338cd7d9c455001ull, 0xcbf29ce484222325ull},
    {"ammp_like", 0, 1, 0, 20000000ull, 8520595ull, 745442ull, 10474ull, 0xe322231e87e6c1efull, 0x92a2f2542689068cull, 0xcbf29ce484222325ull},
    {"ammp_like", 1, 1, 0, 20000000ull, 3055827ull, 748325ull, 10354ull, 0x8092c26278fe7c1cull, 0xaca73d89778fb457ull, 0xcbf29ce484222325ull},
    {"parser_like", 0, 0, 0, 8267248ull, 4158235ull, 343417ull, 16213ull, 0xb4b12de0bb961dccull, 0x8e1ae180cbc10fd3ull, 0x57319efce9f0e86eull},
    {"parser_like", 1, 0, 0, 8748097ull, 1592679ull, 343339ull, 16213ull, 0x872026748cc5601dull, 0x804e68f89474b6fbull, 0x57319efce9f0e86eull},
    {"twolf_like", 0, 0, 0, 12965173ull, 5460341ull, 422575ull, 7104ull, 0x2215fb7e9bccc63eull, 0x210cea5191e1eb11ull, 0x7e088a2bd3390e2cull},
    {"twolf_like", 1, 0, 0, 12900484ull, 1479452ull, 422443ull, 7104ull, 0xc0d69b8bc51ef16bull, 0xe366d18609beff2aull, 0x7e088a2bd3390e2cull},
};

TEST(SimGolden, RegistryMatchesSeedInterpreter) {
  std::map<std::pair<std::string, unsigned>, const GoldenRow *> Index;
  for (const GoldenRow &Row : Golden)
    Index[{Row.Name, Row.OptLevel}] = &Row;

  size_t Checked = 0;
  for (const workloads::Workload &W : workloads::allWorkloads()) {
    for (unsigned Opt : {0u, 1u}) {
      auto It = Index.find({W.Name, Opt});
      // New workloads added after the goldens were recorded are not pinned;
      // every recorded row must still exist in the registry (checked below).
      if (It == Index.end())
        continue;
      const GoldenRow &G = *It->second;
      SCOPED_TRACE(W.Name + " -O" + std::to_string(Opt));

      std::string Src = workloads::instantiate(W, W.Input1);
      mcc::CompileOptions MO;
      MO.OptLevel = Opt;
      mcc::CompileResult CR = mcc::compile(Src, MO);
      ASSERT_TRUE(CR.ok());
      masm::Layout L(*CR.M);
      sim::MachineOptions SO;
      SO.MaxInstrs = 20000000ull;
      sim::Machine Mach(*CR.M, L, SO);
      sim::RunResult R = Mach.run();

      EXPECT_EQ(static_cast<int>(R.Halt), G.Halt);
      EXPECT_EQ(R.ExitCode, G.ExitCode);
      EXPECT_EQ(R.InstrsExecuted, G.InstrsExecuted);
      EXPECT_EQ(R.DataAccesses, G.DataAccesses);
      EXPECT_EQ(R.LoadMisses, G.LoadMisses);
      EXPECT_EQ(R.StoreMisses, G.StoreMisses);
      // Default options arm no prefetches.
      EXPECT_EQ(R.PrefetchesIssued, 0u);

      exec::Fnv1a ExecHash, MissHash;
      for (uint64_t C : R.ExecCounts)
        ExecHash.u64(C);
      for (uint64_t C : R.MissCounts)
        MissHash.u64(C);
      EXPECT_EQ(ExecHash.value(), G.ExecHash) << "per-PC exec counts diverged";
      EXPECT_EQ(MissHash.value(), G.MissHash) << "per-PC miss counts diverged";
      EXPECT_EQ(exec::fnv1a(R.Output.data(), R.Output.size()), G.OutputHash)
          << "captured output diverged: " << R.Output;
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, std::size(Golden))
      << "a golden-pinned workload vanished from the registry";
}

} // namespace
