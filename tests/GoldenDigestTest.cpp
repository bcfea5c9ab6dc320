//===- tests/GoldenDigestTest.cpp - Byte-identical compiler output ---------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the compiler's output bytes.  Every §6 program and every corpus
/// program is compiled at -O0 and -O2 with the benchmark's compile-mix
/// options; FNV-1a digests of the code image, the encoded gc-maps and the
/// optimized IR must equal tests/golden/digests.txt.  The file was
/// recorded before the analysis core was rewritten for speed, so any
/// change to generated code or tables shows up here.  Refactors of the
/// optimizer and the analyses must leave it untouched.
///
/// A second test compiles the whole set twice, the second time in reverse
/// order, and requires identical bytes: a nondeterministic optimizer (state
/// leaking between compiles, iteration over pointer-keyed containers)
/// fails it.
///
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Programs.h"
#include "driver/Compiler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace mgc;

namespace {

struct GoldenProgram {
  std::string Name, Source;
  bool HasSpin = false;
};

std::vector<GoldenProgram> goldenPrograms() {
  std::vector<GoldenProgram> Out;
  for (const programs::NamedProgram &P : programs::All)
    Out.push_back({P.Name, P.Source, false});
  for (const test::CorpusProgram &P : test::corpus())
    Out.push_back({P.Name, P.Source, P.HasSpin});
  return Out;
}

/// compile-mix's options (perfbench), at the given level.
driver::CompilerOptions goldenOptions(const GoldenProgram &P, int Opt) {
  driver::CompilerOptions CO;
  CO.OptLevel = Opt;
  CO.GcTables = true;
  CO.WriteBarriers = true;
  CO.ThreadedPolls = P.HasSpin;
  return CO;
}

struct Fnv1a {
  uint64_t H = 0xcbf29ce484222325ull;
  void byte(uint8_t B) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  void bytes(const uint8_t *P, size_t N) {
    for (size_t I = 0; I != N; ++I)
      byte(P[I]);
  }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      byte(static_cast<uint8_t>(V >> (8 * I)));
  }
};

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// One line per compile: "<name> O<level> <code> <maps> <ir>".
std::string digestLine(const GoldenProgram &P, int Opt) {
  driver::CompileResult C = driver::compile(P.Source, goldenOptions(P, Opt));
  EXPECT_TRUE(C.Prog) << P.Name << ": " << C.Diags.str();
  if (!C.Prog)
    return P.Name + " O" + std::to_string(Opt) + " compile-error\n";
  Fnv1a Code, Maps, IR;
  Code.bytes(C.Prog->Image.Bytes.data(), C.Prog->Image.Bytes.size());
  for (const gcmaps::EncodedFuncMaps &M : C.Prog->Maps) {
    Maps.u32(static_cast<uint32_t>(M.Blob.size()));
    Maps.bytes(M.Blob.data(), M.Blob.size());
    Maps.u32(static_cast<uint32_t>(M.RetPCs.size()));
    for (uint32_t PC : M.RetPCs)
      Maps.u32(PC);
    Maps.u32(M.GroundCount);
  }
  std::string Dump = C.irDump();
  IR.bytes(reinterpret_cast<const uint8_t *>(Dump.data()), Dump.size());
  return P.Name + " O" + std::to_string(Opt) + " " + hex(Code.H) + " " +
         hex(Maps.H) + " " + hex(IR.H) + "\n";
}

std::string digestAll(bool Reverse) {
  std::vector<GoldenProgram> Progs = goldenPrograms();
  std::vector<std::string> Lines(Progs.size() * 2);
  for (size_t K = 0; K != Lines.size(); ++K) {
    size_t I = Reverse ? Lines.size() - 1 - K : K;
    Lines[I] = digestLine(Progs[I / 2], I % 2 ? 2 : 0);
  }
  std::string All;
  for (const std::string &L : Lines)
    All += L;
  return All;
}

TEST(GoldenDigest, OutputMatchesRecordedDigests) {
  std::string Path = std::string(MGC_SOURCE_DIR) + "/tests/golden/digests.txt";
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Actual = digestAll(/*Reverse=*/false);
  EXPECT_EQ(Buf.str(), Actual)
      << "compiler output bytes changed; actual digests:\n"
      << Actual;
}

TEST(GoldenDigest, RecompileInReverseOrderIsIdentical) {
  EXPECT_EQ(digestAll(/*Reverse=*/false), digestAll(/*Reverse=*/true));
}

} // namespace
