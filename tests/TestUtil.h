//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef MGC_TESTS_TESTUTIL_H
#define MGC_TESTS_TESTUTIL_H

#include "driver/Compiler.h"
#include "gc/Collector.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace mgc {
namespace test {

struct RunResult {
  bool Ok = false;
  std::string Out;
  std::string Error;
  vm::VMStats Stats;
  unsigned PathVars = 0;
  unsigned PathAssigns = 0;
  size_t CodeBytes = 0;
  std::string IRDump;
};

/// Compiles and runs \p Source; fails the current test on compile errors.
inline RunResult compileAndRun(const std::string &Source,
                               driver::CompilerOptions CO = {},
                               vm::VMOptions VO = {},
                               gc::CollectorOptions GCO = {}) {
  // tools/check.sh runs the tier-1 suite a second time with
  // MGC_TEST_GEN_GC=1: every gc-tables test program goes through
  // generational mode (nursery + barriers + minor collections) with the
  // decode and remembered-set cross-checks on.  Outputs must not change.
  if (std::getenv("MGC_TEST_GEN_GC") && CO.GcTables) {
    CO.WriteBarriers = true;
    VO.GenGc = true;
    GCO.CrossCheck = true;
  }
  RunResult R;
  auto C = driver::compile(Source, CO);
  if (!C.Prog) {
    ADD_FAILURE() << "compilation failed:\n" << C.Diags.str();
    return R;
  }
  R.PathVars = C.Prog->PathVars;
  R.PathAssigns = C.Prog->PathAssigns;
  R.CodeBytes = C.Prog->codeSizeBytes();
  R.IRDump = C.irDump();
  vm::VM M(*C.Prog, VO);
  gc::installPreciseCollector(M, GCO);
  R.Ok = M.run();
  R.Out = M.Out;
  R.Error = M.Error;
  R.Stats = M.Stats;
  return R;
}

/// Number of occurrences of \p Needle in \p Haystack.
inline unsigned countOccurrences(const std::string &Haystack,
                                 const std::string &Needle) {
  unsigned N = 0;
  size_t Pos = 0;
  while ((Pos = Haystack.find(Needle, Pos)) != std::string::npos) {
    ++N;
    Pos += Needle.size();
  }
  return N;
}

} // namespace test
} // namespace mgc

#endif // MGC_TESTS_TESTUTIL_H
