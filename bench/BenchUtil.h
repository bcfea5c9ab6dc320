//===- bench/BenchUtil.h - Shared benchmark helpers -------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef MGC_BENCH_BENCHUTIL_H
#define MGC_BENCH_BENCHUTIL_H

#include "Programs.h"

#include "driver/Compiler.h"
#include "gc/Collector.h"
#include "vm/VM.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

namespace mgc {
namespace bench {

/// Compiles \p Source, aborting the benchmark binary on errors.
inline std::unique_ptr<vm::Program>
compileOrDie(const char *Name, const char *Source,
             driver::CompilerOptions Options = {}) {
  auto R = driver::compile(Source, Options);
  if (!R.Prog) {
    std::fprintf(stderr, "%s: compilation failed:\n%s\n", Name,
                 R.Diags.str().c_str());
    std::exit(1);
  }
  return std::move(R.Prog);
}

/// The §6 destroy program scaled up: a complete tree of branching factor
/// \p Branch and depth \p Depth, with \p Iters subtree replacements.
inline std::string bigDestroy(int Branch, int Depth, int Iters) {
  std::string S(programs::DestroySource);
  auto Replace = [&](const std::string &From, const std::string &To) {
    size_t Pos = S.find(From);
    if (Pos != std::string::npos)
      S.replace(Pos, From.size(), To);
  };
  Replace("Branch = 3", "Branch = " + std::to_string(Branch));
  Replace("Depth = 6", "Depth = " + std::to_string(Depth));
  Replace("Iters = 60", "Iters = " + std::to_string(Iters));
  return S;
}

/// Hand-built BENCH_*.json emitters: append `"Key":V` to \p Out, led by
/// a comma unless \p First.  Floats print \p Prec decimals.
inline void jf(std::string &Out, const char *Key, double V, bool First = false,
               int Prec = 3) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%s\"%s\":%.*f", First ? "" : ",", Key,
                Prec, V);
  Out += Buf;
}

inline void ji(std::string &Out, const char *Key, uint64_t V,
               bool First = false) {
  if (!First)
    Out += ',';
  Out += '"';
  Out += Key;
  Out += "\":";
  Out += std::to_string(V);
}

inline void printRule(unsigned Width = 78) {
  for (unsigned I = 0; I != Width; ++I)
    std::putchar('-');
  std::putchar('\n');
}

} // namespace bench
} // namespace mgc

#endif // MGC_BENCH_BENCHUTIL_H
