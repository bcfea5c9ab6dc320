//===- support/DynBitset.h - Dynamic bitset ---------------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-capacity bitset used by the dataflow analyses (live vreg
/// sets, loop block sets).
///
//===----------------------------------------------------------------------===//

#ifndef MGC_SUPPORT_DYNBITSET_H
#define MGC_SUPPORT_DYNBITSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mgc {

class DynBitset {
public:
  DynBitset() = default;
  explicit DynBitset(size_t Size) : NumBits(Size), Words((Size + 63) / 64) {}

  size_t size() const { return NumBits; }

  bool test(size_t I) const {
    assert(I < NumBits);
    return (Words[I >> 6] >> (I & 63)) & 1;
  }

  void set(size_t I) {
    assert(I < NumBits);
    Words[I >> 6] |= uint64_t(1) << (I & 63);
  }

  void reset(size_t I) {
    assert(I < NumBits);
    Words[I >> 6] &= ~(uint64_t(1) << (I & 63));
  }

  void clear() {
    for (uint64_t &W : Words)
      W = 0;
  }

  /// Set union; returns true if this set changed.
  bool unionWith(const DynBitset &O) {
    assert(NumBits == O.NumBits);
    bool Changed = false;
    for (size_t I = 0; I != Words.size(); ++I) {
      uint64_t Before = Words[I];
      Words[I] |= O.Words[I];
      Changed |= Words[I] != Before;
    }
    return Changed;
  }

  /// this |= (A & ~Minus), word by word (the backward-liveness step
  /// In |= Out - Kill); returns true if this set changed.
  bool unionWithDiff(const DynBitset &A, const DynBitset &Minus) {
    assert(NumBits == A.NumBits && NumBits == Minus.NumBits);
    uint64_t Grew = 0;
    for (size_t I = 0; I != Words.size(); ++I) {
      uint64_t Add = A.Words[I] & ~Minus.Words[I] & ~Words[I];
      Words[I] |= Add;
      Grew |= Add;
    }
    return Grew != 0;
  }

  bool operator==(const DynBitset &O) const {
    return NumBits == O.NumBits && Words == O.Words;
  }

  /// Iterates set bits in ascending order.
  template <typename Fn> void forEach(Fn &&F) const {
    for (size_t WI = 0; WI != Words.size(); ++WI) {
      uint64_t W = Words[WI];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        F(WI * 64 + Bit);
        W &= W - 1;
      }
    }
  }

  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<size_t>(__builtin_popcountll(W));
    return N;
  }

private:
  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace mgc

#endif // MGC_SUPPORT_DYNBITSET_H
