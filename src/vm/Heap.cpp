//===- vm/Heap.cpp --------------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "vm/Heap.h"

#include <cassert>
#include <cstring>

using namespace mgc;
using namespace mgc::vm;

namespace {
Word headerOf(Word Obj) { return *reinterpret_cast<Word *>(Obj); }
void setHeader(Word Obj, Word H) { *reinterpret_cast<Word *>(Obj) = H; }

/// a * b, or SIZE_MAX on overflow.
size_t mulChecked(size_t A, size_t B) {
  size_t R;
  if (__builtin_mul_overflow(A, B, &R))
    return Heap::BadAlloc;
  return R;
}

/// a + b, or SIZE_MAX on overflow.
size_t addChecked(size_t A, size_t B) {
  size_t R;
  if (__builtin_add_overflow(A, B, &R))
    return Heap::BadAlloc;
  return R;
}
} // namespace

Heap::Heap(size_t SemispaceBytes, const std::vector<ir::TypeDesc> &Descs,
           bool Generational, size_t NurseryBytes, HeapPolicy P)
    : SpaceBytes((SemispaceBytes + 7) & ~size_t(7)), Policy(P),
      Gen(Generational), Descs(Descs) {
  // DescMask itself is the filler's reserved descriptor index.
  assert(Descs.size() <= DescMask &&
         "type descriptor index overflows the header field");
  // Resolve the growth cap once so maxObjectBytes() is a run constant:
  // default 8x the initial semispace, never below it, 8-aligned.  Without
  // a growth trigger the cap is pinned to the (fixed) semispace size.
  if (Policy.GrowthPct) {
    if (Policy.MaxBytes == 0)
      Policy.MaxBytes = SpaceBytes * 8;
    Policy.MaxBytes &= ~size_t(7);
    if (Policy.MaxBytes < SpaceBytes)
      Policy.MaxBytes = SpaceBytes;
  } else {
    Policy.MaxBytes = SpaceBytes;
  }
  ToSpaceBytes = FromBufBytes = ToBufBytes = SpaceBytes;
  FromSpace.reset(new uint8_t[SpaceBytes]);
  ToSpace.reset(new uint8_t[ToSpaceBytes]);
  FromBase = reinterpret_cast<Word>(FromSpace.get());
  ToBase = reinterpret_cast<Word>(ToSpace.get());
  AllocPtr = FromBase;
  ToAlloc = ToBase;
  OldLimit = FromBase + SpaceBytes;
  if (Gen) {
    // Each nursery half defaults to an eighth of a semispace, and is
    // clamped so old space keeps room to absorb a full nursery of
    // promotions (maxObjectBytes stays positive).  Auto-sizing treats the
    // resolved value as its floor.
    size_t Half = NurseryBytes ? NurseryBytes : SpaceBytes / 8;
    Half = (Half + 7) & ~size_t(7);
    if (Half < 512)
      Half = 512;
    if (Half > SpaceBytes / 2)
      Half = (SpaceBytes / 2) & ~size_t(7);
    NurFromHalfBytes = NurToHalfBytes = NurFloorBytes = Half;
    NurFromBuf.reset(new uint8_t[NurFromHalfBytes]);
    NurToBuf.reset(new uint8_t[NurToHalfBytes]);
    NurFromBase = reinterpret_cast<Word>(NurFromBuf.get());
    NurToBase = reinterpret_cast<Word>(NurToBuf.get());
    NurAlloc = NurFromBase;
    NurToAlloc = NurToBase;
    OldLimit = FromBase + SpaceBytes - NurFromHalfBytes;
  }
}

size_t Heap::allocationBytes(unsigned DescIdx, int64_t Length) const {
  assert(DescIdx < Descs.size());
  const ir::TypeDesc &D = Descs[DescIdx];
  size_t Words = 1 + D.SizeWords;
  if (D.IsOpenArray) {
    if (Length < 0)
      return BadAlloc;
    size_t Elems = mulChecked(static_cast<size_t>(Length), D.ElemSizeWords);
    Words = addChecked(Words, Elems);
  }
  return mulChecked(Words, sizeof(Word));
}

size_t Heap::objectWords(Word Obj) const {
  const ir::TypeDesc &D = descOf(Obj);
  size_t Words = 1 + D.SizeWords;
  if (D.IsOpenArray) {
    int64_t Len = static_cast<int64_t>(reinterpret_cast<Word *>(Obj)[1]);
    assert(Len >= 0 && "corrupt open-array length");
    size_t Elems = mulChecked(static_cast<size_t>(Len), D.ElemSizeWords);
    Words = addChecked(Words, Elems);
    assert(Words != BadAlloc && "open-array length does not round-trip");
  }
  return Words;
}

const ir::TypeDesc &Heap::descOf(Word Obj) const {
  Word H = headerOf(Obj);
  assert(!(H & ForwardBit) && "descOf on a forwarded object");
  size_t Idx = headerDesc(H);
  assert(Idx < Descs.size() && "corrupt object header");
  return Descs[Idx];
}

Word Heap::bumpAllocate(Word &Bump, Word Limit, unsigned DescIdx,
                        int64_t Length, uint32_t Site) {
  const ir::TypeDesc &D = Descs[DescIdx];
  size_t Bytes = allocationBytes(DescIdx, Length);
  // Overflowed or oversized requests fail like an exhausted space; the VM
  // reports them deterministically before ever retrying.  (Bump can sit
  // past Limit after a full collection that overran the old-space reserve,
  // so the comparison must not rely on Limit - Bump.)
  if (Bytes == BadAlloc || Bump > Limit || Bytes > Limit - Bump)
    return 0;
  Word Obj = Bump;
  Bump += Bytes;
  std::memset(reinterpret_cast<void *>(Obj), 0, Bytes);
  setHeader(Obj, makeHeader(DescIdx, 0, Site));
  if (D.IsOpenArray)
    reinterpret_cast<Word *>(Obj)[1] = static_cast<Word>(Length);
  BytesAllocated += Bytes;
  ++ObjectsAllocated;
  return Obj;
}

Word Heap::allocate(unsigned DescIdx, int64_t Length, uint32_t Site) {
  assert(DescIdx < Descs.size());
  if (Gen) {
    // Invariant: old-used + nursery-used never exceeds a semispace, so a
    // full collection's to-space copy always fits.  The nursery limit
    // shrinks when old space has overrun its reserve.
    size_t Used = usedBytes();
    size_t Budget = Used < SpaceBytes ? SpaceBytes - Used : 0;
    Word Limit = NurAlloc + Budget;
    if (Limit > NurFromBase + NurFromHalfBytes)
      Limit = NurFromBase + NurFromHalfBytes;
    return bumpAllocate(NurAlloc, Limit, DescIdx, Length, Site);
  }
  return bumpAllocate(AllocPtr, FromBase + SpaceBytes + FromWaste, DescIdx,
                      Length, Site);
}

Word Heap::allocateOld(unsigned DescIdx, int64_t Length, uint32_t Site) {
  assert(Gen && "allocateOld is a generational-mode path");
  assert(DescIdx < Descs.size());
  return bumpAllocate(AllocPtr, OldLimit, DescIdx, Length, Site);
}

Word Heap::forward(Word Obj) {
  assert(inFromSpace(Obj) && "forwarding a non-heap pointer");
  Word H = headerOf(Obj);
  if (H & ForwardBit)
    return H & ~ForwardBit;
  size_t Bytes = objectWords(Obj) * sizeof(Word);
  Word New = ToAlloc;
  assert(New + Bytes <= ToBase + ToSpaceBytes &&
         "to-space overflow during collection");
  ToAlloc += Bytes;
  return evacuate(Obj, H, New, Bytes);
}

Word Heap::evacuate(Word Obj, Word H, Word New, size_t Bytes) {
  std::memcpy(reinterpret_cast<void *>(New),
              reinterpret_cast<const void *>(Obj), Bytes);
  // The header (site, descriptor, age) rides the copy; the age bump is the
  // whole of attribution maintenance.  Ages are monotonic across the
  // object's lifetime — the promotion policy only ever consults nursery
  // objects, whose ages restart at 0 on allocation.
  setHeader(New, agedHeader(H));
  setHeader(Obj, New | ForwardBit);
  return New;
}

size_t Heap::copySlackBytes(size_t Space) const {
  if (CopyWorkers <= 1)
    return 0;
  return ((Space + 14) / 15 + CopyWorkers * CopyChunkBytes + 7) & ~size_t(7);
}

void Heap::retireCopyBuffer(CopyBuffer &Buf) {
  if (Buf.Cur == Buf.End)
    return;
  setHeader(Buf.Cur, fillerHeader((Buf.End - Buf.Cur) / sizeof(Word)));
  Buf.WasteBytes += Buf.End - Buf.Cur;
  Buf.Cur = Buf.End;
}

void Heap::refillCopyBuffer(CopyBuffer &Buf) {
  retireCopyBuffer(Buf);
  Buf.Cur = __atomic_fetch_add(&ToAlloc, CopyChunkBytes, __ATOMIC_RELAXED);
  Buf.End = Buf.Cur + CopyChunkBytes;
  assert(Buf.End <= ToBase + ToBufBytes &&
         "to-space overflow during collection (copy slack too small)");
  ++Buf.Refills;
}

Word Heap::forwardParallel(Word Obj, CopyBuffer &Buf, bool &Copied,
                           size_t &BytesOut) {
  Copied = false;
  BytesOut = 0;
  assert(inFromSpace(Obj) && "forwarding a non-heap pointer");
  Word H = headerOf(Obj);
  if (H & ForwardBit)
    return H & ~ForwardBit;
  size_t Bytes = objectWords(Obj) * sizeof(Word);
  Word New;
  if (Bytes < CopyChunkMaxObject) {
    // The common case: no atomics, and neighbouring copies come from the
    // same worker, so workers seldom write the same cache lines.
    if (Buf.End - Buf.Cur < Bytes)
      refillCopyBuffer(Buf);
    New = Buf.Cur;
    Buf.Cur += Bytes;
  } else {
    New = __atomic_fetch_add(&ToAlloc, Bytes, __ATOMIC_RELAXED);
    assert(New + Bytes <= ToBase + ToBufBytes &&
           "to-space overflow during collection (copy slack too small)");
  }
  Copied = true;
  BytesOut = Bytes;
  return evacuate(Obj, H, New, Bytes);
}

void Heap::beginCollection() {
  // Growth decision, made before the copy so the Cheney invariant
  // (live <= to-space) is preserved by construction: double the to-space
  // when occupancy crossed the trigger or a demand growth is armed.
  // Growth-only — the semispaces never shrink below what is live, because
  // the target is always >= the current size.
  size_t Target = SpaceBytes;
  if (Policy.GrowthPct && SpaceBytes < Policy.MaxBytes &&
      (GrowRequested || static_cast<uint64_t>(usedBytes()) * 100 >=
                            static_cast<uint64_t>(SpaceBytes) *
                                Policy.GrowthPct)) {
    Target = SpaceBytes * 2;
    if (Target > Policy.MaxBytes)
      Target = Policy.MaxBytes;
    ++HeapGrowths;
  }
  GrowRequested = false;
  // A to-space still short of copy slack (reserveCopySlack found its
  // pair non-empty) is resized here too.
  if (Target != ToSpaceBytes ||
      ToBufBytes < Target + copySlackBytes(Target))
    resetToSpace(Target);
  ToAlloc = ToBase;
}

void Heap::resetToSpace(size_t Space) {
  ToSpaceBytes = Space;
  ToBufBytes = Space + copySlackBytes(Space);
  ToSpace.reset(new uint8_t[ToBufBytes]);
  ToBase = reinterpret_cast<Word>(ToSpace.get());
  ToAlloc = ToBase;
}

void Heap::reserveCopySlack(unsigned Workers) {
  CopyWorkers = Workers;
  // Resize while the buffers are still empty (the collector is installed
  // before the program runs), so each run allocates semispace buffers of
  // one size only: freeing a large buffer and allocating a different size
  // can leave the freed, touched pages resident in the allocator.
  resetToSpace(ToSpaceBytes);
  if (AllocPtr == FromBase) {
    std::swap(FromSpace, ToSpace);
    std::swap(FromBase, ToBase);
    std::swap(FromBufBytes, ToBufBytes);
    AllocPtr = FromBase;
    OldLimit = FromBase + SpaceBytes - (Gen ? nurseryReserveBytes() : 0);
    resetToSpace(ToSpaceBytes);
  }
}

void Heap::endCollection(size_t WasteBytes) {
  std::swap(FromBase, ToBase);
  std::swap(FromSpace, ToSpace);
  std::swap(SpaceBytes, ToSpaceBytes);
  std::swap(FromBufBytes, ToBufBytes);
  AllocPtr = ToAlloc;
  FromWaste = WasteBytes;
  assert(SpaceBytes + FromWaste <= FromBufBytes &&
         "copy waste exceeds the reserved slack");
  CopyWasteBytes += WasteBytes;
  // The pair stays symmetric: the idle semispace must be able to absorb
  // a full copy of the (now larger) from-space at the next collection.
  if (ToSpaceBytes != SpaceBytes)
    resetToSpace(SpaceBytes);
  ToAlloc = ToBase;
  // Limits sit FromWaste above their serial positions: the fillers occupy
  // that much of the buffer below AllocPtr.
  OldLimit = FromBase + SpaceBytes + FromWaste -
             (Gen ? nurseryReserveBytes() : 0);
  if (Gen) {
    NurAlloc = NurFromBase; // The nursery was fully evacuated.
    RemSet.clear();         // Everything is old now.
  }
}

Word Heap::forwardYoung(Word Obj) {
  assert(inNursery(Obj) && "minor collection forwarding a non-nursery object");
  Word H = headerOf(Obj);
  if (H & ForwardBit)
    return H & ~ForwardBit;
  size_t Bytes = objectWords(Obj) * sizeof(Word);
  unsigned Age = headerAge(H) + 1;
  Word New;
  if (Age >= PromoteAge) {
    New = AllocPtr;
    assert(New + Bytes <= OldLimit &&
           "promotion overflow: minor collection started without headroom");
    AllocPtr += Bytes;
    ++ObjectsPromoted;
    BytesPromoted += Bytes;
  } else {
    New = NurToAlloc;
    assert(New + Bytes <= NurToBase + NurToHalfBytes &&
           "survivor-half overflow during minor collection");
    NurToAlloc += Bytes;
  }
  std::memcpy(reinterpret_cast<void *>(New),
              reinterpret_cast<const void *>(Obj), Bytes);
  // Ages are never reset on promotion: they keep counting evacuations for
  // the snapshot age attribution, and promoted objects (age >= PromoteAge,
  // now in old space) are out of forwardYoung's reach for good.
  setHeader(New, agedHeader(H));
  setHeader(Obj, New | ForwardBit);
  return New;
}

void Heap::endMinorCollection() {
  std::swap(NurFromBase, NurToBase);
  std::swap(NurFromBuf, NurToBuf);
  std::swap(NurFromHalfBytes, NurToHalfBytes);
  NurAlloc = NurToAlloc;
  NurToAlloc = NurToBase;
  if (Policy.NurseryAuto)
    resizeIdleNurseryHalf();
}

void Heap::resizeIdleNurseryHalf() {
  // Survivor-volume controller: grow when more than a quarter of the
  // active half survived the minor collection that just ended (promotion
  // pressure), shrink when less than a sixteenth did.  Only the idle
  // (empty) survivor half is resized; after the next swap the controller
  // sees the other half, so both converge within two minors.  The floor
  // is the configured --nursery-bytes size, the cap a quarter of the
  // current semispace.
  size_t Active = NurFromHalfBytes;
  size_t Survivors = NurAlloc - NurFromBase;
  size_t Target = Active;
  if (Survivors * 4 > Active)
    Target = Active * 2;
  else if (Survivors * 16 < Active)
    Target = Active / 2;
  Target = (Target + 7) & ~size_t(7);
  size_t Cap = nurseryAutoCapBytes(SpaceBytes);
  if (Target < NurFloorBytes)
    Target = NurFloorBytes;
  if (Target > Cap)
    Target = Cap;
  if (Target == NurToHalfBytes)
    return;
  NurToBuf.reset(new uint8_t[Target]);
  NurToBase = reinterpret_cast<Word>(NurToBuf.get());
  NurToAlloc = NurToBase;
  NurToHalfBytes = Target;
  ++NurseryResizes;
  // The old-space reserve follows the larger half; AllocPtr may already
  // sit past a shrunken OldLimit, which bumpAllocate tolerates (the next
  // allocateOld simply fails into a full collection).
  OldLimit = FromBase + SpaceBytes + FromWaste - nurseryReserveBytes();
}

bool Heap::plausibleObject(Word P) const {
  bool InOldUsed = P >= FromBase && P < AllocPtr;
  bool InNurUsed = Gen && P >= NurFromBase && P < NurAlloc;
  if (!InOldUsed && !InNurUsed)
    return false;
  Word Base = InOldUsed ? FromBase : NurFromBase;
  if ((P - Base) % sizeof(Word) != 0)
    return false;
  Word H = headerOf(P);
  if (H & ForwardBit)
    return false;
  // A filler's descriptor field is DescMask, which is never below
  // Descs.size() (the constructor asserts it), so the descriptor check
  // below rejects fillers too.
  // The site field restores most of the entropy the desc-field mask gave
  // up: a random word only passes when both its descriptor index and its
  // site id are in range.
  uint32_t Site = headerSite(H);
  if (Site != NoSiteHdr && Site >= SiteCount)
    return false;
  return headerDesc(H) < Descs.size();
}
