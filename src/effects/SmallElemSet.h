//===- SmallElemSet.h - Inline small-size-optimized elem set --*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The effect solver's solution-set representation. The PR 4 corpus
/// histograms put effect-set sizes at p50 = 1 and p95 = 3, so the common
/// case is a handful of packed EffectElem words: an inline array of four
/// slots covers it with zero heap traffic. Larger sets spill to a private
/// open-addressing table (power-of-two capacity, multiplicative hashing).
///
/// Elements are EffectElem::bits() values: (loc << 2) | kind with kind in
/// 0..2. Bits pattern 0 is a *valid* element (loc 0, read), so the empty
/// slot sentinel is 0xFFFFFFFF, which no element can equal (its kind
/// field would be 3).
///
/// The set supports insert/contains/size/clear/iteration/equality only --
/// the solver never erases individual elements (re-canonicalization
/// rebuilds whole sets), which keeps the table tombstone-free.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_EFFECTS_SMALLELEMSET_H
#define LNA_EFFECTS_SMALLELEMSET_H

#include <cstdint>
#include <cstring>
#include <utility>

namespace lna {

/// A set of packed effect-element words, inline up to 4 elements.
class SmallElemSet {
public:
  static constexpr uint32_t EmptySlot = 0xFFFFFFFFu;
  static constexpr uint32_t InlineCap = 4;

  SmallElemSet() = default;
  ~SmallElemSet() { release(); }

  SmallElemSet(const SmallElemSet &O) { copyFrom(O); }
  SmallElemSet &operator=(const SmallElemSet &O) {
    if (this != &O) {
      release();
      copyFrom(O);
    }
    return *this;
  }
  SmallElemSet(SmallElemSet &&O) noexcept { moveFrom(O); }
  SmallElemSet &operator=(SmallElemSet &&O) noexcept {
    if (this != &O) {
      release();
      moveFrom(O);
    }
    return *this;
  }

  uint32_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  bool contains(uint32_t E) const {
    if (Cap == 0) {
      for (uint32_t I = 0; I < Count; ++I)
        if (Small[I] == E)
          return true;
      return false;
    }
    for (uint32_t I = slotOf(E);; I = (I + 1) & (Cap - 1)) {
      if (Slots[I] == E)
        return true;
      if (Slots[I] == EmptySlot)
        return false;
    }
  }
  /// unordered_set-compatible spelling.
  uint32_t count(uint32_t E) const { return contains(E) ? 1u : 0u; }

  /// Inserts \p E; returns true if it was not already present.
  bool insert(uint32_t E) {
    if (Cap == 0) {
      for (uint32_t I = 0; I < Count; ++I)
        if (Small[I] == E)
          return false;
      if (Count < InlineCap) {
        Small[Count++] = E;
        return true;
      }
      spill();
    } else if (Count * 4 >= Cap * 3) {
      grow(Cap * 2);
    }
    return insertTable(E);
  }

  void clear() {
    release();
    Count = 0;
  }

  void reserve(uint32_t N) {
    if (N <= InlineCap || Cap >= 2 * N)
      return;
    uint32_t NewCap = 8;
    while (NewCap < 2 * N)
      NewCap *= 2;
    if (Cap == 0)
      spill(NewCap);
    else
      grow(NewCap);
  }

  /// Iterates the stored elements (inline: insertion order; spilled:
  /// table order). No ordering is guaranteed -- consumers needing
  /// determinism must sort or reduce order-independently.
  class iterator {
  public:
    iterator(const uint32_t *P, const uint32_t *End, bool Skip)
        : P(P), End(End) {
      if (Skip)
        advance();
    }
    uint32_t operator*() const { return *P; }
    iterator &operator++() {
      ++P;
      advance();
      return *this;
    }
    bool operator==(const iterator &O) const { return P == O.P; }
    bool operator!=(const iterator &O) const { return P != O.P; }

  private:
    void advance() {
      while (P != End && *P == EmptySlot)
        ++P;
    }
    const uint32_t *P;
    const uint32_t *End;
  };

  iterator begin() const {
    if (Cap == 0)
      return iterator(Small, Small + Count, false);
    return iterator(Slots, Slots + Cap, true);
  }
  iterator end() const {
    if (Cap == 0)
      return iterator(Small + Count, Small + Count, false);
    return iterator(Slots + Cap, Slots + Cap, false);
  }

  /// Set equality, independent of insertion order and representation.
  friend bool operator==(const SmallElemSet &A, const SmallElemSet &B) {
    if (A.Count != B.Count)
      return false;
    for (uint32_t E : A)
      if (!B.contains(E))
        return false;
    return true;
  }
  friend bool operator!=(const SmallElemSet &A, const SmallElemSet &B) {
    return !(A == B);
  }

private:
  /// Frees the heap table, if any, leaving the set inline.
  void release() {
    if (Cap != 0)
      delete[] Slots;
    Cap = 0;
  }

  uint32_t slotOf(uint32_t E) const {
    // Multiplicative (Fibonacci) hashing; Cap is a power of two.
    return (E * 2654435761u) >> HashShift & (Cap - 1);
  }

  bool insertTable(uint32_t E) {
    for (uint32_t I = slotOf(E);; I = (I + 1) & (Cap - 1)) {
      if (Slots[I] == E)
        return false;
      if (Slots[I] == EmptySlot) {
        Slots[I] = E;
        ++Count;
        return true;
      }
    }
  }

  void spill(uint32_t NewCap = 2 * InlineCap) {
    uint32_t Saved[InlineCap];
    uint32_t N = Count;
    std::memcpy(Saved, Small, sizeof(Saved));
    Slots = new uint32_t[NewCap];
    std::memset(Slots, 0xFF, NewCap * sizeof(uint32_t));
    Cap = NewCap;
    Count = 0;
    for (uint32_t I = 0; I < N; ++I)
      insertTable(Saved[I]);
  }

  void grow(uint32_t NewCap) {
    uint32_t *Old = Slots;
    uint32_t OldCap = Cap;
    Slots = new uint32_t[NewCap];
    std::memset(Slots, 0xFF, NewCap * sizeof(uint32_t));
    Cap = NewCap;
    Count = 0;
    for (uint32_t I = 0; I < OldCap; ++I)
      if (Old[I] != EmptySlot)
        insertTable(Old[I]);
    delete[] Old;
  }

  void copyFrom(const SmallElemSet &O) {
    Count = O.Count;
    Cap = O.Cap;
    if (O.Cap == 0) {
      std::memcpy(Small, O.Small, sizeof(Small));
    } else {
      Slots = new uint32_t[O.Cap];
      std::memcpy(Slots, O.Slots, O.Cap * sizeof(uint32_t));
    }
  }

  void moveFrom(SmallElemSet &O) {
    Count = O.Count;
    Cap = O.Cap;
    std::memcpy(Small, O.Small, sizeof(Small)); // the table pointer, if any
    O.Cap = 0;
    O.Count = 0;
  }

  static constexpr uint32_t HashShift = 16;

  /// Inline elements while Cap is 0, else the heap table: a solver keeps
  /// one set per effect variable, so the set is 24 bytes, not 32.
  union {
    uint32_t Small[InlineCap] = {};
    uint32_t *Slots;
  };
  uint32_t Count = 0;
  uint32_t Cap = 0; ///< heap table capacity (power of two); 0 = inline
};
static_assert(sizeof(SmallElemSet) == 24, "one set per effect variable");

} // namespace lna

#endif // LNA_EFFECTS_SMALLELEMSET_H
