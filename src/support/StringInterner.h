//===- StringInterner.h - Symbol interning --------------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interned identifiers. The parser, type environments, and the confine
/// block heuristic (which compares change_type arguments syntactically,
/// Section 7) all compare names frequently; interning makes comparison an
/// integer test.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_SUPPORT_STRINGINTERNER_H
#define LNA_SUPPORT_STRINGINTERNER_H

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace lna {

/// A dense id for an interned string. Id 0 is reserved for the empty
/// symbol so that default-constructed symbols are valid.
class Symbol {
public:
  Symbol() = default;
  explicit Symbol(uint32_t Id) : Id(Id) {}

  uint32_t id() const { return Id; }
  bool empty() const { return Id == 0; }

  friend bool operator==(Symbol A, Symbol B) { return A.Id == B.Id; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Id != B.Id; }
  friend bool operator<(Symbol A, Symbol B) { return A.Id < B.Id; }

private:
  uint32_t Id = 0;
};

/// Maps strings to dense Symbol ids and back.
///
/// Texts are stored in a deque, whose elements never move, so the
/// references returned by text() and the string_view keys of the lookup
/// map stay valid for the interner's lifetime.
class StringInterner {
public:
  StringInterner();

  /// Returns the symbol for \p Text, interning it if new.
  Symbol intern(std::string_view Text);

  /// Returns the text of \p S. The reference is stable for the lifetime of
  /// the interner.
  const std::string &text(Symbol S) const;

  /// Number of distinct symbols (including the reserved empty symbol).
  size_t size() const { return Texts.size(); }

  /// Makes room for \p N distinct symbols without rehashing.
  void reserve(size_t N) { Ids.reserve(N); }

private:
  std::deque<std::string> Texts;
  std::unordered_map<std::string_view, uint32_t> Ids;
};

} // namespace lna

namespace std {
template <> struct hash<lna::Symbol> {
  size_t operator()(lna::Symbol S) const { return S.id(); }
};
} // namespace std

#endif // LNA_SUPPORT_STRINGINTERNER_H
