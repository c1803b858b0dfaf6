//===- Lexer.h - Lexer for the lna language -------------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hand-written lexer. `//` line comments are skipped.
///
/// The hot loops (whitespace, comments, identifiers, digits) scan the
/// buffer directly against a 256-entry character-class table and add the
/// scanned length to the column once, instead of a bounds-checked
/// peek()/advance() per byte. Keywords are recognised by a switch on
/// length and first character, so an identifier is hashed only once, by
/// the interner.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_LANG_LEXER_H
#define LNA_LANG_LEXER_H

#include "lang/Token.h"
#include "support/Diagnostics.h"

#include <string_view>

namespace lna {

/// Lexes a source buffer into tokens, one at a time.
class Lexer {
public:
  Lexer(std::string_view Source, Diagnostics &Diags);

  /// Lexes and returns the next token (Eof at the end, forever after).
  Token next();

private:
  void skipTrivia();
  /// Consumes \p Len bytes, none of them '\n', starting at Start as one
  /// token of kind \p K at \p Loc.
  Token makeToken(TokenKind K, size_t Start, size_t Len, SourceLoc Loc);

  std::string_view Source;
  Diagnostics &Diags;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Col = 1;
};

} // namespace lna

#endif // LNA_LANG_LEXER_H
