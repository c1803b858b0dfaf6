//===- Lexer.cpp - Lexer for the lna language -----------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include <array>
#include <cstring>

using namespace lna;

const char *lna::tokenKindName(TokenKind K) {
  switch (K) {
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Error:
    return "invalid token";
  case TokenKind::IntLit:
    return "integer literal";
  case TokenKind::Ident:
    return "identifier";
  case TokenKind::KwLet:
    return "'let'";
  case TokenKind::KwRestrict:
    return "'restrict'";
  case TokenKind::KwConfine:
    return "'confine'";
  case TokenKind::KwIn:
    return "'in'";
  case TokenKind::KwNew:
    return "'new'";
  case TokenKind::KwNewArray:
    return "'newarray'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwThen:
    return "'then'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwDo:
    return "'do'";
  case TokenKind::KwFun:
    return "'fun'";
  case TokenKind::KwVar:
    return "'var'";
  case TokenKind::KwStruct:
    return "'struct'";
  case TokenKind::KwCast:
    return "'cast'";
  case TokenKind::KwInt:
    return "'int'";
  case TokenKind::KwLock:
    return "'lock'";
  case TokenKind::KwPtr:
    return "'ptr'";
  case TokenKind::KwArray:
    return "'array'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Semi:
    return "';'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Arrow:
    return "'->'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Assign:
    return "':='";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::NotEq:
    return "'!='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::EqSign:
    return "'='";
  }
  return "<unknown>";
}

namespace {

/// Character classes driving the scanning loops. Anything outside ASCII
/// letters, digits and whitespace is CcOther: punctuation, or an invalid
/// byte that next() reports.
enum CharClass : uint8_t { CcOther, CcSpace, CcNewline, CcDigit, CcAlpha };

constexpr std::array<uint8_t, 256> makeCharClasses() {
  std::array<uint8_t, 256> T{};
  T[' '] = T['\t'] = T['\r'] = CcSpace;
  T['\n'] = CcNewline;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = CcDigit;
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = T[C - 'a' + 'A'] = CcAlpha;
  T['_'] = CcAlpha;
  return T;
}

constexpr std::array<uint8_t, 256> CharClasses = makeCharClasses();

uint8_t classOf(char C) { return CharClasses[static_cast<unsigned char>(C)]; }

bool isIdentChar(char C) {
  uint8_t K = classOf(C);
  return K == CcAlpha || K == CcDigit;
}

TokenKind keyword(std::string_view Word, std::string_view Spelling,
                  TokenKind K) {
  return Word == Spelling ? K : TokenKind::Ident;
}

/// The keyword spelled \p Word, or Ident. Dispatches on length and first
/// character, so at most one spelling is compared.
TokenKind keywordKind(std::string_view Word) {
  switch (Word.size()) {
  case 2:
    switch (Word[0]) {
    case 'i':
      return Word[1] == 'n'   ? TokenKind::KwIn
             : Word[1] == 'f' ? TokenKind::KwIf
                              : TokenKind::Ident;
    case 'd':
      return keyword(Word, "do", TokenKind::KwDo);
    }
    break;
  case 3:
    switch (Word[0]) {
    case 'l':
      return keyword(Word, "let", TokenKind::KwLet);
    case 'n':
      return keyword(Word, "new", TokenKind::KwNew);
    case 'f':
      return keyword(Word, "fun", TokenKind::KwFun);
    case 'v':
      return keyword(Word, "var", TokenKind::KwVar);
    case 'i':
      return keyword(Word, "int", TokenKind::KwInt);
    case 'p':
      return keyword(Word, "ptr", TokenKind::KwPtr);
    }
    break;
  case 4:
    switch (Word[0]) {
    case 't':
      return keyword(Word, "then", TokenKind::KwThen);
    case 'e':
      return keyword(Word, "else", TokenKind::KwElse);
    case 'c':
      return keyword(Word, "cast", TokenKind::KwCast);
    case 'l':
      return keyword(Word, "lock", TokenKind::KwLock);
    }
    break;
  case 5:
    switch (Word[0]) {
    case 'w':
      return keyword(Word, "while", TokenKind::KwWhile);
    case 'a':
      return keyword(Word, "array", TokenKind::KwArray);
    }
    break;
  case 6:
    return keyword(Word, "struct", TokenKind::KwStruct);
  case 7:
    return keyword(Word, "confine", TokenKind::KwConfine);
  case 8:
    switch (Word[0]) {
    case 'r':
      return keyword(Word, "restrict", TokenKind::KwRestrict);
    case 'n':
      return keyword(Word, "newarray", TokenKind::KwNewArray);
    }
    break;
  }
  return TokenKind::Ident;
}

} // namespace

Lexer::Lexer(std::string_view Source, Diagnostics &Diags)
    : Source(Source), Diags(Diags) {}

void Lexer::skipTrivia() {
  const char *S = Source.data();
  const size_t End = Source.size();
  size_t P = Pos;
  while (P != End) {
    switch (classOf(S[P])) {
    case CcSpace:
      ++P;
      ++Col;
      continue;
    case CcNewline:
      ++P;
      ++Line;
      Col = 1;
      continue;
    case CcOther:
      if (S[P] == '/' && P + 1 != End && S[P + 1] == '/') {
        // The comment runs up to (not through) the next '\n'.
        const void *NL = std::memchr(S + P, '\n', End - P);
        size_t Stop = NL ? static_cast<const char *>(NL) - S : End;
        Col += static_cast<uint32_t>(Stop - P);
        P = Stop;
        continue;
      }
      break;
    default:
      break;
    }
    break;
  }
  Pos = P;
}

Token Lexer::makeToken(TokenKind K, size_t Start, size_t Len, SourceLoc Loc) {
  Pos = Start + Len;
  Col += static_cast<uint32_t>(Len);
  Token T;
  T.Kind = K;
  T.Text = std::string_view(Source.data() + Start, Len);
  T.Loc = Loc;
  return T;
}

Token Lexer::next() {
  skipTrivia();
  SourceLoc Loc{Line, Col};
  const char *S = Source.data();
  const size_t End = Source.size();
  const size_t Start = Pos;
  if (Start == End)
    return makeToken(TokenKind::Eof, Start, 0, Loc);

  char C = S[Start];
  switch (classOf(C)) {
  case CcDigit: {
    // Accumulate while the value fits; a literal past INT64_MAX is a
    // diagnostic, never a wrapped value.
    uint64_t V = 0;
    bool Overflow = false;
    size_t P = Start;
    do {
      unsigned D = static_cast<unsigned>(S[P] - '0');
      if (Overflow || V > (uint64_t(INT64_MAX) - D) / 10)
        Overflow = true;
      else
        V = V * 10 + D;
      ++P;
    } while (P != End && classOf(S[P]) == CcDigit);
    Token T = makeToken(TokenKind::IntLit, Start, P - Start, Loc);
    if (Overflow)
      Diags.error(Loc, "integer literal out of range");
    else
      T.IntValue = static_cast<int64_t>(V);
    return T;
  }
  case CcAlpha: {
    size_t P = Start + 1;
    while (P != End && isIdentChar(S[P]))
      ++P;
    Token T = makeToken(TokenKind::Ident, Start, P - Start, Loc);
    T.Kind = keywordKind(T.Text);
    return T;
  }
  default:
    break;
  }

  // One- and two-character punctuation; \p Second completes the pair.
  auto Pair = [&](char Second, TokenKind Two, TokenKind One) {
    if (Start + 1 != End && S[Start + 1] == Second)
      return makeToken(Two, Start, 2, Loc);
    return makeToken(One, Start, 1, Loc);
  };
  switch (C) {
  case '(':
    return makeToken(TokenKind::LParen, Start, 1, Loc);
  case ')':
    return makeToken(TokenKind::RParen, Start, 1, Loc);
  case '{':
    return makeToken(TokenKind::LBrace, Start, 1, Loc);
  case '}':
    return makeToken(TokenKind::RBrace, Start, 1, Loc);
  case '[':
    return makeToken(TokenKind::LBracket, Start, 1, Loc);
  case ']':
    return makeToken(TokenKind::RBracket, Start, 1, Loc);
  case ',':
    return makeToken(TokenKind::Comma, Start, 1, Loc);
  case ';':
    return makeToken(TokenKind::Semi, Start, 1, Loc);
  case '*':
    return makeToken(TokenKind::Star, Start, 1, Loc);
  case '+':
    return makeToken(TokenKind::Plus, Start, 1, Loc);
  case '<':
    return makeToken(TokenKind::Less, Start, 1, Loc);
  case '>':
    return makeToken(TokenKind::Greater, Start, 1, Loc);
  case ':':
    return Pair('=', TokenKind::Assign, TokenKind::Colon);
  case '-':
    return Pair('>', TokenKind::Arrow, TokenKind::Minus);
  case '=':
    return Pair('=', TokenKind::EqEq, TokenKind::EqSign);
  case '!':
    if (Start + 1 != End && S[Start + 1] == '=')
      return makeToken(TokenKind::NotEq, Start, 2, Loc);
    break;
  default:
    break;
  }

  Diags.error(Loc, std::string("unexpected character '") + C + "'");
  return makeToken(TokenKind::Error, Start, 1, Loc);
}
