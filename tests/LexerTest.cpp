//===- LexerTest.cpp - Lexer unit tests -----------------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include <gtest/gtest.h>

#include <vector>

using namespace lna;

namespace {

std::vector<Token> lexAll(std::string_view Src, Diagnostics &Diags) {
  Lexer L(Src, Diags);
  std::vector<Token> Out;
  while (true) {
    Token T = L.next();
    if (T.is(TokenKind::Eof))
      break;
    Out.push_back(T);
  }
  return Out;
}

std::vector<TokenKind> kindsOf(std::string_view Src) {
  Diagnostics Diags;
  std::vector<TokenKind> Out;
  for (const Token &T : lexAll(Src, Diags))
    Out.push_back(T.Kind);
  return Out;
}

TEST(Lexer, EmptyInputIsEof) {
  Diagnostics Diags;
  Lexer L("", Diags);
  EXPECT_TRUE(L.next().is(TokenKind::Eof));
  EXPECT_TRUE(L.next().is(TokenKind::Eof)); // stays Eof
}

TEST(Lexer, Keywords) {
  EXPECT_EQ(kindsOf("let restrict confine in new newarray"),
            (std::vector<TokenKind>{TokenKind::KwLet, TokenKind::KwRestrict,
                                    TokenKind::KwConfine, TokenKind::KwIn,
                                    TokenKind::KwNew, TokenKind::KwNewArray}));
  EXPECT_EQ(kindsOf("if then else while do fun var struct cast"),
            (std::vector<TokenKind>{
                TokenKind::KwIf, TokenKind::KwThen, TokenKind::KwElse,
                TokenKind::KwWhile, TokenKind::KwDo, TokenKind::KwFun,
                TokenKind::KwVar, TokenKind::KwStruct, TokenKind::KwCast}));
  EXPECT_EQ(kindsOf("int lock ptr array"),
            (std::vector<TokenKind>{TokenKind::KwInt, TokenKind::KwLock,
                                    TokenKind::KwPtr, TokenKind::KwArray}));
}

TEST(Lexer, IdentifiersAreNotKeywords) {
  EXPECT_EQ(kindsOf("lets locked restricted _in in2"),
            (std::vector<TokenKind>{TokenKind::Ident, TokenKind::Ident,
                                    TokenKind::Ident, TokenKind::Ident,
                                    TokenKind::Ident}));
}

TEST(Lexer, IntegerLiteralValues) {
  Diagnostics Diags;
  auto Toks = lexAll("0 42 123456", Diags);
  ASSERT_EQ(Toks.size(), 3u);
  EXPECT_EQ(Toks[0].IntValue, 0);
  EXPECT_EQ(Toks[1].IntValue, 42);
  EXPECT_EQ(Toks[2].IntValue, 123456);
}

TEST(Lexer, IntegerLiteralAtInt64MaxIsExact) {
  Diagnostics Diags;
  auto Toks = lexAll("9223372036854775807", Diags);
  EXPECT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Toks.size(), 1u);
  EXPECT_EQ(Toks[0].IntValue, INT64_MAX);
}

TEST(Lexer, IntegerLiteralOverflowIsReported) {
  for (std::string_view Src :
       {"9223372036854775808", "99999999999999999999",
        "000000000000000000000000009223372036854775808"}) {
    Diagnostics Diags;
    auto Toks = lexAll(Src, Diags);
    ASSERT_EQ(Diags.errorCount(), 1u) << Src;
    EXPECT_EQ(Diags.all()[0].Message, "integer literal out of range") << Src;
    EXPECT_EQ(Diags.all()[0].Loc, (SourceLoc{1, 1})) << Src;
    // The literal stays one token, so the parser reports nothing more.
    ASSERT_EQ(Toks.size(), 1u) << Src;
    EXPECT_EQ(Toks[0].Kind, TokenKind::IntLit) << Src;
  }
}

TEST(Lexer, LeadingZerosDoNotOverflow) {
  Diagnostics Diags;
  auto Toks = lexAll("00000000000000000000000042", Diags);
  EXPECT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Toks.size(), 1u);
  EXPECT_EQ(Toks[0].IntValue, 42);
}

TEST(Lexer, KeywordPrefixesAndExtensionsAreIdentifiers) {
  for (std::string_view Src :
       {"in1", "iff", "lets", "newarrayx", "int_", "_", "do_", "i", "ne",
        "id", "io", "di", "newarra", "restric", "confinex", "structs", "whil",
        "Let", "IN"}) {
    Diagnostics Diags;
    auto Toks = lexAll(Src, Diags);
    ASSERT_EQ(Toks.size(), 1u) << Src;
    EXPECT_EQ(Toks[0].Kind, TokenKind::Ident) << Src;
    EXPECT_EQ(Toks[0].Text, Src);
  }
}

TEST(Lexer, KeywordsEndAtNonIdentifierCharacters) {
  EXPECT_EQ(kindsOf("in(if)do;new[int]"),
            (std::vector<TokenKind>{
                TokenKind::KwIn, TokenKind::LParen, TokenKind::KwIf,
                TokenKind::RParen, TokenKind::KwDo, TokenKind::Semi,
                TokenKind::KwNew, TokenKind::LBracket, TokenKind::KwInt,
                TokenKind::RBracket}));
}

TEST(Lexer, LocationsAcrossTabsCarriageReturnsAndComments) {
  // Every byte, tab and '\r' included, advances the column by one; only
  // '\n' starts a new line.
  Diagnostics Diags;
  Lexer L("a\tb\r\nc // x\n\td // end\n  ", Diags);
  std::vector<SourceLoc> Locs;
  while (true) {
    Token T = L.next();
    Locs.push_back(T.Loc);
    if (T.is(TokenKind::Eof))
      break;
  }
  EXPECT_EQ(Locs, (std::vector<SourceLoc>{
                      {1, 1}, {1, 3}, {2, 1}, {3, 2}, {4, 3}}));
}

TEST(Lexer, EofLocationAfterTrailingComment) {
  Diagnostics Diags;
  Lexer L("ab // c", Diags);
  EXPECT_EQ(L.next().Loc, (SourceLoc{1, 1}));
  Token End = L.next();
  EXPECT_TRUE(End.is(TokenKind::Eof));
  EXPECT_EQ(End.Loc, (SourceLoc{1, 8}));
  EXPECT_EQ(L.next().Loc, (SourceLoc{1, 8})); // Eof stays put
}

TEST(Lexer, CompositeOperators) {
  EXPECT_EQ(kindsOf(":= == != -> = : - < >"),
            (std::vector<TokenKind>{TokenKind::Assign, TokenKind::EqEq,
                                    TokenKind::NotEq, TokenKind::Arrow,
                                    TokenKind::EqSign, TokenKind::Colon,
                                    TokenKind::Minus, TokenKind::Less,
                                    TokenKind::Greater}));
}

TEST(Lexer, Punctuation) {
  EXPECT_EQ(kindsOf("( ) { } [ ] , ; * +"),
            (std::vector<TokenKind>{
                TokenKind::LParen, TokenKind::RParen, TokenKind::LBrace,
                TokenKind::RBrace, TokenKind::LBracket, TokenKind::RBracket,
                TokenKind::Comma, TokenKind::Semi, TokenKind::Star,
                TokenKind::Plus}));
}

TEST(Lexer, LineCommentsAreSkipped) {
  EXPECT_EQ(kindsOf("a // this is a comment\nb"),
            (std::vector<TokenKind>{TokenKind::Ident, TokenKind::Ident}));
}

TEST(Lexer, CommentAtEndOfInput) {
  EXPECT_TRUE(kindsOf("// only a comment").empty());
}

TEST(Lexer, LocationsTrackLinesAndColumns) {
  Diagnostics Diags;
  auto Toks = lexAll("ab cd\n  ef", Diags);
  ASSERT_EQ(Toks.size(), 3u);
  EXPECT_EQ(Toks[0].Loc, (SourceLoc{1, 1}));
  EXPECT_EQ(Toks[1].Loc, (SourceLoc{1, 4}));
  EXPECT_EQ(Toks[2].Loc, (SourceLoc{2, 3}));
}

TEST(Lexer, UnexpectedCharacterIsReported) {
  Diagnostics Diags;
  auto Toks = lexAll("a $ b", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  ASSERT_EQ(Toks.size(), 3u);
  EXPECT_EQ(Toks[1].Kind, TokenKind::Error);
}

TEST(Lexer, BangWithoutEqualsIsAnError) {
  Diagnostics Diags;
  lexAll("!x", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Lexer, TextViewsMatchSource) {
  Diagnostics Diags;
  auto Toks = lexAll("spin_lock(locks[i])", Diags);
  ASSERT_GE(Toks.size(), 4u);
  EXPECT_EQ(Toks[0].Text, "spin_lock");
  EXPECT_EQ(Toks[2].Text, "locks");
}

TEST(Lexer, TokenKindNamesAreStable) {
  EXPECT_STREQ(tokenKindName(TokenKind::KwRestrict), "'restrict'");
  EXPECT_STREQ(tokenKindName(TokenKind::Assign), "':='");
  EXPECT_STREQ(tokenKindName(TokenKind::Eof), "end of input");
}

} // namespace
