//===- Parser.h - Parser for the lna language -----------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser. Grammar (EBNF):
///
/// \code
///   program    := (structdef | globaldecl | fundef)*
///   structdef  := 'struct' Ident '{' (ident ':' type ';')* '}'
///   globaldecl := 'var' ident ':' type ';'
///   fundef     := 'fun' ident '(' params? ')' ':' type block
///   param      := 'restrict'? ident ':' type
///   type       := 'int' | 'lock' | 'ptr' type | 'array' type | Ident
///
///   expr       := compare (':=' expr)?
///   compare    := additive (('=='|'!='|'<'|'>') additive)?
///   additive   := unary (('+'|'-') unary)*
///   unary      := '*' unary | 'new' unary | 'newarray' unary | postfix
///   postfix    := primary ('->' ident | '[' expr ']')*
///   primary    := IntLit | ident ('(' args ')')? | '(' expr ')' | block
///              | 'let' ident '=' expr 'in' expr
///              | 'restrict' ident '=' expr 'in' expr
///              | 'confine' expr 'in' expr
///              | 'if' expr 'then' expr 'else' expr
///              | 'while' expr 'do' expr
///              | 'cast' '<' type '>' '(' expr ')'
///   block      := '{' (expr (';' expr)* ';'?)? '}'
/// \endcode
///
/// Note that `a[i]` and `p->f` evaluate to pointers to the selected cell
/// (see Ast.h); `*` loads.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_LANG_PARSER_H
#define LNA_LANG_PARSER_H

#include "lang/Ast.h"
#include "lang/Lexer.h"
#include "support/Diagnostics.h"

#include <optional>
#include <string_view>

namespace lna {

/// Parses one program. On syntax errors, diagnostics are reported and
/// parsing recovers at the next declaration where possible.
class Parser {
public:
  Parser(std::string_view Source, ASTContext &Ctx, Diagnostics &Diags);

  /// Parses the whole buffer. Returns std::nullopt if any syntax error was
  /// reported.
  std::optional<Program> parseProgram();

private:
  // Token plumbing.
  void bump();
  bool at(TokenKind K) const { return Tok.is(K); }
  bool consumeIf(TokenKind K);
  bool expect(TokenKind K);
  Symbol expectIdent();

  // Declarations.
  void parseStructDef(Program &P);
  void parseGlobalDecl(Program &P);
  void parseFunDef(Program &P);
  const TypeExpr *parseType();

  // Expressions.
  const Expr *parseExpr();
  const Expr *parseCompare();
  const Expr *parseAdditive();
  const Expr *parseUnary();
  const Expr *parsePostfix();
  const Expr *parsePrimary();
  const Expr *parseBlock();

  /// Recovers after an error by skipping to a likely declaration start.
  void synchronize();

  /// Reports a diagnostic and returns true when expression/type nesting
  /// exceeds MaxAstDepth (stack-overflow guard; counts in NestDepth).
  bool tooDeep();

  Lexer Lex;
  ASTContext &Ctx;
  Diagnostics &Diags;
  Token Tok;
  unsigned NestDepth = 0;
  /// Call arguments and block statements being gathered, innermost list
  /// on top; the factories copy a finished list into the arena.
  std::vector<const Expr *> Scratch;
};

/// Convenience: lex+parse \p Source into \p Ctx.
std::optional<Program> parse(std::string_view Source, ASTContext &Ctx,
                             Diagnostics &Diags);

} // namespace lna

#endif // LNA_LANG_PARSER_H
