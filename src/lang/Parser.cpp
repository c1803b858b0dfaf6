//===- Parser.cpp - Parser for the lna language ---------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

using namespace lna;

namespace {

/// Balances Parser::NestDepth across the recursive descent's early
/// returns.
struct NestScope {
  unsigned &D;
  explicit NestScope(unsigned &Depth) : D(Depth) { ++D; }
  ~NestScope() { --D; }
};

/// One child list gathered on the parser's scratch stack; popped on every
/// exit. A nested list pushes above it and pops before this one resumes,
/// so its entries stay contiguous.
class ScratchList {
public:
  explicit ScratchList(std::vector<const Expr *> &Stack)
      : Stack(Stack), Base(Stack.size()) {}
  ScratchList(const ScratchList &) = delete;
  ScratchList &operator=(const ScratchList &) = delete;
  ~ScratchList() { Stack.resize(Base); }
  void push(const Expr *E) { Stack.push_back(E); }
  ExprList list() const { return ExprList(Stack).subspan(Base); }

private:
  std::vector<const Expr *> &Stack;
  size_t Base;
};

} // namespace

bool Parser::tooDeep() {
  if (NestDepth <= MaxAstDepth)
    return false;
  Diags.error(Tok.Loc, "nesting too deep (more than " +
                           std::to_string(MaxAstDepth) + " levels)");
  return true;
}

Parser::Parser(std::string_view Source, ASTContext &Ctx, Diagnostics &Diags)
    : Lex(Source, Diags), Ctx(Ctx), Diags(Diags) {
  Ctx.reserveForSource(Source.size());
  Tok = Lex.next();
}

void Parser::bump() { Tok = Lex.next(); }

bool Parser::consumeIf(TokenKind K) {
  if (!at(K))
    return false;
  bump();
  return true;
}

bool Parser::expect(TokenKind K) {
  if (consumeIf(K))
    return true;
  Diags.error(Tok.Loc, std::string("expected ") + tokenKindName(K) +
                           ", found " + tokenKindName(Tok.Kind));
  return false;
}

Symbol Parser::expectIdent() {
  if (!at(TokenKind::Ident)) {
    Diags.error(Tok.Loc, std::string("expected identifier, found ") +
                             tokenKindName(Tok.Kind));
    return Symbol();
  }
  Symbol S = Ctx.intern(Tok.Text);
  bump();
  return S;
}

void Parser::synchronize() {
  while (!at(TokenKind::Eof) && !at(TokenKind::KwFun) &&
         !at(TokenKind::KwVar) && !at(TokenKind::KwStruct))
    bump();
}

std::optional<Program> Parser::parseProgram() {
  Program P;
  unsigned ErrorsBefore = Diags.errorCount();
  while (!at(TokenKind::Eof)) {
    if (at(TokenKind::KwStruct)) {
      parseStructDef(P);
    } else if (at(TokenKind::KwVar)) {
      parseGlobalDecl(P);
    } else if (at(TokenKind::KwFun)) {
      parseFunDef(P);
    } else {
      Diags.error(Tok.Loc,
                  std::string("expected declaration, found ") +
                      tokenKindName(Tok.Kind));
      synchronize();
    }
  }
  for (uint32_t I = 0; I < P.Funs.size(); ++I)
    P.Funs[I].Index = I;
  if (Diags.errorCount() != ErrorsBefore)
    return std::nullopt;
  return P;
}

void Parser::parseStructDef(Program &P) {
  StructDef S;
  S.Loc = Tok.Loc;
  expect(TokenKind::KwStruct);
  S.Name = expectIdent();
  expect(TokenKind::LBrace);
  while (!at(TokenKind::RBrace) && !at(TokenKind::Eof)) {
    Symbol FieldName = expectIdent();
    expect(TokenKind::Colon);
    const TypeExpr *FieldType = parseType();
    expect(TokenKind::Semi);
    if (!FieldType)
      break;
    S.Fields.emplace_back(FieldName, FieldType);
  }
  expect(TokenKind::RBrace);
  P.Structs.push_back(std::move(S));
}

void Parser::parseGlobalDecl(Program &P) {
  GlobalDecl G;
  G.Loc = Tok.Loc;
  expect(TokenKind::KwVar);
  G.Name = expectIdent();
  expect(TokenKind::Colon);
  G.DeclType = parseType();
  expect(TokenKind::Semi);
  if (G.DeclType)
    P.Globals.push_back(G);
}

void Parser::parseFunDef(Program &P) {
  FunDef F;
  F.Loc = Tok.Loc;
  expect(TokenKind::KwFun);
  F.Name = expectIdent();
  expect(TokenKind::LParen);
  if (!at(TokenKind::RParen)) {
    do {
      bool IsRestrict = consumeIf(TokenKind::KwRestrict);
      Symbol ParamName = expectIdent();
      expect(TokenKind::Colon);
      const TypeExpr *ParamType = parseType();
      if (!ParamType)
        break;
      F.Params.emplace_back(ParamName, ParamType);
      F.ParamRestrict.push_back(IsRestrict);
    } while (consumeIf(TokenKind::Comma));
  }
  expect(TokenKind::RParen);
  expect(TokenKind::Colon);
  F.ReturnType = parseType();
  if (!at(TokenKind::LBrace)) {
    Diags.error(Tok.Loc, "expected function body block");
    synchronize();
    return;
  }
  F.Body = parseBlock();
  if (F.ReturnType && F.Body)
    P.Funs.push_back(std::move(F));
}

const TypeExpr *Parser::parseType() {
  NestScope Guard(NestDepth);
  if (tooDeep())
    return nullptr;
  SourceLoc Loc = Tok.Loc;
  switch (Tok.Kind) {
  case TokenKind::KwInt:
    bump();
    return Ctx.intType();
  case TokenKind::KwLock:
    bump();
    return Ctx.lockType();
  case TokenKind::KwPtr: {
    bump();
    const TypeExpr *Elem = parseType();
    return Elem ? Ctx.ptrType(Elem) : nullptr;
  }
  case TokenKind::KwArray: {
    bump();
    const TypeExpr *Elem = parseType();
    return Elem ? Ctx.arrayType(Elem) : nullptr;
  }
  case TokenKind::Ident: {
    Symbol Name = Ctx.intern(Tok.Text);
    bump();
    return Ctx.namedType(Name);
  }
  default:
    Diags.error(Loc, std::string("expected type, found ") +
                         tokenKindName(Tok.Kind));
    return nullptr;
  }
}

const Expr *Parser::parseExpr() {
  // Every unbounded nesting construct re-enters through here (or through
  // parseUnary/parseType for `*`/`new`/`ptr` chains), so one depth check
  // per entry bounds the whole descent.
  NestScope Guard(NestDepth);
  if (tooDeep())
    return nullptr;
  const Expr *Lhs = parseCompare();
  if (!Lhs)
    return nullptr;
  if (at(TokenKind::Assign)) {
    SourceLoc Loc = Tok.Loc;
    bump();
    const Expr *Rhs = parseExpr();
    if (!Rhs)
      return nullptr;
    return Ctx.assign(Loc, Lhs, Rhs);
  }
  return Lhs;
}

const Expr *Parser::parseCompare() {
  const Expr *Lhs = parseAdditive();
  if (!Lhs)
    return nullptr;
  BinOpExpr::Op O;
  switch (Tok.Kind) {
  case TokenKind::EqEq:
    O = BinOpExpr::Op::Eq;
    break;
  case TokenKind::NotEq:
    O = BinOpExpr::Op::Ne;
    break;
  case TokenKind::Less:
    O = BinOpExpr::Op::Lt;
    break;
  case TokenKind::Greater:
    O = BinOpExpr::Op::Gt;
    break;
  default:
    return Lhs;
  }
  SourceLoc Loc = Tok.Loc;
  bump();
  const Expr *Rhs = parseAdditive();
  if (!Rhs)
    return nullptr;
  return Ctx.binOp(Loc, O, Lhs, Rhs);
}

const Expr *Parser::parseAdditive() {
  const Expr *Lhs = parseUnary();
  if (!Lhs)
    return nullptr;
  while (at(TokenKind::Plus) || at(TokenKind::Minus)) {
    BinOpExpr::Op O =
        at(TokenKind::Plus) ? BinOpExpr::Op::Add : BinOpExpr::Op::Sub;
    SourceLoc Loc = Tok.Loc;
    bump();
    const Expr *Rhs = parseUnary();
    if (!Rhs)
      return nullptr;
    Lhs = Ctx.binOp(Loc, O, Lhs, Rhs);
  }
  return Lhs;
}

const Expr *Parser::parseUnary() {
  NestScope Guard(NestDepth);
  if (tooDeep())
    return nullptr;
  SourceLoc Loc = Tok.Loc;
  if (consumeIf(TokenKind::Star)) {
    const Expr *Operand = parseUnary();
    return Operand ? Ctx.deref(Loc, Operand) : nullptr;
  }
  if (consumeIf(TokenKind::KwNew)) {
    const Expr *Init = parseUnary();
    return Init ? Ctx.newCell(Loc, Init) : nullptr;
  }
  if (consumeIf(TokenKind::KwNewArray)) {
    const Expr *Init = parseUnary();
    return Init ? Ctx.newArray(Loc, Init) : nullptr;
  }
  return parsePostfix();
}

const Expr *Parser::parsePostfix() {
  const Expr *E = parsePrimary();
  if (!E)
    return nullptr;
  while (true) {
    if (at(TokenKind::Arrow)) {
      SourceLoc Loc = Tok.Loc;
      bump();
      Symbol Field = expectIdent();
      E = Ctx.fieldAddr(Loc, E, Field);
      continue;
    }
    if (at(TokenKind::LBracket)) {
      SourceLoc Loc = Tok.Loc;
      bump();
      const Expr *Idx = parseExpr();
      if (!Idx || !expect(TokenKind::RBracket))
        return nullptr;
      E = Ctx.index(Loc, E, Idx);
      continue;
    }
    return E;
  }
}

const Expr *Parser::parseBlock() {
  SourceLoc Loc = Tok.Loc;
  expect(TokenKind::LBrace);
  ScratchList Stmts(Scratch);
  while (!at(TokenKind::RBrace) && !at(TokenKind::Eof)) {
    const Expr *S = parseExpr();
    if (!S)
      break;
    Stmts.push(S);
    if (!consumeIf(TokenKind::Semi))
      break;
  }
  expect(TokenKind::RBrace);
  return Ctx.block(Loc, Stmts.list());
}

const Expr *Parser::parsePrimary() {
  SourceLoc Loc = Tok.Loc;
  switch (Tok.Kind) {
  case TokenKind::IntLit: {
    int64_t V = Tok.IntValue;
    bump();
    return Ctx.intLit(Loc, V);
  }
  case TokenKind::Ident: {
    Symbol Name = Ctx.intern(Tok.Text);
    bump();
    if (!at(TokenKind::LParen))
      return Ctx.varRef(Loc, Name);
    bump();
    ScratchList Args(Scratch);
    if (!at(TokenKind::RParen)) {
      do {
        const Expr *A = parseExpr();
        if (!A)
          return nullptr;
        Args.push(A);
      } while (consumeIf(TokenKind::Comma));
    }
    if (!expect(TokenKind::RParen))
      return nullptr;
    return Ctx.call(Loc, Name, Args.list());
  }
  case TokenKind::LParen: {
    bump();
    const Expr *E = parseExpr();
    if (!E || !expect(TokenKind::RParen))
      return nullptr;
    return E;
  }
  case TokenKind::LBrace:
    return parseBlock();
  case TokenKind::KwLet:
  case TokenKind::KwRestrict: {
    BindExpr::BindKind BK = at(TokenKind::KwLet) ? BindExpr::BindKind::Let
                                                 : BindExpr::BindKind::Restrict;
    bump();
    Symbol Name = expectIdent();
    if (!expect(TokenKind::EqSign))
      return nullptr;
    const Expr *Init = parseExpr();
    if (!Init || !expect(TokenKind::KwIn))
      return nullptr;
    const Expr *Body = parseExpr();
    if (!Body)
      return nullptr;
    return Ctx.bind(Loc, BK, Name, Init, Body);
  }
  case TokenKind::KwConfine: {
    bump();
    const Expr *Subject = parseExpr();
    if (!Subject || !expect(TokenKind::KwIn))
      return nullptr;
    const Expr *Body = parseExpr();
    if (!Body)
      return nullptr;
    return Ctx.confine(Loc, Subject, Body);
  }
  case TokenKind::KwIf: {
    bump();
    const Expr *Cond = parseExpr();
    if (!Cond || !expect(TokenKind::KwThen))
      return nullptr;
    const Expr *Then = parseExpr();
    if (!Then || !expect(TokenKind::KwElse))
      return nullptr;
    const Expr *Else = parseExpr();
    if (!Else)
      return nullptr;
    return Ctx.ifExpr(Loc, Cond, Then, Else);
  }
  case TokenKind::KwWhile: {
    bump();
    const Expr *Cond = parseExpr();
    if (!Cond || !expect(TokenKind::KwDo))
      return nullptr;
    const Expr *Body = parseExpr();
    if (!Body)
      return nullptr;
    return Ctx.whileExpr(Loc, Cond, Body);
  }
  case TokenKind::KwCast: {
    bump();
    if (!expect(TokenKind::Less))
      return nullptr;
    const TypeExpr *Target = parseType();
    if (!Target || !expect(TokenKind::Greater) || !expect(TokenKind::LParen))
      return nullptr;
    const Expr *Operand = parseExpr();
    if (!Operand || !expect(TokenKind::RParen))
      return nullptr;
    return Ctx.castExpr(Loc, Target, Operand);
  }
  default:
    Diags.error(Loc, std::string("expected expression, found ") +
                         tokenKindName(Tok.Kind));
    bump();
    return nullptr;
  }
}

std::optional<Program> lna::parse(std::string_view Source, ASTContext &Ctx,
                                  Diagnostics &Diags) {
  Parser P(Source, Ctx, Diags);
  return P.parseProgram();
}
