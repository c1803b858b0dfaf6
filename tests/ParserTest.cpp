//===- ParserTest.cpp - Parser unit tests ---------------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "lang/AstPrinter.h"
#include "lang/Parser.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

using namespace lna;

namespace {

std::optional<Program> parseOk(ASTContext &Ctx, std::string_view Src) {
  Diagnostics Diags;
  auto P = parse(Src, Ctx, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.render();
  return P;
}

const Expr *parseBody(ASTContext &Ctx, const std::string &BodySrc) {
  auto P = parseOk(Ctx, "fun f() : int " + BodySrc);
  if (!P || P->Funs.empty())
    return nullptr;
  return P->Funs[0].Body;
}

/// Last statement of the single function's body block.
const Expr *lastStmt(ASTContext &Ctx, const std::string &BodySrc) {
  const Expr *Body = parseBody(Ctx, BodySrc);
  if (!Body)
    return nullptr;
  const auto *B = cast<BlockExpr>(Body);
  return B->stmts().empty() ? nullptr : B->stmts().back();
}

TEST(Parser, EmptyProgram) {
  ASTContext Ctx;
  auto P = parseOk(Ctx, "");
  EXPECT_TRUE(P->Funs.empty());
  EXPECT_TRUE(P->Globals.empty());
  EXPECT_TRUE(P->Structs.empty());
}

TEST(Parser, GlobalDecls) {
  ASTContext Ctx;
  auto P = parseOk(Ctx, "var g : lock;\nvar a : array lock;\n"
                        "var p : ptr ptr int;");
  ASSERT_EQ(P->Globals.size(), 3u);
  EXPECT_EQ(P->Globals[0].DeclType->kind(), TypeExpr::Kind::Lock);
  EXPECT_EQ(P->Globals[1].DeclType->kind(), TypeExpr::Kind::Array);
  EXPECT_EQ(P->Globals[2].DeclType->kind(), TypeExpr::Kind::Ptr);
  EXPECT_EQ(P->Globals[2].DeclType->element()->kind(), TypeExpr::Kind::Ptr);
}

TEST(Parser, StructDef) {
  ASTContext Ctx;
  auto P = parseOk(Ctx, "struct Dev { lck : lock; next : ptr Dev; n : int; }");
  ASSERT_EQ(P->Structs.size(), 1u);
  const StructDef &S = P->Structs[0];
  ASSERT_EQ(S.Fields.size(), 3u);
  EXPECT_EQ(Ctx.text(S.Fields[0].first), "lck");
  EXPECT_EQ(S.Fields[1].second->kind(), TypeExpr::Kind::Ptr);
  EXPECT_EQ(Ctx.text(S.Fields[1].second->element()->name()), "Dev");
}

TEST(Parser, FunctionWithParams) {
  ASTContext Ctx;
  auto P = parseOk(Ctx, "fun f(a : int, l : ptr lock) : int { 0 }");
  ASSERT_EQ(P->Funs.size(), 1u);
  const FunDef &F = P->Funs[0];
  ASSERT_EQ(F.Params.size(), 2u);
  EXPECT_FALSE(F.ParamRestrict[0]);
  EXPECT_FALSE(F.ParamRestrict[1]);
  EXPECT_EQ(F.ReturnType->kind(), TypeExpr::Kind::Int);
}

TEST(Parser, RestrictParameter) {
  ASTContext Ctx;
  auto P = parseOk(Ctx, "fun f(restrict l : ptr lock) : int { 0 }");
  ASSERT_EQ(P->Funs.size(), 1u);
  EXPECT_TRUE(P->Funs[0].ParamRestrict[0]);
}

TEST(Parser, LetAndRestrictBindings) {
  ASTContext Ctx;
  const Expr *S = lastStmt(Ctx, "{ let x = new 1 in restrict y = x in *y }");
  ASSERT_NE(S, nullptr);
  const auto *Let = cast<BindExpr>(S);
  EXPECT_EQ(Let->bindKind(), BindExpr::BindKind::Let);
  const auto *Restrict = cast<BindExpr>(Let->body());
  EXPECT_EQ(Restrict->bindKind(), BindExpr::BindKind::Restrict);
  EXPECT_TRUE(isa<DerefExpr>(Restrict->body()));
}

TEST(Parser, ConfineExprParses) {
  ASTContext Ctx;
  const Expr *S = lastStmt(Ctx, "{ confine p in { *p } }");
  ASSERT_NE(S, nullptr);
  const auto *C = cast<ConfineExpr>(S);
  EXPECT_TRUE(isa<VarRefExpr>(C->subject()));
  EXPECT_TRUE(isa<BlockExpr>(C->body()));
}

TEST(Parser, AssignIsRightAssociative) {
  ASTContext Ctx;
  const Expr *S = lastStmt(Ctx, "{ a := b := c }");
  ASSERT_NE(S, nullptr);
  const auto *Outer = cast<AssignExpr>(S);
  EXPECT_TRUE(isa<VarRefExpr>(Outer->target()));
  EXPECT_TRUE(isa<AssignExpr>(Outer->value()));
}

TEST(Parser, PostfixChainsBindTighterThanDeref) {
  ASTContext Ctx;
  // *a[i]->f parses as *((a[i])->f)
  const Expr *S = lastStmt(Ctx, "{ *a[i]->f }");
  ASSERT_NE(S, nullptr);
  const auto *D = cast<DerefExpr>(S);
  const auto *F = cast<FieldAddrExpr>(D->pointer());
  EXPECT_TRUE(isa<IndexExpr>(F->base()));
}

TEST(Parser, ArithmeticPrecedence) {
  ASTContext Ctx;
  // a + b == c parses as (a + b) == c.
  const Expr *S = lastStmt(Ctx, "{ a + b == c }");
  const auto *Cmp = cast<BinOpExpr>(S);
  EXPECT_EQ(Cmp->op(), BinOpExpr::Op::Eq);
  EXPECT_EQ(cast<BinOpExpr>(Cmp->lhs())->op(), BinOpExpr::Op::Add);
}

TEST(Parser, CallWithArguments) {
  ASTContext Ctx;
  const Expr *S = lastStmt(Ctx, "{ g(1, x, h()) }");
  const auto *C = cast<CallExpr>(S);
  EXPECT_EQ(Ctx.text(C->callee()), "g");
  ASSERT_EQ(C->args().size(), 3u);
  EXPECT_TRUE(isa<CallExpr>(C->args()[2]));
}

TEST(Parser, IfThenElseAndWhile) {
  ASTContext Ctx;
  const Expr *S =
      lastStmt(Ctx, "{ if nondet() then 1 else while nondet() do work() }");
  const auto *I = cast<IfExpr>(S);
  EXPECT_TRUE(isa<WhileExpr>(I->elseExpr()));
}

TEST(Parser, CastSyntax) {
  ASTContext Ctx;
  const Expr *S = lastStmt(Ctx, "{ cast<ptr lock>(x) }");
  const auto *C = cast<CastExpr>(S);
  EXPECT_EQ(C->targetType()->kind(), TypeExpr::Kind::Ptr);
  EXPECT_TRUE(isa<VarRefExpr>(C->operand()));
}

TEST(Parser, EmptyBlockAndTrailingSemicolon) {
  ASTContext Ctx;
  const Expr *Body = parseBody(Ctx, "{ }");
  EXPECT_TRUE(cast<BlockExpr>(Body)->stmts().empty());
  const Expr *Body2 = parseBody(Ctx, "{ 1; 2; }");
  EXPECT_EQ(cast<BlockExpr>(Body2)->stmts().size(), 2u);
}

TEST(Parser, NestedBlocks) {
  ASTContext Ctx;
  const Expr *S = lastStmt(Ctx, "{ { { 1 } } }");
  const auto *B1 = cast<BlockExpr>(S);
  const auto *B2 = cast<BlockExpr>(B1->stmts()[0]);
  EXPECT_TRUE(isa<IntLitExpr>(B2->stmts()[0]));
}

TEST(Parser, SyntaxErrorsReturnNullopt) {
  ASTContext Ctx;
  Diagnostics Diags;
  EXPECT_FALSE(parse("fun f( : int { }", Ctx, Diags).has_value());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Parser, RecoversAtNextDeclaration) {
  ASTContext Ctx;
  Diagnostics Diags;
  auto P = parse("fun broken( : int { }\nfun ok() : int { 0 }", Ctx, Diags);
  EXPECT_FALSE(P.has_value()); // errors reported...
  EXPECT_TRUE(Diags.hasErrors());
  // ...but more than one diagnostic pass happened (recovery found `fun ok`).
}

TEST(Parser, MissingInIsAnError) {
  ASTContext Ctx;
  Diagnostics Diags;
  EXPECT_FALSE(
      parse("fun f() : int { let x = 1 2 }", Ctx, Diags).has_value());
}

TEST(Parser, FunctionIndicesAreAssigned) {
  ASTContext Ctx;
  auto P = parseOk(Ctx, "fun a() : int { 0 }\nfun b() : int { 1 }");
  EXPECT_EQ(P->Funs[0].Index, 0u);
  EXPECT_EQ(P->Funs[1].Index, 1u);
  EXPECT_EQ(P->findFun(Ctx.intern("b"))->Index, 1u);
}

//===----------------------------------------------------------------------===//
// Printer round-trip: parse(print(parse(S))) produces the same text.
//===----------------------------------------------------------------------===//

class RoundTrip : public ::testing::TestWithParam<const char *> {};

TEST_P(RoundTrip, PrintParsePrintIsStable) {
  ASTContext Ctx1;
  Diagnostics Diags1;
  auto P1 = parse(GetParam(), Ctx1, Diags1);
  ASSERT_TRUE(P1.has_value()) << Diags1.render();
  std::string Printed1 = AstPrinter(Ctx1).print(*P1);

  ASTContext Ctx2;
  Diagnostics Diags2;
  auto P2 = parse(Printed1, Ctx2, Diags2);
  ASSERT_TRUE(P2.has_value()) << Diags2.render() << "\n" << Printed1;
  std::string Printed2 = AstPrinter(Ctx2).print(*P2);
  EXPECT_EQ(Printed1, Printed2);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, RoundTrip,
    ::testing::Values(
        "var g : lock; fun f() : int { spin_lock(g); spin_unlock(g) }",
        "struct D { lck : lock; n : int; } var d : D;\n"
        "fun f() : int { spin_lock(d->lck); spin_unlock(d->lck) }",
        "var a : array lock;\n"
        "fun f(i : int) : int { spin_lock(a[i]); spin_unlock(a[i]) }",
        "fun f() : int { let x = new 1 in restrict y = x in *y }",
        "fun f(p : ptr lock) : int { confine p in { spin_lock(p) } }",
        "fun f() : int { if nondet() then 1 else 2 }",
        "fun f() : int { while nondet() do work() }",
        "fun f(x : ptr int) : int { cast<ptr lock>(x); 0 }",
        "fun f() : int { 1 + 2 - 3 }",
        "fun f(restrict l : ptr lock, i : int) : int { *l }",
        // Statement-like forms in operand positions must keep their
        // parentheses (round-trip fuzz oracle regressions).
        "fun f() : int { ((if nondet() then 1 else 2) + 3) }",
        "fun f(x : ptr int) : int { ((x := 4) + nondet()) }",
        "fun f() : int { new (let t = 1 in t); 0 }"));

//===----------------------------------------------------------------------===//
// Front-end equivalence on generated modules: the node count and the
// printed text (length and digest) of two large corpus modules are
// pinned, so any lexer or parser change that alters the AST shows here.
//===----------------------------------------------------------------------===//

struct GeneratedCase {
  ModuleCategory Cat;
  uint32_t SizeHint;
  uint32_t AstNodes;
  size_t PrintedBytes;
  uint64_t PrintedDigest;
};

void PrintTo(const GeneratedCase &C, std::ostream *OS) {
  *OS << moduleCategoryName(C.Cat) << ' ' << C.SizeHint;
}

class ParserGeneratedModules
    : public ::testing::TestWithParam<GeneratedCase> {};

TEST_P(ParserGeneratedModules, RoundTripsWithExactNodeCount) {
  const GeneratedCase &C = GetParam();
  ModuleSpec M = generateModule(C.Cat, /*Seed=*/7, C.SizeHint);

  ASTContext Ctx1;
  Diagnostics Diags1;
  auto P1 = parse(M.Source, Ctx1, Diags1);
  ASSERT_TRUE(P1.has_value()) << Diags1.render();
  EXPECT_EQ(Ctx1.numExprs(), C.AstNodes);
  std::string Printed1 = AstPrinter(Ctx1).print(*P1);
  EXPECT_EQ(Printed1.size(), C.PrintedBytes);
  EXPECT_EQ(Fnv1a().update(Printed1).value(), C.PrintedDigest);

  ASTContext Ctx2;
  Diagnostics Diags2;
  auto P2 = parse(Printed1, Ctx2, Diags2);
  ASSERT_TRUE(P2.has_value()) << Diags2.render();
  EXPECT_EQ(Ctx2.numExprs(), C.AstNodes);
  EXPECT_EQ(AstPrinter(Ctx2).print(*P2), Printed1);
}

INSTANTIATE_TEST_SUITE_P(
    Generated, ParserGeneratedModules,
    ::testing::Values(
        GeneratedCase{ModuleCategory::Hard, 800, 12297, 168090,
                      11510274332652916481ULL},
        GeneratedCase{ModuleCategory::Recoverable, 1500, 11755, 136792,
                      6635924368278412229ULL}),
    [](const ::testing::TestParamInfo<GeneratedCase> &I) {
      return moduleCategoryName(I.param.Cat) +
             std::to_string(I.param.SizeHint);
    });

TEST(Parser, DeepExprNestingRejected) {
  ASTContext Ctx;
  Diagnostics Diags;
  std::string Src = "fun f() : int { " + std::string(300, '(') + "1" +
                    std::string(300, ')') + "; }";
  auto P = parse(Src, Ctx, Diags);
  EXPECT_FALSE(P.has_value());
  EXPECT_NE(Diags.render().find("nesting too deep"), std::string::npos);
}

TEST(Parser, DeepUnaryChainRejected) {
  ASTContext Ctx;
  Diagnostics Diags;
  std::string Src = "fun f() : int { " + std::string(300, '*') + "x; }";
  auto P = parse(Src, Ctx, Diags);
  EXPECT_FALSE(P.has_value());
  EXPECT_NE(Diags.render().find("nesting too deep"), std::string::npos);
}

TEST(Parser, DeepTypeNestingRejected) {
  ASTContext Ctx;
  Diagnostics Diags;
  std::string Src = "var g : ";
  for (int I = 0; I < 300; ++I)
    Src += "ptr ";
  Src += "int;";
  auto P = parse(Src, Ctx, Diags);
  EXPECT_FALSE(P.has_value());
  EXPECT_NE(Diags.render().find("nesting too deep"), std::string::npos);
}

TEST(Parser, ModerateNestingAccepted) {
  ASTContext Ctx;
  // Two NestDepth levels per paren (parseExpr + parseUnary); 100 stays
  // comfortably under MaxAstDepth.
  auto P = parseOk(Ctx, "fun f() : int { " + std::string(100, '(') + "1" +
                            std::string(100, ')') + "; }");
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Funs.size(), 1u);
}

} // namespace
