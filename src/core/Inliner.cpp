//===- Inliner.cpp - Bounded inlining (location polymorphism) -*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "core/Inliner.h"

#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

using namespace lna;

namespace {

/// Computes the functions that can reach themselves in the call graph;
/// those are never inlined.
std::set<Symbol> recursiveFunctions(const Program &P) {
  std::unordered_map<Symbol, std::set<Symbol>> Callees;
  for (const FunDef &F : P.Funs) {
    std::set<Symbol> &Out = Callees[F.Name];
    // Collect direct callees.
    std::vector<const Expr *> Stack = {F.Body};
    while (!Stack.empty()) {
      const Expr *E = Stack.back();
      Stack.pop_back();
      if (const auto *C = dyn_cast<CallExpr>(E))
        if (P.findFun(C->callee()))
          Out.insert(C->callee());
      forEachChild(E, [&Stack](const Expr *Child) { Stack.push_back(Child); });
    }
  }
  // Transitive closure by iteration (tiny graphs).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto &[Fun, Out] : Callees) {
      std::set<Symbol> Add;
      for (Symbol Callee : Out) {
        auto It = Callees.find(Callee);
        if (It == Callees.end())
          continue;
        for (Symbol Next : It->second)
          if (!Out.count(Next))
            Add.insert(Next);
      }
      if (!Add.empty()) {
        Out.insert(Add.begin(), Add.end());
        Changed = true;
      }
    }
  }
  std::set<Symbol> Recursive;
  for (const auto &[Fun, Out] : Callees)
    if (Out.count(Fun))
      Recursive.insert(Fun);
  return Recursive;
}

class Inliner {
public:
  Inliner(ASTContext &Ctx, const Program &P)
      : Ctx(Ctx), Prog(P), Recursive(recursiveFunctions(P)) {}

  Program run(unsigned Depth) {
    Program Out = Prog;
    for (FunDef &F : Out.Funs)
      F.Body = rewrite(F.Body, Depth);
    return Out;
  }

private:
  /// Clones \p E substituting renamed parameters. \p Rename maps original
  /// parameter names to their fresh let-bound names; entries are
  /// suspended under shadowing binders.
  const Expr *cloneSubst(const Expr *E,
                         std::unordered_map<Symbol, Symbol> &Rename) {
    SourceLoc Loc = E->loc();
    switch (E->kind()) {
    case Expr::Kind::IntLit:
      return Ctx.intLit(Loc, cast<IntLitExpr>(E)->value());
    case Expr::Kind::VarRef: {
      Symbol Name = cast<VarRefExpr>(E)->name();
      auto It = Rename.find(Name);
      return Ctx.varRef(Loc, It == Rename.end() ? Name : It->second);
    }
    case Expr::Kind::BinOp: {
      const auto *B = cast<BinOpExpr>(E);
      const Expr *L = cloneSubst(B->lhs(), Rename);
      const Expr *R = cloneSubst(B->rhs(), Rename);
      return Ctx.binOp(Loc, B->op(), L, R);
    }
    case Expr::Kind::New:
      return Ctx.newCell(Loc, cloneSubst(cast<NewExpr>(E)->init(), Rename));
    case Expr::Kind::NewArray:
      return Ctx.newArray(Loc,
                          cloneSubst(cast<NewArrayExpr>(E)->init(), Rename));
    case Expr::Kind::Deref:
      return Ctx.deref(Loc,
                       cloneSubst(cast<DerefExpr>(E)->pointer(), Rename));
    case Expr::Kind::Assign: {
      const auto *A = cast<AssignExpr>(E);
      const Expr *T = cloneSubst(A->target(), Rename);
      const Expr *V = cloneSubst(A->value(), Rename);
      return Ctx.assign(Loc, T, V);
    }
    case Expr::Kind::Index: {
      const auto *I = cast<IndexExpr>(E);
      const Expr *A = cloneSubst(I->array(), Rename);
      const Expr *X = cloneSubst(I->index(), Rename);
      return Ctx.index(Loc, A, X);
    }
    case Expr::Kind::FieldAddr: {
      const auto *F = cast<FieldAddrExpr>(E);
      return Ctx.fieldAddr(Loc, cloneSubst(F->base(), Rename), F->field());
    }
    case Expr::Kind::Call: {
      const auto *C = cast<CallExpr>(E);
      std::vector<const Expr *> Args;
      for (const Expr *A : C->args())
        Args.push_back(cloneSubst(A, Rename));
      return Ctx.call(Loc, C->callee(), Args);
    }
    case Expr::Kind::Block: {
      const auto *B = cast<BlockExpr>(E);
      std::vector<const Expr *> Stmts;
      for (const Expr *S : B->stmts())
        Stmts.push_back(cloneSubst(S, Rename));
      return Ctx.block(Loc, Stmts);
    }
    case Expr::Kind::Bind: {
      const auto *B = cast<BindExpr>(E);
      const Expr *Init = cloneSubst(B->init(), Rename);
      // The binder shadows any renamed parameter of the same name.
      auto It = Rename.find(B->name());
      std::optional<Symbol> Suspended;
      if (It != Rename.end()) {
        Suspended = It->second;
        Rename.erase(It);
      }
      const Expr *Body = cloneSubst(B->body(), Rename);
      if (Suspended)
        Rename.emplace(B->name(), *Suspended);
      return Ctx.bind(Loc, B->bindKind(), B->name(), Init, Body);
    }
    case Expr::Kind::Confine: {
      const auto *C = cast<ConfineExpr>(E);
      const Expr *S = cloneSubst(C->subject(), Rename);
      const Expr *Body = cloneSubst(C->body(), Rename);
      return Ctx.confine(Loc, S, Body);
    }
    case Expr::Kind::If: {
      const auto *I = cast<IfExpr>(E);
      const Expr *C = cloneSubst(I->cond(), Rename);
      const Expr *T = cloneSubst(I->thenExpr(), Rename);
      const Expr *El = cloneSubst(I->elseExpr(), Rename);
      return Ctx.ifExpr(Loc, C, T, El);
    }
    case Expr::Kind::While: {
      const auto *W = cast<WhileExpr>(E);
      const Expr *C = cloneSubst(W->cond(), Rename);
      const Expr *B = cloneSubst(W->body(), Rename);
      return Ctx.whileExpr(Loc, C, B);
    }
    case Expr::Kind::Cast: {
      const auto *C = cast<CastExpr>(E);
      return Ctx.castExpr(Loc, C->targetType(),
                          cloneSubst(C->operand(), Rename));
    }
    }
    return E;
  }

  const Expr *rewrite(const Expr *E, unsigned Depth) {
    if (const auto *C = dyn_cast<CallExpr>(E)) {
      const FunDef *Callee = Prog.findFun(C->callee());
      if (Depth > 0 && Callee && !Recursive.count(C->callee()) &&
          C->args().size() == Callee->Params.size()) {
        // Arguments are rewritten in the caller's context first.
        std::vector<const Expr *> Args;
        for (const Expr *A : C->args())
          Args.push_back(rewrite(A, Depth));
        // Fresh parameter names prevent capture of caller variables.
        std::unordered_map<Symbol, Symbol> Rename;
        std::vector<Symbol> FreshNames;
        for (const auto &[Name, TE] : Callee->Params) {
          Symbol Fresh = Ctx.intern(Ctx.text(C->callee()) + "#" +
                                    Ctx.text(Name) + "#" +
                                    std::to_string(NextId++));
          Rename.emplace(Name, Fresh);
          FreshNames.push_back(Fresh);
        }
        const Expr *Body = cloneSubst(Callee->Body, Rename);
        Body = rewrite(Body, Depth - 1); // nested calls, one level deeper
        // Wrap in (restrict-)lets, innermost = last parameter.
        const Expr *Result = Body;
        for (size_t I = Callee->Params.size(); I-- > 0;) {
          BindExpr::BindKind BK = Callee->ParamRestrict[I]
                                      ? BindExpr::BindKind::Restrict
                                      : BindExpr::BindKind::Let;
          Result = Ctx.bind(C->loc(), BK, FreshNames[I], Args[I], Result);
        }
        return Result;
      }
    }

    // Structural rewrite (reuse unchanged subtrees).
    bool Changed = false;
    std::vector<const Expr *> Children;
    forEachChild(E, [&](const Expr *Child) {
      const Expr *RC = rewrite(Child, Depth);
      Changed |= RC != Child;
      Children.push_back(RC);
    });
    if (!Changed)
      return E;
    // Rebuild the node shell around the rewritten children, by position.
    size_t Idx = 0;
    auto Next = [&]() { return Children[Idx++]; };
    SourceLoc Loc = E->loc();
    switch (E->kind()) {
    case Expr::Kind::IntLit:
    case Expr::Kind::VarRef:
      return E;
    case Expr::Kind::BinOp: {
      const Expr *L = Next(), *R = Next();
      return Ctx.binOp(Loc, cast<BinOpExpr>(E)->op(), L, R);
    }
    case Expr::Kind::New:
      return Ctx.newCell(Loc, Next());
    case Expr::Kind::NewArray:
      return Ctx.newArray(Loc, Next());
    case Expr::Kind::Deref:
      return Ctx.deref(Loc, Next());
    case Expr::Kind::Assign: {
      const Expr *T = Next(), *V = Next();
      return Ctx.assign(Loc, T, V);
    }
    case Expr::Kind::Index: {
      const Expr *A = Next(), *X = Next();
      return Ctx.index(Loc, A, X);
    }
    case Expr::Kind::FieldAddr:
      return Ctx.fieldAddr(Loc, Next(), cast<FieldAddrExpr>(E)->field());
    case Expr::Kind::Call:
      return Ctx.call(Loc, cast<CallExpr>(E)->callee(), Children);
    case Expr::Kind::Block:
      return Ctx.block(Loc, Children);
    case Expr::Kind::Bind: {
      const Expr *Init = Next(), *Body = Next();
      const auto *B = cast<BindExpr>(E);
      return Ctx.bind(Loc, B->bindKind(), B->name(), Init, Body);
    }
    case Expr::Kind::Confine: {
      const Expr *S = Next(), *Body = Next();
      return Ctx.confine(Loc, S, Body);
    }
    case Expr::Kind::If: {
      const Expr *C = Next(), *T = Next(), *El = Next();
      return Ctx.ifExpr(Loc, C, T, El);
    }
    case Expr::Kind::While: {
      const Expr *C = Next(), *B = Next();
      return Ctx.whileExpr(Loc, C, B);
    }
    case Expr::Kind::Cast:
      return Ctx.castExpr(Loc, cast<CastExpr>(E)->targetType(), Next());
    }
    return E;
  }

  ASTContext &Ctx;
  const Program &Prog;
  std::set<Symbol> Recursive;
  uint32_t NextId = 0;
};

} // namespace

Program lna::inlineCalls(ASTContext &Ctx, const Program &P, unsigned Depth) {
  if (Depth == 0)
    return P;
  return Inliner(Ctx, P).run(Depth);
}
