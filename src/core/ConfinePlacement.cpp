//===- ConfinePlacement.cpp - confine? candidate insertion ----*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "core/ConfinePlacement.h"

#include "lang/Builtins.h"
#include "lang/ExprUtils.h"

#include <algorithm>
#include <cassert>

using namespace lna;

const Expr *lna::cloneExpr(ASTContext &Ctx, const Expr *E) {
  SourceLoc Loc = E->loc();
  switch (E->kind()) {
  case Expr::Kind::IntLit:
    return Ctx.intLit(Loc, cast<IntLitExpr>(E)->value());
  case Expr::Kind::VarRef:
    return Ctx.varRef(Loc, cast<VarRefExpr>(E)->name());
  case Expr::Kind::BinOp: {
    const auto *B = cast<BinOpExpr>(E);
    return Ctx.binOp(Loc, B->op(), cloneExpr(Ctx, B->lhs()),
                     cloneExpr(Ctx, B->rhs()));
  }
  case Expr::Kind::New:
    return Ctx.newCell(Loc, cloneExpr(Ctx, cast<NewExpr>(E)->init()));
  case Expr::Kind::NewArray:
    return Ctx.newArray(Loc, cloneExpr(Ctx, cast<NewArrayExpr>(E)->init()));
  case Expr::Kind::Deref:
    return Ctx.deref(Loc, cloneExpr(Ctx, cast<DerefExpr>(E)->pointer()));
  case Expr::Kind::Assign: {
    const auto *A = cast<AssignExpr>(E);
    return Ctx.assign(Loc, cloneExpr(Ctx, A->target()),
                      cloneExpr(Ctx, A->value()));
  }
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    return Ctx.index(Loc, cloneExpr(Ctx, I->array()),
                     cloneExpr(Ctx, I->index()));
  }
  case Expr::Kind::FieldAddr: {
    const auto *F = cast<FieldAddrExpr>(E);
    return Ctx.fieldAddr(Loc, cloneExpr(Ctx, F->base()), F->field());
  }
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E);
    std::vector<const Expr *> Args;
    for (const Expr *A : C->args())
      Args.push_back(cloneExpr(Ctx, A));
    return Ctx.call(Loc, C->callee(), Args);
  }
  case Expr::Kind::Block: {
    const auto *B = cast<BlockExpr>(E);
    std::vector<const Expr *> Stmts;
    for (const Expr *S : B->stmts())
      Stmts.push_back(cloneExpr(Ctx, S));
    return Ctx.block(Loc, Stmts);
  }
  case Expr::Kind::Bind: {
    const auto *B = cast<BindExpr>(E);
    return Ctx.bind(Loc, B->bindKind(), B->name(),
                    cloneExpr(Ctx, B->init()), cloneExpr(Ctx, B->body()));
  }
  case Expr::Kind::Confine: {
    const auto *C = cast<ConfineExpr>(E);
    return Ctx.confine(Loc, cloneExpr(Ctx, C->subject()),
                       cloneExpr(Ctx, C->body()));
  }
  case Expr::Kind::If: {
    const auto *I = cast<IfExpr>(E);
    return Ctx.ifExpr(Loc, cloneExpr(Ctx, I->cond()),
                      cloneExpr(Ctx, I->thenExpr()),
                      cloneExpr(Ctx, I->elseExpr()));
  }
  case Expr::Kind::While: {
    const auto *W = cast<WhileExpr>(E);
    return Ctx.whileExpr(Loc, cloneExpr(Ctx, W->cond()),
                         cloneExpr(Ctx, W->body()));
  }
  case Expr::Kind::Cast: {
    const auto *C = cast<CastExpr>(E);
    return Ctx.castExpr(Loc, C->targetType(),
                        cloneExpr(Ctx, C->operand()));
  }
  }
  return E;
}

namespace {

/// The placement rewriter.
class Placer {
public:
  Placer(ASTContext &Ctx) : Ctx(Ctx) {
    SymSpinLock = Ctx.intern("spin_lock");
    SymSpinUnlock = Ctx.intern("spin_unlock");
  }

  PlacementResult run(const Program &P) {
    Result.Rewritten = P;
    for (FunDef &F : Result.Rewritten.Funs)
      F.Body = rewrite(F.Body);
    return std::move(Result);
  }

private:
  /// Collects (deduplicated) confinable lock-primitive arguments inside
  /// \p E whose free variables are not bound within \p E itself.
  void collectSubjects(const Expr *E, std::set<Symbol> &Bound,
                       std::vector<const Expr *> &Out) const {
    if (const auto *C = dyn_cast<CallExpr>(E)) {
      if (builtinKind(Ctx.text(C->callee())) == BuiltinKind::ChangeType &&
          C->args().size() == 1 && isConfinableSubject(C->args()[0])) {
        const Expr *Subject = C->args()[0];
        std::set<Symbol> Free;
        collectFreeVars(Subject, Free);
        bool Capturable = std::any_of(Free.begin(), Free.end(),
                                      [&Bound](Symbol S) {
                                        return Bound.count(S) != 0;
                                      });
        if (!Capturable) {
          bool Dup = false;
          for (const Expr *S : Out)
            Dup = Dup || exprStructurallyEqual(S, Subject);
          if (!Dup)
            Out.push_back(Subject);
        }
      }
    }
    if (const auto *B = dyn_cast<BindExpr>(E)) {
      collectSubjects(B->init(), Bound, Out);
      bool Inserted = Bound.insert(B->name()).second;
      collectSubjects(B->body(), Bound, Out);
      if (Inserted)
        Bound.erase(B->name());
      return;
    }
    forEachChild(E, [&](const Expr *Child) {
      collectSubjects(Child, Bound, Out);
    });
  }

  /// True if \p E contains a lock-primitive call (or an inserted confine?)
  /// whose subject matches \p Subject, without crossing a binder of one of
  /// \p Subject's free variables.
  bool containsMatch(const Expr *E, const Expr *Subject,
                     const std::set<Symbol> &SubjectFree) const {
    if (const auto *C = dyn_cast<CallExpr>(E)) {
      if (builtinKind(Ctx.text(C->callee())) == BuiltinKind::ChangeType &&
          C->args().size() == 1 &&
          exprStructurallyEqual(C->args()[0], Subject))
        return true;
    }
    if (const auto *B = dyn_cast<BindExpr>(E)) {
      if (containsMatch(B->init(), Subject, SubjectFree))
        return true;
      if (SubjectFree.count(B->name()))
        return false; // shadowed below here
      return containsMatch(B->body(), Subject, SubjectFree);
    }
    bool Found = false;
    forEachChild(E, [&](const Expr *Child) {
      Found = Found || containsMatch(Child, Subject, SubjectFree);
    });
    return Found;
  }

  struct Range {
    uint32_t Begin;
    uint32_t End;
    const Expr *Subject;
  };

  const Expr *rewrite(const Expr *E) {
    switch (E->kind()) {
    case Expr::Kind::IntLit:
    case Expr::Kind::VarRef:
      return E;
    case Expr::Kind::BinOp: {
      const auto *B = cast<BinOpExpr>(E);
      const Expr *L = rewrite(B->lhs());
      const Expr *R = rewrite(B->rhs());
      return L == B->lhs() && R == B->rhs()
                 ? E
                 : Ctx.binOp(E->loc(), B->op(), L, R);
    }
    case Expr::Kind::New: {
      const auto *N = cast<NewExpr>(E);
      const Expr *I = rewrite(N->init());
      return I == N->init() ? E : Ctx.newCell(E->loc(), I);
    }
    case Expr::Kind::NewArray: {
      const auto *N = cast<NewArrayExpr>(E);
      const Expr *I = rewrite(N->init());
      return I == N->init() ? E : Ctx.newArray(E->loc(), I);
    }
    case Expr::Kind::Deref: {
      const auto *D = cast<DerefExpr>(E);
      const Expr *P = rewrite(D->pointer());
      return P == D->pointer() ? E : Ctx.deref(E->loc(), P);
    }
    case Expr::Kind::Assign: {
      const auto *A = cast<AssignExpr>(E);
      const Expr *T = rewrite(A->target());
      const Expr *V = rewrite(A->value());
      return T == A->target() && V == A->value()
                 ? E
                 : Ctx.assign(E->loc(), T, V);
    }
    case Expr::Kind::Index: {
      const auto *I = cast<IndexExpr>(E);
      const Expr *A = rewrite(I->array());
      const Expr *X = rewrite(I->index());
      return A == I->array() && X == I->index() ? E
                                                : Ctx.index(E->loc(), A, X);
    }
    case Expr::Kind::FieldAddr: {
      const auto *F = cast<FieldAddrExpr>(E);
      const Expr *B = rewrite(F->base());
      return B == F->base() ? E : Ctx.fieldAddr(E->loc(), B, F->field());
    }
    case Expr::Kind::Call: {
      const auto *C = cast<CallExpr>(E);
      bool Changed = false;
      std::vector<const Expr *> Args;
      for (const Expr *A : C->args()) {
        const Expr *RA = rewrite(A);
        Changed |= RA != A;
        Args.push_back(RA);
      }
      return Changed ? Ctx.call(E->loc(), C->callee(), Args) : E;
    }
    case Expr::Kind::Block:
      return rewriteBlock(cast<BlockExpr>(E));
    case Expr::Kind::Bind: {
      const auto *B = cast<BindExpr>(E);
      const Expr *I = rewrite(B->init());
      const Expr *Body = rewrite(B->body());
      return I == B->init() && Body == B->body()
                 ? E
                 : Ctx.bind(E->loc(), B->bindKind(), B->name(), I, Body);
    }
    case Expr::Kind::Confine: {
      const auto *C = cast<ConfineExpr>(E);
      const Expr *Body = rewrite(C->body());
      return Body == C->body() ? E
                               : Ctx.confine(E->loc(), C->subject(), Body);
    }
    case Expr::Kind::If: {
      const auto *I = cast<IfExpr>(E);
      const Expr *C = rewrite(I->cond());
      const Expr *T = rewrite(I->thenExpr());
      const Expr *El = rewrite(I->elseExpr());
      return C == I->cond() && T == I->thenExpr() && El == I->elseExpr()
                 ? E
                 : Ctx.ifExpr(E->loc(), C, T, El);
    }
    case Expr::Kind::While: {
      const auto *W = cast<WhileExpr>(E);
      const Expr *C = rewrite(W->cond());
      const Expr *B = rewrite(W->body());
      return C == W->cond() && B == W->body() ? E
                                              : Ctx.whileExpr(E->loc(), C, B);
    }
    case Expr::Kind::Cast: {
      const auto *C = cast<CastExpr>(E);
      const Expr *Op = rewrite(C->operand());
      return Op == C->operand()
                 ? E
                 : Ctx.castExpr(E->loc(), C->targetType(), Op);
    }
    }
    return E;
  }

  const Expr *rewriteBlock(const BlockExpr *B) {
    std::vector<const Expr *> Stmts;
    bool Changed = false;
    for (const Expr *S : B->stmts()) {
      const Expr *RS = rewrite(S);
      Changed |= RS != S;
      Stmts.push_back(RS);
    }

    // Candidate subjects at this block level.
    std::vector<const Expr *> Subjects;
    {
      std::set<Symbol> Bound;
      for (const Expr *S : Stmts)
        collectSubjects(S, Bound, Subjects);
    }

    // One covering range per subject: the smallest sub-block containing
    // every statement that uses the subject in a lock primitive. (Greedy
    // combination of adjacent confines of the same expression, Section 7.)
    std::vector<Range> Ranges;
    for (const Expr *Subject : Subjects) {
      std::set<Symbol> Free;
      collectFreeVars(Subject, Free);
      uint32_t First = ~0u, Last = 0;
      for (uint32_t I = 0; I < Stmts.size(); ++I) {
        if (!containsMatch(Stmts[I], Subject, Free))
          continue;
        First = std::min(First, I);
        Last = I;
      }
      if (First == ~0u)
        continue;
      // Skip a no-op chain link: a single statement that is already a
      // confine? of this very subject.
      if (First == Last) {
        if (const auto *C = dyn_cast<ConfineExpr>(Stmts[First]))
          if (exprStructurallyEqual(C->subject(), Subject))
            continue;
      }
      Ranges.push_back({First, Last + 1, Subject});
    }

    if (Ranges.empty())
      return Changed ? Ctx.block(B->loc(), Stmts) : B;

    // Resolve partial overlaps between different subjects' ranges by
    // widening to the union, so the final set is properly nested.
    bool Widened = true;
    while (Widened) {
      Widened = false;
      for (size_t I = 0; I < Ranges.size(); ++I) {
        for (size_t J = I + 1; J < Ranges.size(); ++J) {
          Range &A = Ranges[I];
          Range &C = Ranges[J];
          bool Overlap = A.Begin < C.End && C.Begin < A.End;
          bool Nested = (A.Begin <= C.Begin && C.End <= A.End) ||
                        (C.Begin <= A.Begin && A.End <= C.End);
          if (Overlap && !Nested) {
            uint32_t Begin = std::min(A.Begin, C.Begin);
            uint32_t End = std::max(A.End, C.End);
            A.Begin = C.Begin = Begin;
            A.End = C.End = End;
            Widened = true;
          }
        }
      }
    }

    std::sort(Ranges.begin(), Ranges.end(), [](const Range &A, const Range &B) {
      if (A.Begin != B.Begin)
        return A.Begin < B.Begin;
      return A.End > B.End;
    });

    std::vector<const Expr *> Out =
        emit(Stmts, Ranges, 0, static_cast<uint32_t>(Stmts.size()), 0,
             static_cast<uint32_t>(Ranges.size()));
    return Ctx.block(B->loc(), Out);
  }

  /// Emits statements [Lo, Hi), wrapping ranges [RLo, RHi) (sorted, nested
  /// or disjoint) as confine? sub-blocks.
  std::vector<const Expr *> emit(const std::vector<const Expr *> &Stmts,
                                 const std::vector<Range> &Ranges,
                                 uint32_t Lo, uint32_t Hi, uint32_t RLo,
                                 uint32_t RHi) {
    std::vector<const Expr *> Out;
    uint32_t I = Lo;
    uint32_t R = RLo;
    while (I < Hi) {
      if (R < RHi && Ranges[R].Begin == I) {
        const Range &Outer = Ranges[R];
        // Inner ranges are exactly the following sorted entries contained
        // in [Outer.Begin, Outer.End).
        uint32_t InnerLo = R + 1;
        uint32_t InnerHi = InnerLo;
        while (InnerHi < RHi && Ranges[InnerHi].Begin >= Outer.Begin &&
               Ranges[InnerHi].End <= Outer.End)
          ++InnerHi;
        std::vector<const Expr *> InnerStmts =
            emit(Stmts, Ranges, Outer.Begin, Outer.End, InnerLo, InnerHi);
        const Expr *Body =
            Ctx.block(Stmts[Outer.Begin]->loc(), InnerStmts);
        const Expr *Subject = cloneExpr(Ctx, Outer.Subject);
        const Expr *Conf =
            Ctx.confine(Stmts[Outer.Begin]->loc(), Subject, Body);
        Result.OptionalConfines.insert(Conf->id());
        Out.push_back(Conf);
        I = Outer.End;
        R = InnerHi;
        continue;
      }
      Out.push_back(Stmts[I]);
      ++I;
    }
    return Out;
  }

  ASTContext &Ctx;
  PlacementResult Result;
  Symbol SymSpinLock, SymSpinUnlock;
};

} // namespace

PlacementResult lna::placeConfines(ASTContext &Ctx, const Program &P) {
  return Placer(Ctx).run(P);
}
