//===- EffectInference.cpp - Figure 3 constraint generation ---*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "core/EffectInference.h"

#include "lang/Builtins.h"

#include <cassert>

using namespace lna;

EffectInference::EffectInference(ASTContext &Ctx, const Program &P,
                                 const AliasResult &Alias, TypeTable &Types,
                                 ConstraintSystem &CS,
                                 const EffectInferenceOptions &Opts)
    : Ctx(Ctx), Prog(P), Alias(Alias), Types(Types), CS(CS), Opts(Opts) {
  SymSpinLock = Ctx.intern("spin_lock");
  SymSpinUnlock = Ctx.intern("spin_unlock");
  SymWork = Ctx.intern("work");
  SymNondet = Ctx.intern("nondet");
}

EffVar EffectInference::typeEffVar(TypeId T) {
  TypeId Rep = Types.find(T);
  if (Rep >= TypeEffMemo.size())
    TypeEffMemo.resize(Types.size(), InvalidEffVar);
  if (TypeEffMemo[Rep] != InvalidEffVar)
    return TypeEffMemo[Rep];
  EffVar V = CS.makeVar();
  // Memoize before descending so recursive types terminate.
  TypeEffMemo[Rep] = V;
  const TypeNode &N = Types.node(Rep);
  switch (N.Kind) {
  case TypeKind::Int:
  case TypeKind::Lock:
    break;
  case TypeKind::Ptr:
  case TypeKind::Array: {
    // e_t u {rho} <= e_ref rho(t): any-kind elements, since locs(t) sets
    // are consulted for accesses of every kind.
    CS.setOrigin({}, "location in pointer type");
    CS.addElementAllKinds(N.Loc, V);
    EffVar Elem = typeEffVar(N.Elem);
    CS.setOrigin({}, "pointee of pointer type");
    CS.addEdge(Elem, V);
    break;
  }
  case TypeKind::Struct:
    for (const FieldCell &F : N.Fields) {
      CS.setOrigin({}, "field location in struct type");
      CS.addElementAllKinds(F.Loc, V);
      EffVar Content = typeEffVar(F.Content);
      CS.setOrigin({}, "field of struct type");
      CS.addEdge(Content, V);
    }
    break;
  }
  return V;
}

EffectInfResult EffectInference::run() {
  Result = EffectInfResult();
  Result.NodeEff.assign(Ctx.numExprs(), InvalidEffVar);
  Result.FunLatent.assign(Prog.Funs.size(), InvalidEffVar);
  Result.FunBodyEff.assign(Prog.Funs.size(), InvalidEffVar);
  ConfinePVar.assign(Alias.Confines.size(), InvalidEffVar);

  // e_Gamma of the global scope: the locations of every global binding.
  Result.GlobalsEnv = CS.makeVar();
  for (const auto &[Name, T] : Alias.Globals) {
    EffVar TV = typeEffVar(T);
    CS.setOrigin({}, "global variable in scope");
    CS.addEdge(TV, Result.GlobalsEnv);
  }

  // Latent effect variables first, so calls to later (or recursive)
  // functions can reference them.
  for (const FunDef &F : Prog.Funs)
    Result.FunLatent[F.Index] = CS.makeVar();

  for (const FunDef &F : Prog.Funs) {
    auto SigIt = Alias.Funs.find(F.Name);
    if (SigIt == Alias.Funs.end() || SigIt->second.Def != &F)
      continue;
    const FunSig &Sig = SigIt->second;

    // eps_Gamma_f = globals u params (as bound in the body), kept as a
    // list of shared variables; the union is never materialized.
    std::vector<EffVar> EnvList = {Result.GlobalsEnv};
    for (TypeId PT : Sig.BodyParams)
      EnvList.push_back(typeEffVar(PT));

    EffVar BodyEff = walk(F.Body, EnvList);

    // Restrict-qualified parameters contribute the restrict effect {rho}
    // to the function's pre-(Down) effect, and record their check vars.
    EffVar BodyPlus = BodyEff;
    for (uint32_t PRIdx = 0; PRIdx < Alias.ParamRestricts.size(); ++PRIdx) {
      const ParamRestrictInfo &PR = Alias.ParamRestricts[PRIdx];
      if (PR.FunIndex != F.Index)
        continue;
      if (BodyPlus == BodyEff) {
        BodyPlus = CS.makeVar();
        CS.setOrigin(F.Body->loc(), "effect of function body");
        CS.addEdge(BodyEff, BodyPlus);
      }
      CS.setOrigin(F.Body->loc(),
                   "restrict effect of restrict-qualified parameter");
      CS.addElement(EffectKind::Read, PR.Rho, BodyPlus);
      CS.addElement(EffectKind::Write, PR.Rho, BodyPlus);

      // Escape set: everything a caller can see -- globals, the
      // caller-side parameter types, the return type -- plus the pointee
      // type t1.
      std::vector<EffVar> Escape = {Result.GlobalsEnv};
      for (TypeId PT : Sig.Params)
        Escape.push_back(typeEffVar(PT));
      Escape.push_back(typeEffVar(Sig.Ret));
      Escape.push_back(typeEffVar(PR.PointeeType));

      ParamConstraintVars PCV;
      PCV.ParamRestrictIdx = PRIdx;
      PCV.BodyEff = BodyEff;
      PCV.EscapeVars = std::move(Escape);
      Result.ParamRestricts.push_back(PCV);
    }
    Result.FunBodyEff[F.Index] = BodyPlus;

    // (Down), merged into the function rule: the function's latent effect
    // keeps only locations visible to callers.
    if (Opts.ApplyDown) {
      // The visible-locations operand is the virtual union of the shared
      // environment/type sets.
      std::vector<EffVar> Visible = {Result.GlobalsEnv};
      for (TypeId PT : Sig.Params)
        Visible.push_back(typeEffVar(PT));
      Visible.push_back(typeEffVar(Sig.Ret));
      CS.setOrigin(F.Body->loc(),
                   "(Down): function effect restricted to caller-visible "
                   "locations");
      CS.addIntersection(InterOperand::var(BodyPlus),
                         InterOperand::varUnion(std::move(Visible)),
                         Result.FunLatent[F.Index]);
    } else {
      CS.setOrigin(F.Body->loc(), "effect of function body");
      CS.addEdge(BodyPlus, Result.FunLatent[F.Index]);
    }
  }
  return std::move(Result);
}

EffVar EffectInference::walk(const Expr *E,
                             const std::vector<EffVar> &EnvList) {
  // Occurrences of a confined expression are the effectful variable
  // x_{p'} of Section 6.1: their effect is the confine's p' variable.
  if (uint32_t CI = Alias.OccurrenceOf[E->id()]; CI != ~0u) {
    EffVar V = CS.makeVar();
    if (ConfinePVar[CI] != InvalidEffVar)
      edge(ConfinePVar[CI], V, E, "occurrence of confined expression");
    return Result.NodeEff[E->id()] = V;
  }

  EffVar V = CS.makeVar();
  Result.NodeEff[E->id()] = V;

  switch (E->kind()) {
  case Expr::Kind::IntLit:
  case Expr::Kind::VarRef:
    break; // (Int), (Var): no effect.
  case Expr::Kind::BinOp:
    edge(walk(cast<BinOpExpr>(E)->lhs(), EnvList), V, E, "effect of operand");
    edge(walk(cast<BinOpExpr>(E)->rhs(), EnvList), V, E, "effect of operand");
    break;
  case Expr::Kind::New:
  case Expr::Kind::NewArray: {
    const Expr *Init = E->kind() == Expr::Kind::New
                           ? cast<NewExpr>(E)->init()
                           : cast<NewArrayExpr>(E)->init();
    edge(walk(Init, EnvList), V, E, "effect of allocation initializer");
    // (Ref): effect on the allocated location.
    CS.setOrigin(E->loc(), "allocation of the new cell");
    CS.addElement(EffectKind::Alloc, Types.pointeeLoc(Alias.ExprType[E->id()]),
                  V);
    break;
  }
  case Expr::Kind::Deref: {
    const Expr *P = cast<DerefExpr>(E)->pointer();
    edge(walk(P, EnvList), V, E, "effect of pointer operand");
    // (Deref): read of the pointed-to location.
    CS.setOrigin(E->loc(), "read through pointer dereference");
    CS.addElement(EffectKind::Read, Types.pointeeLoc(Alias.ExprType[P->id()]),
                  V);
    break;
  }
  case Expr::Kind::Assign: {
    const auto *A = cast<AssignExpr>(E);
    edge(walk(A->target(), EnvList), V, E, "effect of assignment target");
    edge(walk(A->value(), EnvList), V, E, "effect of assigned value");
    // (Assign): write to the updated location.
    TypeId TargetT = Alias.ExprType[A->target()->id()];
    if (Types.isPointerLike(TargetT)) {
      CS.setOrigin(E->loc(), "write through assignment");
      CS.addElement(EffectKind::Write, Types.pointeeLoc(TargetT), V);
    }
    break;
  }
  case Expr::Kind::Index:
    // Address arithmetic only: no memory access.
    edge(walk(cast<IndexExpr>(E)->array(), EnvList), V, E,
         "effect of indexed array");
    edge(walk(cast<IndexExpr>(E)->index(), EnvList), V, E, "effect of index");
    break;
  case Expr::Kind::FieldAddr:
    edge(walk(cast<FieldAddrExpr>(E)->base(), EnvList), V, E,
         "effect of field base");
    break;
  case Expr::Kind::Call: {
    EffVar CV = walkCall(cast<CallExpr>(E), EnvList);
    edge(CV, V, E, "effect of call");
    break;
  }
  case Expr::Kind::Block:
    for (const Expr *S : cast<BlockExpr>(E)->stmts())
      edge(walk(S, EnvList), V, S, "effect of statement in block");
    break;
  case Expr::Kind::Bind:
    edge(walkBind(cast<BindExpr>(E), EnvList), V, E, "effect of binding");
    break;
  case Expr::Kind::Confine:
    edge(walkConfine(cast<ConfineExpr>(E), EnvList), V, E,
         "effect of confine expression");
    break;
  case Expr::Kind::If: {
    const auto *I = cast<IfExpr>(E);
    edge(walk(I->cond(), EnvList), V, E, "effect of condition");
    edge(walk(I->thenExpr(), EnvList), V, E, "effect of then-branch");
    edge(walk(I->elseExpr(), EnvList), V, E, "effect of else-branch");
    break;
  }
  case Expr::Kind::While: {
    const auto *W = cast<WhileExpr>(E);
    edge(walk(W->cond(), EnvList), V, E, "effect of loop condition");
    edge(walk(W->body(), EnvList), V, E, "effect of loop body");
    break;
  }
  case Expr::Kind::Cast:
    edge(walk(cast<CastExpr>(E)->operand(), EnvList), V, E,
         "effect of cast operand");
    break;
  }
  return V;
}

EffVar EffectInference::walkCall(const CallExpr *E,
                                 const std::vector<EffVar> &EnvList) {
  EffVar V = CS.makeVar();
  for (const Expr *A : E->args())
    edge(walk(A, EnvList), V, A, "effect of call argument");

  Symbol Callee = E->callee();
  BuiltinKind BK = builtinKind(Ctx.text(Callee));
  if (BK == BuiltinKind::ChangeType) {
    // change_type primitives read and write the state of the lock their
    // argument points to.
    if (E->args().size() == 1) {
      TypeId ArgT = Alias.ExprType[E->args()[0]->id()];
      if (ArgT != InvalidTypeId && Types.isPointerLike(ArgT)) {
        LocId Rho = Types.pointeeLoc(ArgT);
        CS.setOrigin(E->loc(), "lock-state access by change_type primitive");
        CS.addElement(EffectKind::Read, Rho, V);
        CS.addElement(EffectKind::Write, Rho, V);
      }
    }
    return V;
  }
  if (BK == BuiltinKind::Work || BK == BuiltinKind::Nondet)
    return V; // opaque helpers: no effect on tracked locations.

  auto It = Alias.Funs.find(Callee);
  if (It != Alias.Funs.end())
    edge(Result.FunLatent[It->second.Index], V, E,
         "latent effect of called function");
  return V;
}

EffVar EffectInference::walkBind(const BindExpr *E,
                                 const std::vector<EffVar> &EnvList) {
  EffVar V = CS.makeVar();
  edge(walk(E->init(), EnvList), V, E, "effect of binding initializer");

  const BindInfo *BI = Alias.bindInfo(E->id());
  assert(BI && "bind without alias info");

  // eps_Gamma' = eps_Gamma u e_t(binder type).
  std::vector<EffVar> EnvPrime = EnvList;
  TypeId BinderT =
      BI->IsPointer ? BI->BinderType : Alias.ExprType[E->init()->id()];
  if (BinderT != InvalidTypeId)
    EnvPrime.push_back(typeEffVar(BinderT));

  EffVar BodyEff = walk(E->body(), EnvPrime);
  edge(BodyEff, V, E, "effect of binding scope body");

  if (BI->IsPointer) {
    // Escape set for rho': eps_Gamma u e_t1 u e_t2.
    std::vector<EffVar> Escape = EnvList;
    Escape.push_back(typeEffVar(BI->PointeeType));
    TypeId BodyT = Alias.ExprType[E->body()->id()];
    if (BodyT != InvalidTypeId)
      Escape.push_back(typeEffVar(BodyT));

    // Explicit restrict: the restrict effect {rho} (prevents restricting
    // the same location twice in one scope, Section 3). Strict semantics
    // emits it unconditionally; the liberal (C-like) semantics only when
    // the binder is actually used (Section 5, footnote 2).
    if (E->isRestrict()) {
      if (Opts.LiberalRestrictEffect) {
        CondConstraint C;
        C.P = CondConstraint::Premise::LocInVar;
        C.Rho = BI->RhoPrime;
        C.Var = BodyEff;
        C.Actions = CS.addActions(
            {{CondAction::Kind::AddElemReadWrite, BI->Rho, V}});
        CS.setOrigin(E->loc(),
                     "restrict effect of used restrict binding (liberal)");
        CS.addConditional(std::move(C));
      } else {
        CS.setOrigin(E->loc(), "restrict effect of restrict binding");
        CS.addElement(EffectKind::Read, BI->Rho, V);
        CS.addElement(EffectKind::Write, BI->Rho, V);
      }
    }

    BindConstraintVars BCV;
    BCV.BindIdx = Alias.BindIndexOf[E->id()];
    BCV.BodyEff = BodyEff;
    BCV.EscapeVars = std::move(Escape);
    BCV.ResultVar = V;
    Result.Binds.push_back(std::move(BCV));
  }
  return V;
}

EffVar EffectInference::walkConfine(
    const ConfineExpr *E, const std::vector<EffVar> &EnvList) {
  EffVar V = CS.makeVar();
  EffVar SubjectEff = walk(E->subject(), EnvList);
  edge(SubjectEff, V, E, "effect of confine subject");

  const ConfineSiteInfo *CSI = Alias.confineInfo(E->id());
  assert(CSI && "confine without alias info");
  uint32_t ConfIdx = Alias.ConfineIndexOf[E->id()];

  if (!CSI->Valid) {
    // Invalid subject (only possible for confine? candidates): the node is
    // transparent.
    edge(walk(E->body(), EnvList), V, E, "effect of confine body");
    return V;
  }

  // p': the effect of each occurrence of e1 in the body. Empty in the
  // least solution when the confine succeeds; includes L1 when it fails.
  EffVar PVar = CS.makeVar();
  ConfinePVar[ConfIdx] = PVar;

  std::vector<EffVar> EnvPrime = EnvList;
  EnvPrime.push_back(typeEffVar(CSI->BinderType));

  EffVar BodyEff = walk(E->body(), EnvPrime);
  edge(BodyEff, V, E, "effect of confine body");
  // p is included in the whole expression's effect.
  edge(PVar, V, E, "effects through confined occurrences");

  std::vector<EffVar> Escape = EnvList;
  Escape.push_back(typeEffVar(CSI->PointeeType));
  TypeId BodyT = Alias.ExprType[E->body()->id()];
  if (BodyT != InvalidTypeId)
    Escape.push_back(typeEffVar(BodyT));

  if (!CSI->Optional) {
    // Programmer-written confine: the restrict effect, strict or liberal
    // as for explicit restrict bindings.
    if (Opts.LiberalRestrictEffect) {
      CondConstraint C;
      C.P = CondConstraint::Premise::LocInVar;
      C.Rho = CSI->RhoPrime;
      C.Var = BodyEff;
      C.Actions = CS.addActions(
          {{CondAction::Kind::AddElemReadWrite, CSI->Rho, V}});
      CS.setOrigin(E->loc(),
                   "restrict effect of used confine binding (liberal)");
      CS.addConditional(std::move(C));
    } else {
      CS.setOrigin(E->loc(), "restrict effect of confine binding");
      CS.addElement(EffectKind::Read, CSI->Rho, V);
      CS.addElement(EffectKind::Write, CSI->Rho, V);
    }
  }

  ConfineConstraintVars CCV;
  CCV.ConfIdx = ConfIdx;
  CCV.SubjectEff = SubjectEff;
  CCV.BodyEff = BodyEff;
  CCV.EscapeVars = std::move(Escape);
  CCV.PVar = PVar;
  CCV.ResultVar = V;
  Result.Confines.push_back(std::move(CCV));
  return V;
}
