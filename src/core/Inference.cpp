//===- Inference.cpp - Restrict and confine inference ---------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "core/Inference.h"

#include "obs/Trace.h"
#include "support/Budget.h"

using namespace lna;

InferenceResult lna::runInference(const ASTContext &Ctx,
                                  const AliasResult &Alias,
                                  const EffectInfResult &Eff,
                                  ConstraintSystem &CS,
                                  const AliasAnalysis &AA,
                                  const InferenceOptions &Opts) {
  InferenceResult Result;
  std::vector<EffVar> MandatoryVars;

  // Untrackable (cast-tainted) candidates must stay lets, and unifying a
  // skipped pair can make *further* candidates untrackable (a let of a
  // let whose location family a later cast taints), so run the skip to a
  // fixpoint before any conditional constraints are generated. A single
  // pass depends on bind order and can infer a restrict the checker then
  // rejects (found by the inference-maximality fuzz oracle).
  {
    Span SpFix("untrackable-fixpoint");
    for (bool Changed = true; Changed;) {
      Changed = false;
      budgetStep(Eff.Binds.size() + Eff.Confines.size());
      for (const BindConstraintVars &BCV : Eff.Binds) {
        const BindInfo &BI = Alias.Binds[BCV.BindIdx];
        if (!BI.IsPointer || BI.ExplicitRestrict)
          continue;
        // Either side of the split pair may carry the taint: a cast of the
        // binder itself marks rho', and the unsplit program unifies that
        // into the whole family, so rho must be treated as tainted too.
        if ((AA.isUntrackable(BI.Rho) || AA.isUntrackable(BI.RhoPrime)) &&
            !AA.sameClass(BI.Rho, BI.RhoPrime)) {
          CS.locs().unify(BI.Rho, BI.RhoPrime, FlowDir::AToB);
          Changed = true;
        }
      }
      for (const ConfineConstraintVars &CCV : Eff.Confines) {
        const ConfineSiteInfo &CSI = Alias.Confines[CCV.ConfIdx];
        if (!CSI.Valid || !CSI.Optional)
          continue;
        if ((AA.isUntrackable(CSI.Rho) || AA.isUntrackable(CSI.RhoPrime)) &&
            !AA.sameClass(CSI.Rho, CSI.RhoPrime)) {
          CS.locs().unify(CSI.Rho, CSI.RhoPrime, FlowDir::AToB);
          CS.setOrigin(Ctx.expr(CSI.Id)->loc(),
                       "failed confine: occurrences recover the subject's "
                       "effect");
          CS.addEdge(CCV.SubjectEff, CCV.PVar);
          Changed = true;
        }
      }
    }
  }

  // At most three conditionals, two pooled actions and one escape list
  // per binding, and five conditionals and three actions per confine?.
  size_t EscapeVars = 0;
  for (const BindConstraintVars &BCV : Eff.Binds)
    EscapeVars += BCV.EscapeVars.size();
  for (const ConfineConstraintVars &CCV : Eff.Confines)
    EscapeVars += CCV.EscapeVars.size();
  CS.reserveConditionals(3 * Eff.Binds.size() + 5 * Eff.Confines.size(),
                         2 * Eff.Binds.size() + 3 * Eff.Confines.size(),
                         EscapeVars);

  // let-or-restrict (Section 5).
  for (const BindConstraintVars &BCV : Eff.Binds) {
    budgetStep();
    const BindInfo &BI = Alias.Binds[BCV.BindIdx];
    if (!BI.IsPointer)
      continue;
    if (BI.ExplicitRestrict) {
      MandatoryVars.push_back(BCV.BodyEff);
      for (EffVar V : BCV.EscapeVars)
        MandatoryVars.push_back(V);
      continue;
    }
    // Values that flowed through mismatched casts defeat the may-alias
    // analysis; it can no longer verify non-aliasing for the location, so
    // the binding must stay a let (Section 7 reports exactly this failure
    // category: "our underlying may-alias analysis is unable to verify
    // the addition of confine (e.g., a type cast)").
    if (AA.isUntrackable(BI.Rho))
      continue; // already unified by the fixpoint pass above

    SourceLoc BindLoc = Ctx.expr(BI.Id)->loc();
    const PoolRange Demote =
        CS.addActions({{CondAction::Kind::UnifyLocs, BI.Rho, BI.RhoPrime}});
    // rho in L2 => rho = rho' (the construct must be a let).
    CondConstraint C1;
    C1.P = CondConstraint::Premise::LocInVar;
    C1.Rho = BI.Rho;
    C1.Var = BCV.BodyEff;
    C1.Actions = Demote;
    C1.OriginLoc = BindLoc;
    C1.OriginNote = "let-or-restrict demoted to let (accessed in scope)";
    CS.addConditional(std::move(C1));
    // rho' escapes => rho = rho'.
    CondConstraint C2;
    C2.P = CondConstraint::Premise::LocInVar;
    C2.Rho = BI.RhoPrime;
    C2.AnyOf = CS.addVarList(BCV.EscapeVars);
    C2.Actions = Demote;
    C2.OriginLoc = BindLoc;
    C2.OriginNote = "let-or-restrict demoted to let (binder escapes)";
    CS.addConditional(std::move(C2));
    // rho' in L2 => {rho} <= eps (the optional restrict effect: only
    // needed when the restricted pointer is actually used, Section 5).
    CondConstraint C3;
    C3.P = CondConstraint::Premise::LocInVar;
    C3.Rho = BI.RhoPrime;
    C3.Var = BCV.BodyEff;
    C3.Actions = CS.addActions(
        {{CondAction::Kind::AddElemReadWrite, BI.Rho, BCV.ResultVar}});
    C3.OriginLoc = BindLoc;
    C3.OriginNote = "restrict effect of used let-or-restrict binding";
    CS.addConditional(std::move(C3));
  }

  // confine? (Section 6).
  for (const ConfineConstraintVars &CCV : Eff.Confines) {
    const ConfineSiteInfo &CSI = Alias.Confines[CCV.ConfIdx];
    if (!CSI.Valid)
      continue;
    if (!CSI.Optional) {
      MandatoryVars.push_back(CCV.SubjectEff);
      MandatoryVars.push_back(CCV.BodyEff);
      for (EffVar V : CCV.EscapeVars)
        MandatoryVars.push_back(V);
      continue;
    }
    // Untrackable (cast-tainted) locations: the may-alias analysis cannot
    // verify the confine; fail it immediately.
    if (AA.isUntrackable(CSI.Rho))
      continue; // already unified by the fixpoint pass above

    SourceLoc ConfLoc = Ctx.expr(CSI.Id)->loc();
    const PoolRange Fail = CS.addActions({
        {CondAction::Kind::UnifyLocs, CSI.Rho, CSI.RhoPrime},
        // On failure the occurrences of e1 recover e1's type *and effect*:
        // L1 <= p'.
        {CondAction::Kind::AddEdge, CCV.SubjectEff, CCV.PVar},
    });
    // rho in L2 => fail.
    CondConstraint C1;
    C1.P = CondConstraint::Premise::LocInVar;
    C1.Rho = CSI.Rho;
    C1.Var = CCV.BodyEff;
    C1.Actions = Fail;
    C1.OriginLoc = ConfLoc;
    C1.OriginNote = "failed confine? candidate (accessed in scope)";
    CS.addConditional(std::move(C1));
    // rho' escapes => fail.
    CondConstraint C2;
    C2.P = CondConstraint::Premise::LocInVar;
    C2.Rho = CSI.RhoPrime;
    C2.AnyOf = CS.addVarList(CCV.EscapeVars);
    C2.Actions = Fail;
    C2.OriginLoc = ConfLoc;
    C2.OriginNote = "failed confine? candidate (subject escapes)";
    CS.addConditional(std::move(C2));
    // e1 has a write or alloc effect => fail (Section 6.1, first two
    // quantified premises).
    CondConstraint C3;
    C3.P = CondConstraint::Premise::SideEffectNonEmpty;
    C3.Var = CCV.SubjectEff;
    C3.Actions = Fail;
    C3.OriginLoc = ConfLoc;
    C3.OriginNote = "failed confine? candidate (subject has side effects)";
    CS.addConditional(std::move(C3));
    // something e1 reads is written or allocated in e2 => fail (last two
    // quantified premises).
    CondConstraint C4;
    C4.P = CondConstraint::Premise::ReadWriteOverlap;
    C4.VarA = CCV.SubjectEff;
    C4.Var = CCV.BodyEff;
    C4.Actions = Fail;
    C4.OriginLoc = ConfLoc;
    C4.OriginNote = "failed confine? candidate (subject not referentially "
                    "transparent)";
    CS.addConditional(std::move(C4));
    // rho' in L2 => {rho} <= eps.
    CondConstraint C5;
    C5.P = CondConstraint::Premise::LocInVar;
    C5.Rho = CSI.RhoPrime;
    C5.Var = CCV.BodyEff;
    C5.Actions = CS.addActions(
        {{CondAction::Kind::AddElemReadWrite, CSI.Rho, CCV.ResultVar}});
    C5.OriginLoc = ConfLoc;
    C5.OriginNote = "restrict effect of used confine? binding";
    CS.addConditional(std::move(C5));
  }

  for (const ParamConstraintVars &PCV : Eff.ParamRestricts) {
    MandatoryVars.push_back(PCV.BodyEff);
    for (EffVar V : PCV.EscapeVars)
      MandatoryVars.push_back(V);
  }

  CS.solve(Opts.UseBackwardsSearch ? MandatoryVars : std::vector<EffVar>{});

  // Extract results: a binding/confine succeeded iff its location pair
  // stayed split.
  const LocTable &Locs = CS.locs();
  for (const BindConstraintVars &BCV : Eff.Binds) {
    const BindInfo &BI = Alias.Binds[BCV.BindIdx];
    if (!BI.IsPointer || BI.ExplicitRestrict)
      continue;
    if (!Locs.sameClass(BI.Rho, BI.RhoPrime))
      Result.RestrictableBinds.insert(BI.Id);
  }
  for (const ConfineConstraintVars &CCV : Eff.Confines) {
    const ConfineSiteInfo &CSI = Alias.Confines[CCV.ConfIdx];
    if (!CSI.Valid)
      continue;
    if (CSI.Optional) {
      if (!Locs.sameClass(CSI.Rho, CSI.RhoPrime))
        Result.SucceededConfines.insert(CSI.Id);
      continue;
    }
    // Mandatory confine: verify against the least solution.
    bool Ok = true;
    if (AA.isUntrackable(CSI.Rho) || AA.isUntrackable(CSI.RhoPrime)) {
      Result.Violations.push_back(
          {RestrictViolation::Kind::Untrackable, CSI.Id, 0, 0,
           "confined location flowed through a mismatched cast; its "
           "aliases cannot be tracked"});
      continue;
    }
    if (CS.memberAnyKind(CSI.Rho, CCV.BodyEff)) {
      Ok = false;
      Result.Violations.push_back(
          {RestrictViolation::Kind::AccessedInScope, CSI.Id, 0, 0,
           "confined location is accessed through another name within the "
           "confine scope",
           CSI.Rho, CCV.BodyEff});
    }
    for (EffVar V : CCV.EscapeVars)
      if (CS.memberAnyKind(CSI.RhoPrime, V)) {
        Ok = false;
        Result.Violations.push_back(
            {RestrictViolation::Kind::Escapes, CSI.Id, 0, 0,
             "a pointer derived from the confined expression escapes",
             CSI.RhoPrime, V});
        break;
      }
    // Diagnostics name the lowest-numbered matching location:
    // solution-set iteration order is representation-defined, and the
    // reported witness must not depend on it.
    LocId SideEffectLoc = InvalidLocId;
    for (uint32_t E : CS.solution(CCV.SubjectEff)) {
      EffectKind K = EffectElem(E).kind();
      if (K == EffectKind::Write || K == EffectKind::Alloc) {
        LocId L = Locs.find(EffectElem(E).loc());
        if (SideEffectLoc == InvalidLocId || L < SideEffectLoc)
          SideEffectLoc = L;
      }
    }
    if (SideEffectLoc != InvalidLocId) {
      Ok = false;
      Result.Violations.push_back(
          {RestrictViolation::Kind::SubjectHasSideEffect, CSI.Id, 0, 0,
           "confined expression has side effects", SideEffectLoc,
           CCV.SubjectEff});
    }
    LocId OverlapLoc = InvalidLocId;
    for (uint32_t E : CS.solution(CCV.SubjectEff)) {
      EffectElem Elem(E);
      if (Elem.kind() != EffectKind::Read)
        continue;
      LocId L = Locs.find(Elem.loc());
      if ((CS.member(EffectKind::Write, L, CCV.BodyEff) ||
           CS.member(EffectKind::Alloc, L, CCV.BodyEff)) &&
          (OverlapLoc == InvalidLocId || L < OverlapLoc))
        OverlapLoc = L;
    }
    if (OverlapLoc != InvalidLocId) {
      Ok = false;
      Result.Violations.push_back(
          {RestrictViolation::Kind::SubjectModifiedInBody, CSI.Id, 0, 0,
           "the confine scope modifies a location the confined "
           "expression reads",
           OverlapLoc, CCV.BodyEff});
    }
    if (Ok)
      Result.SucceededConfines.insert(CSI.Id);
  }
  for (const BindConstraintVars &BCV : Eff.Binds) {
    const BindInfo &BI = Alias.Binds[BCV.BindIdx];
    if (!BI.IsPointer || !BI.ExplicitRestrict)
      continue;
    const auto *B = cast<BindExpr>(Ctx.expr(BI.Id));
    if (AA.isUntrackable(BI.Rho) || AA.isUntrackable(BI.RhoPrime)) {
      Result.Violations.push_back(
          {RestrictViolation::Kind::Untrackable, BI.Id, 0, 0,
           "location restricted by '" + Ctx.text(B->name()) +
               "' flowed through a mismatched cast; its aliases cannot "
               "be tracked"});
      continue;
    }
    if (CS.memberAnyKind(BI.Rho, BCV.BodyEff))
      Result.Violations.push_back(
          {RestrictViolation::Kind::AccessedInScope, BI.Id, 0, 0,
           "location restricted by '" + Ctx.text(B->name()) +
               "' is accessed through another name within the restrict "
               "scope",
           BI.Rho, BCV.BodyEff});
    for (EffVar V : BCV.EscapeVars)
      if (CS.memberAnyKind(BI.RhoPrime, V)) {
        Result.Violations.push_back(
            {RestrictViolation::Kind::Escapes, BI.Id, 0, 0,
             "restricted pointer '" + Ctx.text(B->name()) +
                 "' (or a copy) escapes its scope",
             BI.RhoPrime, V});
        break;
      }
  }
  for (const ParamConstraintVars &PCV : Eff.ParamRestricts) {
    const ParamRestrictInfo &PR = Alias.ParamRestricts[PCV.ParamRestrictIdx];
    if (AA.isUntrackable(PR.Rho) || AA.isUntrackable(PR.RhoPrime)) {
      Result.Violations.push_back(
          {RestrictViolation::Kind::Untrackable, InvalidExprId, PR.FunIndex,
           PR.ParamIndex,
           "location of restrict parameter flowed through a mismatched "
           "cast; its aliases cannot be tracked"});
      continue;
    }
    if (CS.memberAnyKind(PR.Rho, PCV.BodyEff))
      Result.Violations.push_back(
          {RestrictViolation::Kind::AccessedInScope, InvalidExprId,
           PR.FunIndex, PR.ParamIndex,
           "location of restrict parameter is accessed through another "
           "name within the function",
           PR.Rho, PCV.BodyEff});
    for (EffVar V : PCV.EscapeVars)
      if (CS.memberAnyKind(PR.RhoPrime, V)) {
        Result.Violations.push_back(
            {RestrictViolation::Kind::Escapes, InvalidExprId, PR.FunIndex,
             PR.ParamIndex, "restrict parameter (or a copy) escapes",
             PR.RhoPrime, V});
        break;
      }
  }

  return Result;
}
