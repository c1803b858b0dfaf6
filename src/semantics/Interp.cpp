//===- Interp.cpp - Big-step operational semantics ------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "semantics/Interp.h"

#include "lang/Builtins.h"
#include "lang/ExprUtils.h"
#include "support/Budget.h"

#include <cassert>
#include <set>
#include <unordered_map>
#include <vector>

using namespace lna;

namespace {

/// A runtime value: an integer, an address (with a block length for
/// array values), or a reference to a struct instance.
struct RtValue {
  enum class Kind : uint8_t { Int, Addr, Struct } K = Kind::Int;
  int64_t I = 0;    ///< Int
  uint32_t A = 0;   ///< Addr: cell index; Struct: instance index
  uint32_t Len = 1; ///< Addr: block length (arrays)

  static RtValue fromInt(int64_t V) { return {Kind::Int, V, 0, 1}; }
  static RtValue addr(uint32_t A, uint32_t Len = 1) {
    return {Kind::Addr, 0, A, Len};
  }
  static RtValue structRef(uint32_t Id) { return {Kind::Struct, 0, Id, 1}; }
};

/// One store cell. `Revoked` implements the paper's S[l -> err]; the
/// two provenance fields record which scope revoked it so faults can
/// name the violated restrict/confine (the reducer's oracle-stability
/// requirement: a shrunk program must fail for the *same* reason).
struct Cell {
  RtValue V;
  bool Revoked = false;
  const char *RevokedBy = nullptr; ///< "restrict binding", ...
  SourceLoc RevokedAt;             ///< scope location, when known
};

struct StructInstance {
  std::vector<std::pair<Symbol, uint32_t>> Fields; ///< name -> cell
};

class Interp {
public:
  Interp(const ASTContext &Ctx, const Program &P, const InterpOptions &Opts)
      : Ctx(Ctx), Prog(P), Opts(Opts), Nondet(Opts.NondetSeed) {
    SymSpinLock = findSymbol("spin_lock");
    SymSpinUnlock = findSymbol("spin_unlock");
    SymWork = findSymbol("work");
    SymNondet = findSymbol("nondet");
  }

  RunResult runAllRoots() {
    setupGlobals();
    if (Status != RunStatus::Value)
      return finish(RtValue::fromInt(0));

    std::set<Symbol> Called;
    for (const FunDef &F : Prog.Funs)
      collectCallees(F.Body, Called);
    bool AnyRoot = false;
    for (const FunDef &F : Prog.Funs)
      AnyRoot |= Called.count(F.Name) == 0;

    RtValue Last = RtValue::fromInt(0);
    for (const FunDef &F : Prog.Funs) {
      if (AnyRoot && Called.count(F.Name) != 0)
        continue;
      if (!callFunction(F, Last))
        break;
    }
    return finish(Last);
  }

  RunResult runOne(Symbol Fun) {
    setupGlobals();
    RtValue Last = RtValue::fromInt(0);
    if (Status == RunStatus::Value) {
      const FunDef *F = Prog.findFun(Fun);
      if (!F)
        fail(RunStatus::Stuck, "no such function");
      else
        callFunction(*F, Last);
    }
    return finish(Last);
  }

private:
  //===--------------------------------------------------------------===//
  // Plumbing
  //===--------------------------------------------------------------===//

  Symbol findSymbol(const char *Name) {
    // The interner is shared via the (const) context; the symbols always
    // exist for programs that mention the builtins, and a missing symbol
    // simply never matches.
    for (uint32_t Id = 0; Id < Ctx.interner().size(); ++Id)
      if (Ctx.interner().text(Symbol(Id)) == Name)
        return Symbol(Id);
    return Symbol();
  }

  void fail(RunStatus S, std::string Why) {
    if (Status == RunStatus::Value) {
      Status = S;
      Note = std::move(Why);
    }
  }

  bool burnFuel() {
    budgetStep();
    if (++Steps > Opts.Fuel) {
      fail(RunStatus::OutOfFuel, "fuel exhausted");
      return false;
    }
    return true;
  }

  RunResult finish(RtValue Last) {
    RunResult R;
    R.Status = Status;
    R.Value = Last.K == RtValue::Kind::Int ? Last.I : 0;
    R.Note = Note;
    R.StepsUsed = Steps;
    return R;
  }

  void collectCallees(const Expr *E, std::set<Symbol> &Out) const {
    if (const auto *C = dyn_cast<CallExpr>(E))
      if (Prog.findFun(C->callee()))
        Out.insert(C->callee());
    forEachChild(E, [&](const Expr *Child) { collectCallees(Child, Out); });
  }

  //===--------------------------------------------------------------===//
  // Store
  //===--------------------------------------------------------------===//

  uint32_t allocCell(RtValue V) {
    Store.push_back(Cell{V, false, nullptr, SourceLoc()});
    return static_cast<uint32_t>(Store.size() - 1);
  }

  /// The fault message for touching a revoked cell, naming the scope
  /// that revoked it when its provenance was recorded.
  std::string revokedMessage(const Cell &C, const char *What) {
    std::string Msg = std::string(What) + " through a revoked cell";
    if (C.RevokedBy) {
      Msg += std::string(", revoked by the ") + C.RevokedBy;
      if (C.RevokedAt.isValid())
        Msg += " at line " + std::to_string(C.RevokedAt.Line) + ", col " +
               std::to_string(C.RevokedAt.Col);
    }
    Msg += " (restrict violation witnessed)";
    return Msg;
  }

  /// Reads a cell with the err check (the semantics is strict in err).
  bool readCell(uint32_t A, RtValue &Out, const char *What) {
    if (A >= Store.size()) {
      fail(RunStatus::Stuck, "wild address");
      return false;
    }
    if (Store[A].Revoked) {
      fail(RunStatus::Err, revokedMessage(Store[A], What));
      return false;
    }
    Out = Store[A].V;
    return true;
  }

  bool writeCell(uint32_t A, RtValue V, const char *What) {
    if (A >= Store.size()) {
      fail(RunStatus::Stuck, "wild address");
      return false;
    }
    if (Store[A].Revoked) {
      fail(RunStatus::Err, revokedMessage(Store[A], What));
      return false;
    }
    Store[A].V = V;
    return true;
  }

  /// Address computation (FieldAddr): reads the struct reference without
  /// the err check -- the static semantics gives address arithmetic no
  /// effect, and the dynamic semantics must agree for Theorem 1 to hold.
  bool peekCell(uint32_t A, RtValue &Out) {
    if (A >= Store.size()) {
      fail(RunStatus::Stuck, "wild address");
      return false;
    }
    Out = Store[A].V;
    return true;
  }

  //===--------------------------------------------------------------===//
  // Globals and default values
  //===--------------------------------------------------------------===//

  RtValue defaultValue(const TypeExpr *TE) {
    switch (TE->kind()) {
    case TypeExpr::Kind::Int:
    case TypeExpr::Kind::Lock:
      return RtValue::fromInt(0);
    case TypeExpr::Kind::Ptr: {
      // Non-null default: a fresh cell holding the pointee's default.
      RtValue Inner = defaultValue(TE->element());
      return RtValue::addr(allocCell(Inner));
    }
    case TypeExpr::Kind::Array: {
      // Build the element values first: constructing them may allocate
      // (nested structs, pointer targets), and the array block itself
      // must stay contiguous.
      std::vector<RtValue> Elems;
      for (uint32_t I = 0; I < Opts.ArrayLength; ++I)
        Elems.push_back(defaultValue(TE->element()));
      uint32_t Base = static_cast<uint32_t>(Store.size());
      for (const RtValue &V : Elems)
        allocCell(V);
      return RtValue::addr(Base, Opts.ArrayLength);
    }
    case TypeExpr::Kind::Named:
      return structValue(TE->name());
    }
    return RtValue::fromInt(0);
  }

  RtValue structValue(Symbol Name) {
    // Tie the knot for recursive structs: a pointer back to a struct
    // currently being built points at its existing holder cell.
    auto InProgress = StructHolders.find(Name);
    if (InProgress != StructHolders.end())
      return Store[InProgress->second].V;

    const StructDef *Def = Prog.findStruct(Name);
    if (!Def) {
      fail(RunStatus::Stuck, "unknown struct");
      return RtValue::fromInt(0);
    }
    uint32_t Inst = static_cast<uint32_t>(Instances.size());
    Instances.emplace_back();
    RtValue Ref = RtValue::structRef(Inst);
    uint32_t Holder = allocCell(Ref);
    StructHolders.emplace(Name, Holder);
    for (const auto &[FieldName, FieldTE] : Def->Fields) {
      uint32_t FieldCell;
      if (FieldTE->kind() == TypeExpr::Kind::Ptr &&
          FieldTE->element()->kind() == TypeExpr::Kind::Named &&
          StructHolders.count(FieldTE->element()->name())) {
        FieldCell = allocCell(
            RtValue::addr(StructHolders[FieldTE->element()->name()]));
      } else {
        FieldCell = allocCell(defaultValue(FieldTE));
      }
      Instances[Inst].Fields.emplace_back(FieldName, FieldCell);
    }
    StructHolders.erase(Name);
    return Ref;
  }

  void setupGlobals() {
    for (const GlobalDecl &G : Prog.Globals) {
      RtValue V = defaultValue(G.DeclType);
      if (G.DeclType->kind() == TypeExpr::Kind::Array)
        Globals[G.Name] = V; // the array value itself
      else
        Globals[G.Name] = RtValue::addr(allocCell(V));
    }
  }

  //===--------------------------------------------------------------===//
  // Environment and confine occurrences
  //===--------------------------------------------------------------===//

  RtValue *lookupVar(Symbol Name) {
    for (auto It = Env.rbegin(); It != Env.rend(); ++It)
      if (It->first == Name)
        return &It->second;
    auto G = Globals.find(Name);
    return G == Globals.end() ? nullptr : &G->second;
  }

  struct ActiveConfine {
    const Expr *Subject;
    RtValue Name; ///< the fresh-cell pointer the occurrences denote
    std::set<Symbol> FreeVars;
    unsigned DisabledDepth = 0;
  };

  bool matchActiveConfine(const Expr *E, RtValue &Out) const {
    for (auto It = Confines.rbegin(); It != Confines.rend(); ++It) {
      if (It->DisabledDepth != 0)
        continue;
      if (exprStructurallyEqual(E, It->Subject)) {
        Out = It->Name;
        return true;
      }
    }
    return false;
  }

  //===--------------------------------------------------------------===//
  // The restrict protocol (the Section 3.2 rule)
  //===--------------------------------------------------------------===//

  /// Enters a restrict of the block \p L points to: copies it to fresh
  /// cells, revokes the originals, and returns the fresh-block pointer.
  /// \p By / \p At record which scope revoked the cells for fault
  /// messages.
  bool enterRestrict(RtValue L, RtValue &Fresh, uint32_t &OrigBase,
                     const char *By, SourceLoc At) {
    if (L.K != RtValue::Kind::Addr) {
      fail(RunStatus::Stuck, "restrict of a non-pointer value");
      return false;
    }
    OrigBase = L.A;
    uint32_t FreshBase = static_cast<uint32_t>(Store.size());
    for (uint32_t I = 0; I < L.Len; ++I) {
      Cell Copy = Store[L.A + I]; // copies contents *and* err-ness
      Store.push_back(Copy);      // (copy first: push_back may reallocate)
      Store[L.A + I].Revoked = true;
      Store[L.A + I].RevokedBy = By;
      Store[L.A + I].RevokedAt = At;
    }
    Fresh = RtValue::addr(FreshBase, L.Len);
    return true;
  }

  /// Leaves the restrict: copies the fresh block back and revokes it.
  void leaveRestrict(const RtValue &Fresh, uint32_t OrigBase,
                     const char *By, SourceLoc At) {
    for (uint32_t I = 0; I < Fresh.Len; ++I) {
      Store[OrigBase + I] = Store[Fresh.A + I];
      Store[Fresh.A + I].Revoked = true;
      Store[Fresh.A + I].RevokedBy = By;
      Store[Fresh.A + I].RevokedAt = At;
    }
  }

  //===--------------------------------------------------------------===//
  // Evaluation
  //===--------------------------------------------------------------===//

  bool callFunction(const FunDef &F, RtValue &Out) {
    // Synthesize arguments: ints come from the nondet stream, pointers
    // from fresh default-initialized storage.
    std::vector<RtValue> Args;
    for (const auto &[Name, TE] : F.Params)
      Args.push_back(TE->kind() == TypeExpr::Kind::Int
                         ? RtValue::fromInt(
                               static_cast<int64_t>(Nondet.below(8)))
                         : defaultValue(TE));
    return applyFunction(F, Args, Out);
  }

  bool applyFunction(const FunDef &F, const std::vector<RtValue> &Args,
                     RtValue &Out) {
    if (Args.size() != F.Params.size()) {
      fail(RunStatus::Stuck, "arity mismatch");
      return false;
    }
    if (++CallDepth > Opts.MaxCallDepth) {
      --CallDepth;
      fail(RunStatus::OutOfFuel, "call depth exceeded");
      return false;
    }
    size_t Mark = Env.size();
    // Restrict-qualified parameters enter the restrict protocol. Every
    // exit below must unwind the protocols already entered and the call
    // depth, or a failing entry mid-way leaks both (the protocols of
    // earlier parameters would keep the caller's cells revoked forever).
    std::vector<std::pair<RtValue, uint32_t>> Protocols;
    auto Unwind = [&] {
      for (auto It = Protocols.rbegin(); It != Protocols.rend(); ++It)
        leaveRestrict(It->first, It->second, "restrict parameter", F.Loc);
      Env.resize(Mark);
      --CallDepth;
    };
    for (uint32_t I = 0; I < Args.size(); ++I) {
      RtValue Bound = Args[I];
      if (F.ParamRestrict[I]) {
        RtValue Fresh;
        uint32_t OrigBase;
        if (!enterRestrict(Args[I], Fresh, OrigBase, "restrict parameter",
                           F.Loc)) {
          Unwind();
          return false;
        }
        Protocols.emplace_back(Fresh, OrigBase);
        Bound = Fresh;
      }
      Env.emplace_back(F.Params[I].first, Bound);
    }
    bool Ok = eval(F.Body, Out);
    Unwind();
    return Ok;
  }

  bool eval(const Expr *E, RtValue &Out) {
    if (!burnFuel())
      return false;

    // Confine occurrences are names for the fresh cell.
    if (matchActiveConfine(E, Out))
      return true;

    switch (E->kind()) {
    case Expr::Kind::IntLit:
      Out = RtValue::fromInt(cast<IntLitExpr>(E)->value());
      return true;
    case Expr::Kind::VarRef: {
      RtValue *V = lookupVar(cast<VarRefExpr>(E)->name());
      if (!V) {
        fail(RunStatus::Stuck, "unbound variable");
        return false;
      }
      Out = *V;
      return true;
    }
    case Expr::Kind::BinOp: {
      const auto *B = cast<BinOpExpr>(E);
      RtValue L, R;
      if (!eval(B->lhs(), L) || !eval(B->rhs(), R))
        return false;
      if (L.K != RtValue::Kind::Int || R.K != RtValue::Kind::Int) {
        fail(RunStatus::Stuck, "arithmetic on non-integers");
        return false;
      }
      int64_t V = 0;
      bool Overflow = false;
      switch (B->op()) {
      case BinOpExpr::Op::Add:
        Overflow = __builtin_add_overflow(L.I, R.I, &V);
        break;
      case BinOpExpr::Op::Sub:
        Overflow = __builtin_sub_overflow(L.I, R.I, &V);
        break;
      case BinOpExpr::Op::Mul:
        Overflow = __builtin_mul_overflow(L.I, R.I, &V);
        break;
      case BinOpExpr::Op::Eq:
        V = L.I == R.I;
        break;
      case BinOpExpr::Op::Ne:
        V = L.I != R.I;
        break;
      case BinOpExpr::Op::Lt:
        V = L.I < R.I;
        break;
      case BinOpExpr::Op::Gt:
        V = L.I > R.I;
        break;
      }
      if (Overflow) {
        fail(RunStatus::Stuck, "integer overflow");
        return false;
      }
      Out = RtValue::fromInt(V);
      return true;
    }
    case Expr::Kind::New: {
      RtValue Init;
      if (!eval(cast<NewExpr>(E)->init(), Init))
        return false;
      Out = RtValue::addr(allocCell(Init));
      return true;
    }
    case Expr::Kind::NewArray: {
      RtValue Init;
      if (!eval(cast<NewArrayExpr>(E)->init(), Init))
        return false;
      uint32_t Base = static_cast<uint32_t>(Store.size());
      for (uint32_t I = 0; I < Opts.ArrayLength; ++I)
        allocCell(Init);
      Out = RtValue::addr(Base, Opts.ArrayLength);
      return true;
    }
    case Expr::Kind::Deref: {
      RtValue P;
      if (!eval(cast<DerefExpr>(E)->pointer(), P))
        return false;
      if (P.K != RtValue::Kind::Addr) {
        fail(RunStatus::Stuck, "dereference of a non-pointer");
        return false;
      }
      return readCell(P.A, Out, "read");
    }
    case Expr::Kind::Assign: {
      const auto *A = cast<AssignExpr>(E);
      RtValue T, V;
      if (!eval(A->target(), T) || !eval(A->value(), V))
        return false;
      if (T.K != RtValue::Kind::Addr) {
        fail(RunStatus::Stuck, "assignment through a non-pointer");
        return false;
      }
      if (!writeCell(T.A, V, "write"))
        return false;
      Out = V;
      return true;
    }
    case Expr::Kind::Index: {
      const auto *I = cast<IndexExpr>(E);
      RtValue A, Idx;
      if (!eval(I->array(), A) || !eval(I->index(), Idx))
        return false;
      if (A.K != RtValue::Kind::Addr || Idx.K != RtValue::Kind::Int) {
        fail(RunStatus::Stuck, "bad indexing");
        return false;
      }
      uint32_t Len = A.Len == 0 ? 1 : A.Len;
      uint32_t Off = static_cast<uint32_t>(
          ((Idx.I % Len) + Len) % Len); // wrap into bounds
      Out = RtValue::addr(A.A + Off);
      return true;
    }
    case Expr::Kind::FieldAddr: {
      const auto *F = cast<FieldAddrExpr>(E);
      RtValue Base;
      if (!eval(F->base(), Base))
        return false;
      if (Base.K != RtValue::Kind::Addr) {
        fail(RunStatus::Stuck, "field access through a non-pointer");
        return false;
      }
      RtValue StructV;
      if (!peekCell(Base.A, StructV)) // address arithmetic: no err check
        return false;
      if (StructV.K != RtValue::Kind::Struct) {
        fail(RunStatus::Stuck, "field access on a non-struct");
        return false;
      }
      for (const auto &[Name, CellAddr] : Instances[StructV.A].Fields)
        if (Name == F->field()) {
          Out = RtValue::addr(CellAddr);
          return true;
        }
      fail(RunStatus::Stuck, "no such field");
      return false;
    }
    case Expr::Kind::Call:
      return evalCall(cast<CallExpr>(E), Out);
    case Expr::Kind::Block: {
      Out = RtValue::fromInt(0);
      for (const Expr *S : cast<BlockExpr>(E)->stmts())
        if (!eval(S, Out))
          return false;
      return true;
    }
    case Expr::Kind::Bind: {
      const auto *B = cast<BindExpr>(E);
      RtValue Init;
      if (!eval(B->init(), Init))
        return false;
      size_t Mark = Env.size();
      bool Ok;
      if (B->isRestrict()) {
        RtValue Fresh;
        uint32_t OrigBase;
        if (!enterRestrict(Init, Fresh, OrigBase, "restrict binding",
                           B->loc()))
          return false;
        disableShadowedConfines(B->name(), +1);
        Env.emplace_back(B->name(), Fresh);
        Ok = eval(B->body(), Out);
        Env.resize(Mark);
        disableShadowedConfines(B->name(), -1);
        leaveRestrict(Fresh, OrigBase, "restrict binding", B->loc());
      } else {
        disableShadowedConfines(B->name(), +1);
        Env.emplace_back(B->name(), Init);
        Ok = eval(B->body(), Out);
        Env.resize(Mark);
        disableShadowedConfines(B->name(), -1);
      }
      return Ok;
    }
    case Expr::Kind::Confine: {
      const auto *C = cast<ConfineExpr>(E);
      RtValue Subject;
      if (!eval(C->subject(), Subject))
        return false;
      if (Subject.K != RtValue::Kind::Addr) {
        fail(RunStatus::Stuck, "confine of a non-pointer");
        return false;
      }
      RtValue Fresh;
      uint32_t OrigBase;
      if (!enterRestrict(Subject, Fresh, OrigBase, "confine scope",
                         C->loc()))
        return false;
      ActiveConfine AC;
      AC.Subject = C->subject();
      AC.Name = Fresh;
      collectFreeVars(C->subject(), AC.FreeVars);
      Confines.push_back(std::move(AC));
      bool Ok = eval(C->body(), Out);
      Confines.pop_back();
      leaveRestrict(Fresh, OrigBase, "confine scope", C->loc());
      return Ok;
    }
    case Expr::Kind::If: {
      const auto *I = cast<IfExpr>(E);
      RtValue Cond;
      if (!eval(I->cond(), Cond))
        return false;
      if (Cond.K != RtValue::Kind::Int) {
        fail(RunStatus::Stuck, "non-integer condition");
        return false;
      }
      return eval(Cond.I != 0 ? I->thenExpr() : I->elseExpr(), Out);
    }
    case Expr::Kind::While: {
      const auto *W = cast<WhileExpr>(E);
      while (true) {
        if (!burnFuel())
          return false;
        RtValue Cond;
        if (!eval(W->cond(), Cond))
          return false;
        if (Cond.K != RtValue::Kind::Int) {
          fail(RunStatus::Stuck, "non-integer condition");
          return false;
        }
        if (Cond.I == 0)
          break;
        RtValue Ignored;
        if (!eval(W->body(), Ignored))
          return false;
      }
      Out = RtValue::fromInt(0);
      return true;
    }
    case Expr::Kind::Cast: {
      // Casts reinterpret; the dynamic value is unchanged.
      return eval(cast<CastExpr>(E)->operand(), Out);
    }
    }
    fail(RunStatus::Stuck, "unhandled expression");
    return false;
  }

  void disableShadowedConfines(Symbol Name, int Delta) {
    for (ActiveConfine &AC : Confines)
      if (AC.FreeVars.count(Name))
        AC.DisabledDepth = static_cast<unsigned>(
            static_cast<int>(AC.DisabledDepth) + Delta);
  }

  bool evalCall(const CallExpr *E, RtValue &Out) {
    Symbol Callee = E->callee();
    BuiltinKind BK = builtinKind(Ctx.interner().text(Callee));
    if (BK == BuiltinKind::Nondet) {
      Out = RtValue::fromInt(static_cast<int64_t>(Nondet.below(2)));
      return true;
    }
    if (BK == BuiltinKind::Work) {
      Out = RtValue::fromInt(0);
      return true;
    }
    if (BK == BuiltinKind::ChangeType) {
      if (E->args().size() != 1) {
        fail(RunStatus::Stuck, "bad lock primitive arity");
        return false;
      }
      RtValue Arg;
      if (!eval(E->args()[0], Arg))
        return false;
      if (Arg.K != RtValue::Kind::Addr) {
        fail(RunStatus::Stuck, "lock primitive on a non-pointer");
        return false;
      }
      // The primitive reads and writes the lock cell (change_type): this
      // is what makes dynamic restrict violations on locks observable.
      RtValue Cur;
      if (!readCell(Arg.A, Cur, "lock-state read"))
        return false;
      int64_t Delta = Callee == SymSpinLock ? 1 : -1;
      if (!writeCell(Arg.A,
                     RtValue::fromInt(
                         (Cur.K == RtValue::Kind::Int ? Cur.I : 0) + Delta),
                     "lock-state write"))
        return false;
      Out = RtValue::fromInt(0);
      return true;
    }
    const FunDef *F = Prog.findFun(Callee);
    if (!F) {
      fail(RunStatus::Stuck, "call to unknown function");
      return false;
    }
    std::vector<RtValue> Args;
    for (const Expr *A : E->args()) {
      RtValue V;
      if (!eval(A, V))
        return false;
      Args.push_back(V);
    }
    return applyFunction(*F, Args, Out);
  }

  const ASTContext &Ctx;
  const Program &Prog;
  InterpOptions Opts;
  Rng Nondet;

  std::vector<Cell> Store;
  std::vector<StructInstance> Instances;
  std::unordered_map<Symbol, uint32_t> StructHolders; ///< in-progress
  std::unordered_map<Symbol, RtValue> Globals;
  std::vector<std::pair<Symbol, RtValue>> Env;
  std::vector<ActiveConfine> Confines;

  RunStatus Status = RunStatus::Value;
  std::string Note;
  uint64_t Steps = 0;
  uint32_t CallDepth = 0;

  Symbol SymSpinLock, SymSpinUnlock, SymWork, SymNondet;
};

} // namespace

RunResult lna::runProgram(const ASTContext &Ctx, const Program &P,
                          const InterpOptions &Opts) {
  return Interp(Ctx, P, Opts).runAllRoots();
}

RunResult lna::runFunction(const ASTContext &Ctx, const Program &P,
                           Symbol Fun, const InterpOptions &Opts) {
  return Interp(Ctx, P, Opts).runOne(Fun);
}
