//===- Reducer.cpp - Greedy delta reduction -------------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Reducer.h"

#include "lang/AstPrinter.h"
#include "lang/Parser.h"

#include <vector>

using namespace lna;

namespace {

/// One attempted shrink. Expr edits are keyed by node id, so cloning a
/// program with an edit is a pure function of (program, edit).
struct Edit {
  enum class Kind : uint8_t {
    DropStruct,       ///< remove Structs[DeclIdx]
    DropGlobal,       ///< remove Globals[DeclIdx]
    DropFun,          ///< remove Funs[DeclIdx]
    DropStmt,         ///< remove stmt Arg of block Node
    ReplaceWithChild, ///< replace Node with its Arg-th child
    ReplaceWithZero,  ///< replace Node with the literal 0
  };
  Kind K;
  uint32_t DeclIdx = 0;
  ExprId Node = InvalidExprId;
  uint32_t Arg = 0;
};

std::vector<const Expr *> childrenOf(const Expr *E) {
  std::vector<const Expr *> Cs;
  forEachChild(E, [&](const Expr *C) { Cs.push_back(C); });
  return Cs;
}

/// Clones a program into a fresh context with one edit applied.
class Cloner {
public:
  Cloner(const ASTContext &Src, ASTContext &Dst, const Edit &E)
      : Src(Src), Dst(Dst), E(E) {}

  Program run(const Program &P) {
    Program Out;
    for (size_t I = 0; I < P.Structs.size(); ++I) {
      if (E.K == Edit::Kind::DropStruct && E.DeclIdx == I)
        continue;
      StructDef S;
      S.Name = sym(P.Structs[I].Name);
      S.Loc = P.Structs[I].Loc;
      for (const auto &[F, T] : P.Structs[I].Fields)
        S.Fields.emplace_back(sym(F), type(T));
      Out.Structs.push_back(std::move(S));
    }
    for (size_t I = 0; I < P.Globals.size(); ++I) {
      if (E.K == Edit::Kind::DropGlobal && E.DeclIdx == I)
        continue;
      Out.Globals.push_back(
          {sym(P.Globals[I].Name), type(P.Globals[I].DeclType),
           P.Globals[I].Loc});
    }
    for (size_t I = 0; I < P.Funs.size(); ++I) {
      if (E.K == Edit::Kind::DropFun && E.DeclIdx == I)
        continue;
      const FunDef &F = P.Funs[I];
      FunDef G;
      G.Name = sym(F.Name);
      for (const auto &[PN, PT] : F.Params)
        G.Params.emplace_back(sym(PN), type(PT));
      G.ParamRestrict = F.ParamRestrict;
      G.ReturnType = type(F.ReturnType);
      G.Body = expr(F.Body);
      G.Loc = F.Loc;
      G.Index = static_cast<uint32_t>(Out.Funs.size());
      Out.Funs.push_back(std::move(G));
    }
    return Out;
  }

private:
  Symbol sym(Symbol S) { return Dst.intern(Src.text(S)); }

  const TypeExpr *type(const TypeExpr *T) {
    if (!T)
      return nullptr;
    switch (T->kind()) {
    case TypeExpr::Kind::Int:
      return Dst.intType();
    case TypeExpr::Kind::Lock:
      return Dst.lockType();
    case TypeExpr::Kind::Ptr:
      return Dst.ptrType(type(T->element()));
    case TypeExpr::Kind::Array:
      return Dst.arrayType(type(T->element()));
    case TypeExpr::Kind::Named:
      return Dst.namedType(sym(T->name()));
    }
    return nullptr;
  }

  const Expr *expr(const Expr *X) {
    if (X->id() == E.Node) {
      if (E.K == Edit::Kind::ReplaceWithZero)
        return Dst.intLit(X->loc(), 0);
      if (E.K == Edit::Kind::ReplaceWithChild) {
        std::vector<const Expr *> Cs = childrenOf(X);
        if (E.Arg < Cs.size())
          return expr(Cs[E.Arg]);
        // fall through to a plain clone on a stale selector
      }
    }
    switch (X->kind()) {
    case Expr::Kind::IntLit:
      return Dst.intLit(X->loc(), cast<IntLitExpr>(X)->value());
    case Expr::Kind::VarRef:
      return Dst.varRef(X->loc(), sym(cast<VarRefExpr>(X)->name()));
    case Expr::Kind::BinOp: {
      const auto *B = cast<BinOpExpr>(X);
      return Dst.binOp(X->loc(), B->op(), expr(B->lhs()), expr(B->rhs()));
    }
    case Expr::Kind::New:
      return Dst.newCell(X->loc(), expr(cast<NewExpr>(X)->init()));
    case Expr::Kind::NewArray:
      return Dst.newArray(X->loc(), expr(cast<NewArrayExpr>(X)->init()));
    case Expr::Kind::Deref:
      return Dst.deref(X->loc(), expr(cast<DerefExpr>(X)->pointer()));
    case Expr::Kind::Assign: {
      const auto *A = cast<AssignExpr>(X);
      return Dst.assign(X->loc(), expr(A->target()), expr(A->value()));
    }
    case Expr::Kind::Index: {
      const auto *I = cast<IndexExpr>(X);
      return Dst.index(X->loc(), expr(I->array()), expr(I->index()));
    }
    case Expr::Kind::FieldAddr: {
      const auto *F = cast<FieldAddrExpr>(X);
      return Dst.fieldAddr(X->loc(), expr(F->base()), sym(F->field()));
    }
    case Expr::Kind::Call: {
      const auto *C = cast<CallExpr>(X);
      std::vector<const Expr *> Args;
      for (const Expr *A : C->args())
        Args.push_back(expr(A));
      return Dst.call(X->loc(), sym(C->callee()), Args);
    }
    case Expr::Kind::Block: {
      const auto *B = cast<BlockExpr>(X);
      std::vector<const Expr *> Stmts;
      for (size_t I = 0; I < B->stmts().size(); ++I) {
        if (E.K == Edit::Kind::DropStmt && X->id() == E.Node && E.Arg == I)
          continue;
        Stmts.push_back(expr(B->stmts()[I]));
      }
      return Dst.block(X->loc(), Stmts);
    }
    case Expr::Kind::Bind: {
      const auto *B = cast<BindExpr>(X);
      return Dst.bind(X->loc(), B->bindKind(), sym(B->name()),
                      expr(B->init()), expr(B->body()));
    }
    case Expr::Kind::Confine: {
      const auto *C = cast<ConfineExpr>(X);
      return Dst.confine(X->loc(), expr(C->subject()), expr(C->body()));
    }
    case Expr::Kind::If: {
      const auto *I = cast<IfExpr>(X);
      return Dst.ifExpr(X->loc(), expr(I->cond()), expr(I->thenExpr()),
                        expr(I->elseExpr()));
    }
    case Expr::Kind::While: {
      const auto *W = cast<WhileExpr>(X);
      return Dst.whileExpr(X->loc(), expr(W->cond()), expr(W->body()));
    }
    case Expr::Kind::Cast: {
      const auto *C = cast<CastExpr>(X);
      return Dst.castExpr(X->loc(), type(C->targetType()),
                          expr(C->operand()));
    }
    }
    return Dst.intLit(X->loc(), 0);
  }

  const ASTContext &Src;
  ASTContext &Dst;
  const Edit &E;
};

void collectExprs(const Expr *E, std::vector<const Expr *> &Out) {
  Out.push_back(E);
  forEachChild(E, [&](const Expr *C) { collectExprs(C, Out); });
}

/// All shrink attempts for one program, cheapest-biggest first: whole
/// declarations, then statements, then hoists, then zero replacements.
std::vector<Edit> enumerateEdits(const Program &P) {
  std::vector<Edit> Edits;
  for (uint32_t I = 0; I < P.Funs.size(); ++I)
    Edits.push_back({Edit::Kind::DropFun, I, InvalidExprId, 0});
  for (uint32_t I = 0; I < P.Structs.size(); ++I)
    Edits.push_back({Edit::Kind::DropStruct, I, InvalidExprId, 0});
  for (uint32_t I = 0; I < P.Globals.size(); ++I)
    Edits.push_back({Edit::Kind::DropGlobal, I, InvalidExprId, 0});

  std::vector<const Expr *> Nodes;
  for (const FunDef &F : P.Funs)
    collectExprs(F.Body, Nodes);

  for (const Expr *N : Nodes)
    if (const auto *B = dyn_cast<BlockExpr>(N))
      if (B->stmts().size() > 1)
        for (uint32_t I = 0; I < B->stmts().size(); ++I)
          Edits.push_back({Edit::Kind::DropStmt, 0, N->id(), I});

  for (const Expr *N : Nodes) {
    // Hoist a same-role child over its parent. Type-changing hoists are
    // fine: the predicate rejects candidates that stop failing.
    auto Child = [&](uint32_t Arg) {
      Edits.push_back({Edit::Kind::ReplaceWithChild, 0, N->id(), Arg});
    };
    switch (N->kind()) {
    case Expr::Kind::Bind:
    case Expr::Kind::Confine:
    case Expr::Kind::While:
      Child(1); // body
      break;
    case Expr::Kind::If:
      Child(1); // then
      Child(2); // else
      break;
    case Expr::Kind::Cast:
      Child(0);
      break;
    case Expr::Kind::BinOp:
      Child(0);
      Child(1);
      break;
    case Expr::Kind::Assign:
      Child(1); // value
      break;
    case Expr::Kind::Block: {
      const auto *B = cast<BlockExpr>(N);
      if (!B->stmts().empty())
        Child(static_cast<uint32_t>(B->stmts().size()) - 1);
      break;
    }
    default:
      break;
    }
  }

  for (const Expr *N : Nodes)
    if (!isa<IntLitExpr>(N))
      Edits.push_back({Edit::Kind::ReplaceWithZero, 0, N->id(), 0});
  return Edits;
}

/// Tries deleting windows of source lines, largest windows first, and
/// adopts the first deletion under which the predicate still holds.
/// This pass works on the raw text, so it preserves the exact original
/// tokens -- which the AST pass cannot: its candidates are re-printed,
/// and a printer bug's trigger (say, missing parentheses) is normalized
/// away by the very printer being debugged.
bool textDeleteOnce(ReduceResult &RR,
                    const std::function<bool(std::string_view)> &StillFails,
                    const ReduceOptions &Opts) {
  std::vector<std::string_view> Lines;
  std::string_view Src = RR.Source;
  for (size_t At = 0; At < Src.size();) {
    size_t End = Src.find('\n', At);
    if (End == std::string_view::npos)
      End = Src.size() - 1;
    Lines.push_back(Src.substr(At, End - At + 1));
    At = End + 1;
  }
  if (Lines.size() < 2)
    return false;

  for (size_t Chunk : {size_t(16), size_t(8), size_t(4), size_t(2),
                       size_t(1)}) {
    if (Chunk >= Lines.size())
      continue;
    for (size_t Start = 0; Start + Chunk <= Lines.size(); ++Start) {
      if (RR.CandidatesTried >= Opts.MaxCandidates)
        return false;
      std::string Text;
      Text.reserve(Src.size());
      for (size_t I = 0; I < Lines.size(); ++I)
        if (I < Start || I >= Start + Chunk)
          Text += Lines[I];
      ++RR.CandidatesTried;
      if (StillFails(Text)) {
        RR.Source = std::move(Text);
        ++RR.StepsTaken;
        return true;
      }
    }
  }
  return false;
}

/// Tries the structural edits on the parsed program and adopts the first
/// one under which the predicate still holds on the re-printed text.
bool astEditOnce(ReduceResult &RR,
                 const std::function<bool(std::string_view)> &StillFails,
                 const ReduceOptions &Opts) {
  ASTContext Ctx;
  Diagnostics Diags;
  auto P = parse(RR.Source, Ctx, Diags);
  if (!P)
    return false;

  for (const Edit &E : enumerateEdits(*P)) {
    if (RR.CandidatesTried >= Opts.MaxCandidates)
      return false;
    ASTContext Ctx2;
    Program Candidate = Cloner(Ctx, Ctx2, E).run(*P);
    std::string Text = AstPrinter(Ctx2).print(Candidate);
    ++RR.CandidatesTried;
    if (Text != RR.Source && StillFails(Text)) {
      RR.Source = std::move(Text);
      ++RR.StepsTaken;
      return true;
    }
  }
  return false;
}

} // namespace

ReduceResult
lna::reduceProgram(std::string_view Source,
                   const std::function<bool(std::string_view)> &StillFails,
                   const ReduceOptions &Opts) {
  ReduceResult RR;
  RR.Source = std::string(Source);
  if (!StillFails(RR.Source))
    return RR;

  while (RR.CandidatesTried < Opts.MaxCandidates) {
    if (textDeleteOnce(RR, StillFails, Opts))
      continue;
    if (astEditOnce(RR, StillFails, Opts))
      continue;
    break;
  }
  return RR;
}
