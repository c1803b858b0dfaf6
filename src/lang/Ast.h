//===- Ast.h - Abstract syntax for the lna language -----------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract syntax of the small imperative language of Section 3 of
/// the paper, extended with the features the paper treats as standard or
/// uses in its evaluation: functions and calls, statement sequencing
/// (blocks), arrays, structs with field access, conditionals and loops,
/// casts, and the `confine` construct of Section 6.
///
/// Conventions:
///  * Variables are immutable bindings (as in the paper); all mutable
///    state lives in heap cells created by `new`, global declarations, or
///    array allocations. `e1 := e2` stores through a pointer.
///  * L-value-forming expressions (`a[i]`, `p->f`) evaluate to *pointers*
///    to the selected cell; `*e` loads. This mirrors the paper's typing of
///    assignment (`e1 : ref rho(t)`) exactly.
///
/// Nodes are arena-allocated and immutable after parsing; analyses attach
/// results in side tables indexed by the dense per-node ids assigned at
/// creation time. Variable-length child lists (call arguments, block
/// statements) are arena arrays too, so every node is trivially
/// destructible and a context frees its whole AST by dropping its slabs.
///
//===----------------------------------------------------------------------===//

#ifndef LNA_LANG_AST_H
#define LNA_LANG_AST_H

#include "support/Arena.h"
#include "support/SourceLoc.h"
#include "support/StringInterner.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

namespace lna {

class Expr;
class ASTContext;

/// Dense ids for AST nodes; side tables are vectors indexed by these.
using ExprId = uint32_t;
constexpr ExprId InvalidExprId = ~0u;

/// An immutable list of child expressions stored in the AST arena.
using ExprList = std::span<const Expr *const>;

//===----------------------------------------------------------------------===//
// Syntactic types (as written in declarations)
//===----------------------------------------------------------------------===//

/// A type as written in the source. The standard type checker elaborates
/// these into semantic types with abstract locations (src/alias).
class TypeExpr {
public:
  enum class Kind : uint8_t {
    Int,   ///< `int`
    Lock,  ///< `lock` (the base type refined by locked/unlocked in §7)
    Ptr,   ///< `ptr T`
    Array, ///< `array T` (all elements share one abstract location, §1)
    Named, ///< `StructName`
  };

  Kind kind() const { return K; }
  /// Element type for Ptr/Array.
  const TypeExpr *element() const {
    assert((K == Kind::Ptr || K == Kind::Array) && "no element type");
    return Elem;
  }
  /// Struct name for Named.
  Symbol name() const {
    assert(K == Kind::Named && "not a named type");
    return Name;
  }

private:
  friend class ASTContext;
  TypeExpr(Kind K, const TypeExpr *Elem, Symbol Name)
      : K(K), Elem(Elem), Name(Name) {}

  Kind K;
  const TypeExpr *Elem = nullptr;
  Symbol Name;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Base class of all expressions. LLVM-style kind discrimination; no
/// virtual functions.
class Expr {
public:
  enum class Kind : uint8_t {
    IntLit,
    VarRef,
    BinOp,
    New,
    NewArray,
    Deref,
    Assign,
    Index,
    FieldAddr,
    Call,
    Block,
    Bind,    ///< let / restrict
    Confine, ///< confine e1 in e2
    If,
    While,
    Cast,
  };

  Kind kind() const { return K; }
  ExprId id() const { return Id; }
  SourceLoc loc() const { return Loc; }

protected:
  Expr(Kind K, ExprId Id, SourceLoc Loc) : K(K), Id(Id), Loc(Loc) {}

private:
  Kind K;
  ExprId Id;
  SourceLoc Loc;
};

/// An integer literal.
class IntLitExpr : public Expr {
public:
  int64_t value() const { return Value; }

  static bool classof(const Expr *E) { return E->kind() == Kind::IntLit; }

private:
  friend class ASTContext;
  IntLitExpr(ExprId Id, SourceLoc Loc, int64_t Value)
      : Expr(Kind::IntLit, Id, Loc), Value(Value) {}
  int64_t Value;
};

/// A reference to a bound variable (parameter, let/restrict binding, or
/// global). Reading a binding has no effect (paper rule (Var)).
class VarRefExpr : public Expr {
public:
  Symbol name() const { return Name; }

  static bool classof(const Expr *E) { return E->kind() == Kind::VarRef; }

private:
  friend class ASTContext;
  VarRefExpr(ExprId Id, SourceLoc Loc, Symbol Name)
      : Expr(Kind::VarRef, Id, Loc), Name(Name) {}
  Symbol Name;
};

/// Binary operator over ints.
class BinOpExpr : public Expr {
public:
  enum class Op : uint8_t { Add, Sub, Mul, Eq, Ne, Lt, Gt };

  Op op() const { return O; }
  const Expr *lhs() const { return Lhs; }
  const Expr *rhs() const { return Rhs; }

  static bool classof(const Expr *E) { return E->kind() == Kind::BinOp; }

private:
  friend class ASTContext;
  BinOpExpr(ExprId Id, SourceLoc Loc, Op O, const Expr *Lhs, const Expr *Rhs)
      : Expr(Kind::BinOp, Id, Loc), O(O), Lhs(Lhs), Rhs(Rhs) {}
  Op O;
  const Expr *Lhs;
  const Expr *Rhs;
};

/// `new e`: allocate a fresh cell initialized to e; yields a pointer.
class NewExpr : public Expr {
public:
  const Expr *init() const { return Init; }

  static bool classof(const Expr *E) { return E->kind() == Kind::New; }

private:
  friend class ASTContext;
  NewExpr(ExprId Id, SourceLoc Loc, const Expr *Init)
      : Expr(Kind::New, Id, Loc), Init(Init) {}
  const Expr *Init;
};

/// `newarray e`: allocate an array whose elements are initialized to e;
/// yields an array pointer. All elements share one abstract location, so
/// the element location is never linear (no strong updates without
/// restrict/confine -- the motivating example of Section 1).
class NewArrayExpr : public Expr {
public:
  const Expr *init() const { return Init; }

  static bool classof(const Expr *E) { return E->kind() == Kind::NewArray; }

private:
  friend class ASTContext;
  NewArrayExpr(ExprId Id, SourceLoc Loc, const Expr *Init)
      : Expr(Kind::NewArray, Id, Loc), Init(Init) {}
  const Expr *Init;
};

/// `*e`: load through a pointer. Read effect on the pointee location.
class DerefExpr : public Expr {
public:
  const Expr *pointer() const { return Pointer; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Deref; }

private:
  friend class ASTContext;
  DerefExpr(ExprId Id, SourceLoc Loc, const Expr *Pointer)
      : Expr(Kind::Deref, Id, Loc), Pointer(Pointer) {}
  const Expr *Pointer;
};

/// `e1 := e2`: store e2 into the cell e1 points to. Write effect.
class AssignExpr : public Expr {
public:
  const Expr *target() const { return Target; }
  const Expr *value() const { return Value; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Assign; }

private:
  friend class ASTContext;
  AssignExpr(ExprId Id, SourceLoc Loc, const Expr *Target, const Expr *Value)
      : Expr(Kind::Assign, Id, Loc), Target(Target), Value(Value) {}
  const Expr *Target;
  const Expr *Value;
};

/// `a[i]`: pointer to an array element (C's `&a[i]`). Pure address
/// arithmetic: no memory access.
class IndexExpr : public Expr {
public:
  const Expr *array() const { return Array; }
  const Expr *index() const { return Idx; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Index; }

private:
  friend class ASTContext;
  IndexExpr(ExprId Id, SourceLoc Loc, const Expr *Array, const Expr *Idx)
      : Expr(Kind::Index, Id, Loc), Array(Array), Idx(Idx) {}
  const Expr *Array;
  const Expr *Idx;
};

/// `p->f`: pointer to field f of the struct p points to (C's `&p->f`).
/// Pure address arithmetic: no memory access.
class FieldAddrExpr : public Expr {
public:
  const Expr *base() const { return Base; }
  Symbol field() const { return Field; }

  static bool classof(const Expr *E) { return E->kind() == Kind::FieldAddr; }

private:
  friend class ASTContext;
  FieldAddrExpr(ExprId Id, SourceLoc Loc, const Expr *Base, Symbol Field)
      : Expr(Kind::FieldAddr, Id, Loc), Base(Base), Field(Field) {}
  const Expr *Base;
  Symbol Field;
};

/// A call `f(e1, ..., en)`. Functions are top-level and called by name
/// (no function pointers). Builtins `spin_lock`, `spin_unlock`, `work`,
/// and `nondet` use the same node.
class CallExpr : public Expr {
public:
  Symbol callee() const { return Callee; }
  ExprList args() const { return Args; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Call; }

private:
  friend class ASTContext;
  CallExpr(ExprId Id, SourceLoc Loc, Symbol Callee, ExprList Args)
      : Expr(Kind::Call, Id, Loc), Callee(Callee), Args(Args) {}
  Symbol Callee;
  ExprList Args;
};

/// `{ e1; ...; en }`: statement sequencing; the block's value is the last
/// expression's. The confine block heuristic of Section 7 operates on
/// these nodes.
class BlockExpr : public Expr {
public:
  ExprList stmts() const { return Stmts; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Block; }

private:
  friend class ASTContext;
  BlockExpr(ExprId Id, SourceLoc Loc, ExprList Stmts)
      : Expr(Kind::Block, Id, Loc), Stmts(Stmts) {}
  ExprList Stmts;
};

/// `let x = e1 in e2` or `restrict x = e1 in e2`. Restrict inference
/// (Section 5) decides, for bindings written as `let`, whether they may
/// soundly be `restrict`; that decision lives in the inference result, not
/// in the AST.
class BindExpr : public Expr {
public:
  enum class BindKind : uint8_t { Let, Restrict };

  BindKind bindKind() const { return BK; }
  bool isRestrict() const { return BK == BindKind::Restrict; }
  Symbol name() const { return Name; }
  const Expr *init() const { return Init; }
  const Expr *body() const { return Body; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Bind; }

private:
  friend class ASTContext;
  BindExpr(ExprId Id, SourceLoc Loc, BindKind BK, Symbol Name,
           const Expr *Init, const Expr *Body)
      : Expr(Kind::Bind, Id, Loc), BK(BK), Name(Name), Init(Init),
        Body(Body) {}
  BindKind BK;
  Symbol Name;
  const Expr *Init;
  const Expr *Body;
};

/// `confine e1 in e2` (Section 6): the aliases of the location e1 points
/// to are restricted within e2, with e1 itself serving as the name.
/// Defined by translation to restrict on a fresh variable; our analyses
/// implement the translation implicitly (no program rewriting), as the
/// paper notes an efficient implementation should.
class ConfineExpr : public Expr {
public:
  const Expr *subject() const { return Subject; }
  const Expr *body() const { return Body; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Confine; }

private:
  friend class ASTContext;
  ConfineExpr(ExprId Id, SourceLoc Loc, const Expr *Subject, const Expr *Body)
      : Expr(Kind::Confine, Id, Loc), Subject(Subject), Body(Body) {}
  const Expr *Subject;
  const Expr *Body;
};

/// `if e then e1 else e2`.
class IfExpr : public Expr {
public:
  const Expr *cond() const { return Cond; }
  const Expr *thenExpr() const { return Then; }
  const Expr *elseExpr() const { return Else; }

  static bool classof(const Expr *E) { return E->kind() == Kind::If; }

private:
  friend class ASTContext;
  IfExpr(ExprId Id, SourceLoc Loc, const Expr *Cond, const Expr *Then,
         const Expr *Else)
      : Expr(Kind::If, Id, Loc), Cond(Cond), Then(Then), Else(Else) {}
  const Expr *Cond;
  const Expr *Then;
  const Expr *Else;
};

/// `while e do e1`. Value is int 0.
class WhileExpr : public Expr {
public:
  const Expr *cond() const { return Cond; }
  const Expr *body() const { return Body; }

  static bool classof(const Expr *E) { return E->kind() == Kind::While; }

private:
  friend class ASTContext;
  WhileExpr(ExprId Id, SourceLoc Loc, const Expr *Cond, const Expr *Body)
      : Expr(Kind::While, Id, Loc), Cond(Cond), Body(Body) {}
  const Expr *Cond;
  const Expr *Body;
};

/// `cast<T>(e)`: reinterpret e at type T. Casts defeat the precision of
/// the unification-based may-alias analysis (Section 7 reports them as a
/// cause of confine-inference failure); the alias substrate marks the
/// locations flowing through mismatched casts as untrackable.
class CastExpr : public Expr {
public:
  const TypeExpr *targetType() const { return Target; }
  const Expr *operand() const { return Operand; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Cast; }

private:
  friend class ASTContext;
  CastExpr(ExprId Id, SourceLoc Loc, const TypeExpr *Target,
           const Expr *Operand)
      : Expr(Kind::Cast, Id, Loc), Target(Target), Operand(Operand) {}
  const TypeExpr *Target;
  const Expr *Operand;
};

//===----------------------------------------------------------------------===//
// Casting helpers (hand-rolled LLVM-style RTTI)
//===----------------------------------------------------------------------===//

template <typename T> bool isa(const Expr *E) { return T::classof(E); }

template <typename T> const T *cast(const Expr *E) {
  assert(isa<T>(E) && "cast to wrong expression kind");
  return static_cast<const T *>(E);
}

template <typename T> const T *dyn_cast(const Expr *E) {
  return isa<T>(E) ? static_cast<const T *>(E) : nullptr;
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// A struct definition.
struct StructDef {
  Symbol Name;
  std::vector<std::pair<Symbol, const TypeExpr *>> Fields;
  SourceLoc Loc;
};

/// A global declaration `var g : T;`. The name is bound to a pointer to a
/// fresh global cell of type T (C's `&g`); for `array T`, to an array
/// whose elements share one location.
struct GlobalDecl {
  Symbol Name;
  const TypeExpr *DeclType;
  SourceLoc Loc;
};

/// A function definition. Bodies are expressions; the `restrict`
/// qualifier on a parameter corresponds to wrapping the body in
/// `restrict p = p in ...` (C99-style parameter restrict).
struct FunDef {
  Symbol Name;
  std::vector<std::pair<Symbol, const TypeExpr *>> Params;
  std::vector<bool> ParamRestrict; ///< parallel to Params
  const TypeExpr *ReturnType;
  const Expr *Body;
  SourceLoc Loc;
  uint32_t Index = 0; ///< position within Program::Funs
};

/// A whole translation unit ("module" in the paper's Section 7 sense).
struct Program {
  std::vector<StructDef> Structs;
  std::vector<GlobalDecl> Globals;
  std::vector<FunDef> Funs;

  const FunDef *findFun(Symbol Name) const {
    for (const FunDef &F : Funs)
      if (F.Name == Name)
        return &F;
    return nullptr;
  }
  const StructDef *findStruct(Symbol Name) const {
    for (const StructDef &S : Structs)
      if (S.Name == Name)
        return &S;
    return nullptr;
  }
};

//===----------------------------------------------------------------------===//
// ASTContext
//===----------------------------------------------------------------------===//

/// Owns the arena, the interner, and the id space for one program's AST.
class ASTContext {
public:
  ASTContext() = default;
  ASTContext(const ASTContext &) = delete;
  ASTContext &operator=(const ASTContext &) = delete;

  StringInterner &interner() { return Interner; }
  const StringInterner &interner() const { return Interner; }

  /// Arms the node arena's byte cap (resource governance; see
  /// support/Budget.h). Nodes, types and child lists all count. 0 =
  /// unlimited.
  void setMemoryLimit(size_t Bytes) { Mem.setByteLimit(Bytes); }
  /// Bytes the node arena has handed out so far.
  size_t memoryUsed() const { return Mem.bytesAllocated(); }

  /// Sizes the node table and the interner for parsing \p SourceBytes of
  /// source, so neither regrows mid-parse.
  void reserveForSource(size_t SourceBytes) {
    Exprs.reserve(Exprs.size() + SourceBytes / BytesPerNode);
    Interner.reserve(SourceBytes / BytesPerSymbol);
  }

  Symbol intern(std::string_view S) { return Interner.intern(S); }
  const std::string &text(Symbol S) const { return Interner.text(S); }

  /// Number of expression nodes created so far; side tables size to this.
  uint32_t numExprs() const { return static_cast<uint32_t>(Exprs.size()); }

  /// Id -> node lookup.
  const Expr *expr(ExprId Id) const {
    assert(Id < Exprs.size() && "bad expr id");
    return Exprs[Id];
  }

  // Node factories.
  const IntLitExpr *intLit(SourceLoc Loc, int64_t V) {
    return make<IntLitExpr>(Loc, V);
  }
  const VarRefExpr *varRef(SourceLoc Loc, Symbol Name) {
    return make<VarRefExpr>(Loc, Name);
  }
  const BinOpExpr *binOp(SourceLoc Loc, BinOpExpr::Op O, const Expr *L,
                         const Expr *R) {
    return make<BinOpExpr>(Loc, O, L, R);
  }
  const NewExpr *newCell(SourceLoc Loc, const Expr *Init) {
    return make<NewExpr>(Loc, Init);
  }
  const NewArrayExpr *newArray(SourceLoc Loc, const Expr *Init) {
    return make<NewArrayExpr>(Loc, Init);
  }
  const DerefExpr *deref(SourceLoc Loc, const Expr *P) {
    return make<DerefExpr>(Loc, P);
  }
  const AssignExpr *assign(SourceLoc Loc, const Expr *T, const Expr *V) {
    return make<AssignExpr>(Loc, T, V);
  }
  const IndexExpr *index(SourceLoc Loc, const Expr *A, const Expr *I) {
    return make<IndexExpr>(Loc, A, I);
  }
  const FieldAddrExpr *fieldAddr(SourceLoc Loc, const Expr *B, Symbol F) {
    return make<FieldAddrExpr>(Loc, B, F);
  }
  /// Call and block factories copy \p Args / \p Stmts into the arena;
  /// the caller's storage may be reused once they return.
  const CallExpr *call(SourceLoc Loc, Symbol Callee, ExprList Args) {
    return make<CallExpr>(Loc, Callee, copyList(Args));
  }
  const BlockExpr *block(SourceLoc Loc, ExprList Stmts) {
    return make<BlockExpr>(Loc, copyList(Stmts));
  }
  const BindExpr *bind(SourceLoc Loc, BindExpr::BindKind BK, Symbol Name,
                       const Expr *Init, const Expr *Body) {
    return make<BindExpr>(Loc, BK, Name, Init, Body);
  }
  const ConfineExpr *confine(SourceLoc Loc, const Expr *Subject,
                             const Expr *Body) {
    return make<ConfineExpr>(Loc, Subject, Body);
  }
  const IfExpr *ifExpr(SourceLoc Loc, const Expr *C, const Expr *T,
                       const Expr *E) {
    return make<IfExpr>(Loc, C, T, E);
  }
  const WhileExpr *whileExpr(SourceLoc Loc, const Expr *C, const Expr *B) {
    return make<WhileExpr>(Loc, C, B);
  }
  const CastExpr *castExpr(SourceLoc Loc, const TypeExpr *T, const Expr *Op) {
    return make<CastExpr>(Loc, T, Op);
  }

  // Type-expression factories (hash-consing is unnecessary at our sizes).
  const TypeExpr *intType() { return typeExpr(TypeExpr::Kind::Int); }
  const TypeExpr *lockType() { return typeExpr(TypeExpr::Kind::Lock); }
  const TypeExpr *ptrType(const TypeExpr *Elem) {
    return typeExpr(TypeExpr::Kind::Ptr, Elem);
  }
  const TypeExpr *arrayType(const TypeExpr *Elem) {
    return typeExpr(TypeExpr::Kind::Array, Elem);
  }
  const TypeExpr *namedType(Symbol Name) {
    return typeExpr(TypeExpr::Kind::Named, nullptr, Name);
  }

private:
  /// Source bytes per expression node and per distinct symbol. Generated
  /// modules run 7.5-18 bytes per node and 16-71 per symbol (42 on
  /// average), so the node table never regrows during a parse and the
  /// interner rarely does.
  static constexpr size_t BytesPerNode = 7;
  static constexpr size_t BytesPerSymbol = 32;

  template <typename T, typename... Args>
  const T *make(SourceLoc Loc, Args &&...As) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the arena never runs node destructors");
    // Every node creation (parse, inlining, confine placement) charges
    // the session's AST-node budget; a runaway rewrite aborts instead of
    // exhausting memory.
    budgetAstNode();
    ExprId Id = static_cast<ExprId>(Exprs.size());
    T *Node = new (Mem.allocate(sizeof(T), alignof(T)))
        T(Id, Loc, std::forward<Args>(As)...);
    Exprs.push_back(Node);
    return Node;
  }

  ExprList copyList(ExprList L) {
    if (L.empty())
      return {};
    auto *Copy = static_cast<const Expr **>(
        Mem.allocate(L.size_bytes(), alignof(const Expr *)));
    std::copy(L.begin(), L.end(), Copy);
    return {Copy, L.size()};
  }

  const TypeExpr *typeExpr(TypeExpr::Kind K, const TypeExpr *Elem = nullptr,
                           Symbol Name = Symbol()) {
    static_assert(std::is_trivially_destructible_v<TypeExpr>,
                  "the arena never runs node destructors");
    return new (Mem.allocate(sizeof(TypeExpr), alignof(TypeExpr)))
        TypeExpr(K, Elem, Name);
  }

  Arena Mem;
  StringInterner Interner;
  std::vector<const Expr *> Exprs;
};

/// Maximum expression/type nesting depth accepted by the parser and
/// honored by the recursive AST walkers (printer, structural equality).
/// Deeper inputs are a stack-overflow hazard, not a program; the parser
/// reports them as a diagnostic instead of crashing.
inline constexpr unsigned MaxAstDepth = 256;

/// Invokes \p Fn on each direct child expression of \p E.
template <typename Fn> void forEachChild(const Expr *E, Fn &&F) {
  switch (E->kind()) {
  case Expr::Kind::IntLit:
  case Expr::Kind::VarRef:
    break;
  case Expr::Kind::BinOp:
    F(cast<BinOpExpr>(E)->lhs());
    F(cast<BinOpExpr>(E)->rhs());
    break;
  case Expr::Kind::New:
    F(cast<NewExpr>(E)->init());
    break;
  case Expr::Kind::NewArray:
    F(cast<NewArrayExpr>(E)->init());
    break;
  case Expr::Kind::Deref:
    F(cast<DerefExpr>(E)->pointer());
    break;
  case Expr::Kind::Assign:
    F(cast<AssignExpr>(E)->target());
    F(cast<AssignExpr>(E)->value());
    break;
  case Expr::Kind::Index:
    F(cast<IndexExpr>(E)->array());
    F(cast<IndexExpr>(E)->index());
    break;
  case Expr::Kind::FieldAddr:
    F(cast<FieldAddrExpr>(E)->base());
    break;
  case Expr::Kind::Call:
    for (const Expr *A : cast<CallExpr>(E)->args())
      F(A);
    break;
  case Expr::Kind::Block:
    for (const Expr *S : cast<BlockExpr>(E)->stmts())
      F(S);
    break;
  case Expr::Kind::Bind:
    F(cast<BindExpr>(E)->init());
    F(cast<BindExpr>(E)->body());
    break;
  case Expr::Kind::Confine:
    F(cast<ConfineExpr>(E)->subject());
    F(cast<ConfineExpr>(E)->body());
    break;
  case Expr::Kind::If:
    F(cast<IfExpr>(E)->cond());
    F(cast<IfExpr>(E)->thenExpr());
    F(cast<IfExpr>(E)->elseExpr());
    break;
  case Expr::Kind::While:
    F(cast<WhileExpr>(E)->cond());
    F(cast<WhileExpr>(E)->body());
    break;
  case Expr::Kind::Cast:
    F(cast<CastExpr>(E)->operand());
    break;
  }
}

} // namespace lna

#endif // LNA_LANG_AST_H
