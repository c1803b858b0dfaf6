//===- Corpus.cpp - Synthetic device-driver corpus ------------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"

#include "support/FileIO.h"
#include "support/Rng.h"

#include <cassert>

using namespace lna;

const char *lna::moduleCategoryName(ModuleCategory C) {
  switch (C) {
  case ModuleCategory::Clean:
    return "clean";
  case ModuleCategory::Buggy:
    return "buggy";
  case ModuleCategory::Recoverable:
    return "recoverable";
  case ModuleCategory::Hard:
    return "hard";
  case ModuleCategory::External:
    return "external";
  }
  return "?";
}

ModuleSpec lna::loadModuleFile(const std::string &Path) {
  ModuleSpec Spec;
  Spec.Name = Path;
  Spec.Category = ModuleCategory::External;
  if (readWholeFile(Path, Spec.Source) != 0)
    Spec.LoadError = "cannot open module file";
  else if (Spec.Source.empty())
    Spec.LoadError = "empty module file";
  return Spec;
}

namespace {

/// Accumulates the declarations and functions of one module and its
/// analytically-known expected error counts.
class ModuleBuilder {
public:
  std::string fresh(const char *Prefix) {
    return std::string(Prefix) + std::to_string(NextId++);
  }

  /// Declares a fresh singleton global lock; returns its name.
  std::string addGlobalLock() {
    std::string Name = fresh("g_lock");
    Globals += "var " + Name + " : lock;\n";
    return Name;
  }

  /// Declares a fresh global array of locks; returns its name.
  std::string addLockArray() {
    std::string Name = fresh("locks");
    Globals += "var " + Name + " : array lock;\n";
    return Name;
  }

  /// Declares a fresh device struct type with a lock field and a global
  /// array of devices; returns the array name (fields: lck, regs).
  std::string addDeviceArray() {
    std::string StructName = fresh("Dev");
    std::string ArrName = fresh("devs");
    Structs += "struct " + StructName + " { lck : lock; regs : int; }\n";
    Globals += "var " + ArrName + " : array " + StructName + ";\n";
    return ArrName;
  }

  /// Declares a fresh singleton global device struct; returns its name.
  std::string addDeviceSingleton() {
    std::string StructName = fresh("Card");
    std::string Name = fresh("card");
    Structs += "struct " + StructName + " { lck : lock; state : int; }\n";
    Globals += "var " + Name + " : " + StructName + ";\n";
    return Name;
  }

  /// Declares a fresh global cell holding a lock pointer (for escape
  /// patterns); returns its name.
  std::string addLockPtrGlobal() {
    std::string Name = fresh("saved");
    Globals += "var " + Name + " : ptr lock;\n";
    return Name;
  }

  /// Declares a fresh global cell holding an int pointer (for cast
  /// patterns); returns its name.
  std::string addIntPtrGlobal() {
    std::string Name = fresh("raw");
    Globals += "var " + Name + " : ptr int;\n";
    return Name;
  }

  void addFun(const std::string &Text) { Funs += Text; }

  /// A fresh entry-point name (never called within the module, so the
  /// lock analysis treats it as a root).
  std::string freshEntry() { return fresh("entry_"); }
  std::string freshHelper() { return fresh("helper_"); }

  void expect(uint32_t NoConf, uint32_t Conf, uint32_t Strong) {
    Expected.NoConfine += NoConf;
    Expected.ConfineInference += Conf;
    Expected.AllStrong += Strong;
  }

  ModeCounts expected() const { return Expected; }

  std::string build() const { return Structs + Globals + Funs; }

private:
  std::string Structs;
  std::string Globals;
  std::string Funs;
  ModeCounts Expected;
  uint32_t NextId = 0;
};

//===----------------------------------------------------------------------===//
// Clean patterns: no errors in any mode.
//===----------------------------------------------------------------------===//

void emitCleanGlobalPair(ModuleBuilder &B) {
  std::string G = B.addGlobalLock();
  B.addFun("fun " + B.freshEntry() + "() : int {\n"
           "  spin_lock(" + G + ");\n  work();\n  spin_unlock(" + G + ")\n"
           "}\n");
  B.expect(0, 0, 0);
}

void emitCleanStructField(ModuleBuilder &B) {
  std::string D = B.addDeviceSingleton();
  B.addFun("fun " + B.freshEntry() + "() : int {\n"
           "  spin_lock(" + D + "->lck);\n  work();\n"
           "  spin_unlock(" + D + "->lck)\n}\n");
  B.expect(0, 0, 0);
}

void emitCleanBalancedIf(ModuleBuilder &B) {
  std::string G = B.addGlobalLock();
  B.addFun("fun " + B.freshEntry() + "() : int {\n"
           "  if nondet() then {\n"
           "    spin_lock(" + G + ");\n    work();\n"
           "    spin_unlock(" + G + ")\n"
           "  } else { work() }\n}\n");
  B.expect(0, 0, 0);
}

void emitCleanHelper(ModuleBuilder &B) {
  std::string G = B.addGlobalLock();
  std::string H = B.freshHelper();
  B.addFun("fun " + H + "(l : ptr lock) : int {\n"
           "  spin_lock(l);\n  work();\n  spin_unlock(l)\n}\n");
  B.addFun("fun " + B.freshEntry() + "() : int { " + H + "(" + G + ") }\n");
  B.expect(0, 0, 0);
}

void emitCleanLoop(ModuleBuilder &B) {
  std::string G = B.addGlobalLock();
  B.addFun("fun " + B.freshEntry() + "() : int {\n"
           "  while nondet() do {\n"
           "    spin_lock(" + G + ");\n    work();\n"
           "    spin_unlock(" + G + ")\n  }\n}\n");
  B.expect(0, 0, 0);
}

// A recursive helper allocating a temporary; the binding inside is
// restrict-inferable *only because* (Down) removes the temporary's effect
// at the function boundary (the Section 3.1 motivation). Lock-neutral.
void emitCleanRecursiveHelper(ModuleBuilder &B) {
  std::string H = B.freshHelper();
  B.addFun("fun " + H + "(n : int) : int {\n"
           "  let t = new n in {\n"
           "    *t;\n"
           "    if n == 0 then 0 else " + H + "(n - 1)\n  }\n}\n");
  B.addFun("fun " + B.freshEntry() + "() : int { " + H + "(4) }\n");
  B.expect(0, 0, 0);
}

void emitCleanPattern(ModuleBuilder &B, Rng &R) {
  switch (R.below(6)) {
  case 0:
    emitCleanGlobalPair(B);
    break;
  case 1:
    emitCleanStructField(B);
    break;
  case 2:
    emitCleanBalancedIf(B);
    break;
  case 3:
    emitCleanHelper(B);
    break;
  case 4:
    emitCleanRecursiveHelper(B);
    break;
  default:
    emitCleanLoop(B);
    break;
  }
}

//===----------------------------------------------------------------------===//
// Buggy patterns: genuine errors, identical in every mode (1,1,1) each.
//===----------------------------------------------------------------------===//

void emitBugDoubleAcquire(ModuleBuilder &B) {
  std::string G = B.addGlobalLock();
  B.addFun("fun " + B.freshEntry() + "() : int {\n"
           "  spin_lock(" + G + ");\n  spin_lock(" + G + ");\n"
           "  spin_unlock(" + G + ")\n}\n");
  B.expect(1, 1, 1);
}

void emitBugUnlockFirst(ModuleBuilder &B) {
  std::string G = B.addGlobalLock();
  B.addFun("fun " + B.freshEntry() + "() : int {\n"
           "  spin_unlock(" + G + ");\n  work()\n}\n");
  B.expect(1, 1, 1);
}

void emitBugConditionalImbalance(ModuleBuilder &B) {
  std::string G = B.addGlobalLock();
  B.addFun("fun " + B.freshEntry() + "() : int {\n"
           "  if nondet() then { spin_lock(" + G + ") } else { work() };\n"
           "  spin_unlock(" + G + ")\n}\n");
  B.expect(1, 1, 1);
}

void emitBugRelockWithoutRelease(ModuleBuilder &B) {
  std::string G = B.addGlobalLock();
  B.addFun("fun " + B.freshEntry() + "() : int {\n"
           "  spin_lock(" + G + ");\n  work();\n  spin_lock(" + G + ")\n"
           "}\n");
  B.expect(1, 1, 1);
}

void emitBugPattern(ModuleBuilder &B, Rng &R) {
  switch (R.below(4)) {
  case 0:
    emitBugDoubleAcquire(B);
    break;
  case 1:
    emitBugUnlockFirst(B);
    break;
  case 2:
    emitBugConditionalImbalance(B);
    break;
  default:
    emitBugRelockWithoutRelease(B);
    break;
  }
}

//===----------------------------------------------------------------------===//
// Recoverable patterns: weak-update errors fully eliminated by confine
// inference. Each emitter returns its no-confine error contribution.
//===----------------------------------------------------------------------===//

// One lock/unlock pair on an array element: the unlock cannot be verified
// under weak updates. (1, 0, 0)
uint32_t emitRecArrayPair(ModuleBuilder &B) {
  std::string A = B.addLockArray();
  B.addFun("fun " + B.freshEntry() + "(i : int) : int {\n"
           "  spin_lock(" + A + "[i]);\n  work();\n"
           "  spin_unlock(" + A + "[i])\n}\n");
  B.expect(1, 0, 0);
  return 1;
}

// K consecutive pairs in one entry: after the first weak update the state
// is top, so every later site errors too. (2K-1, 0, 0)
uint32_t emitRecArrayPairsK(ModuleBuilder &B, uint32_t K) {
  std::string A = B.addLockArray();
  std::string Body;
  for (uint32_t I = 0; I < K; ++I)
    Body += "  spin_lock(" + A + "[i]);\n  work();\n  spin_unlock(" + A +
            "[i]);\n";
  B.addFun("fun " + B.freshEntry() + "(i : int) : int {\n" + Body + "  0\n}\n");
  B.expect(2 * K - 1, 0, 0);
  return 2 * K - 1;
}

// A lock field in an array of device structs. (1, 0, 0)
uint32_t emitRecStructArrayPair(ModuleBuilder &B) {
  std::string D = B.addDeviceArray();
  B.addFun("fun " + B.freshEntry() + "(i : int) : int {\n"
           "  spin_lock(" + D + "[i]->lck);\n  work();\n"
           "  spin_unlock(" + D + "[i]->lck)\n}\n");
  B.expect(1, 0, 0);
  return 1;
}

// The Figure 1 shape: a helper takes the lock pointer; called from two
// entries with elements of two different arrays, so the parameter's
// pointee location is nonlinear. Both entries fail at the *same*
// syntactic unlock site inside the helper, and errors are counted per
// syntactic site (the paper's measure), so this contributes one error.
// Confine inside the helper recovers it. (1, 0, 0)
uint32_t emitRecHelperTwoArrays(ModuleBuilder &B) {
  std::string A1 = B.addLockArray();
  std::string A2 = B.addLockArray();
  std::string H = B.freshHelper();
  B.addFun("fun " + H + "(l : ptr lock) : int {\n"
           "  spin_lock(l);\n  work();\n  spin_unlock(l)\n}\n");
  B.addFun("fun " + B.freshEntry() + "(i : int) : int { " + H + "(" + A1 +
           "[i]) }\n");
  B.addFun("fun " + B.freshEntry() + "(j : int) : int { " + H + "(" + A2 +
           "[j]) }\n");
  B.expect(1, 0, 0);
  return 1;
}

// A pair inside a loop: the weak fixpoint reaches top, erroring at both
// sites; the confined loop body stays strong. (2, 0, 0)
uint32_t emitRecLoopPair(ModuleBuilder &B) {
  std::string A = B.addLockArray();
  B.addFun("fun " + B.freshEntry() + "(i : int) : int {\n"
           "  while nondet() do {\n"
           "    spin_lock(" + A + "[i]);\n    work();\n"
           "    spin_unlock(" + A + "[i])\n  }\n}\n");
  B.expect(2, 0, 0);
  return 2;
}

// Nested pairs on two different arrays; the two confine scopes nest.
// (2, 0, 0)
uint32_t emitRecNestedPairs(ModuleBuilder &B) {
  std::string A1 = B.addLockArray();
  std::string A2 = B.addLockArray();
  B.addFun("fun " + B.freshEntry() + "(i : int, j : int) : int {\n"
           "  spin_lock(" + A1 + "[i]);\n"
           "  spin_lock(" + A2 + "[j]);\n  work();\n"
           "  spin_unlock(" + A2 + "[j]);\n"
           "  spin_unlock(" + A1 + "[i])\n}\n");
  B.expect(2, 0, 0);
  return 2;
}

// A pair accessed through a named let binding: *restrict* inference
// (Section 5), not confine inference, recovers the strong update here.
// (1, 0, 0)
uint32_t emitRecLetPair(ModuleBuilder &B) {
  std::string A = B.addLockArray();
  B.addFun("fun " + B.freshEntry() + "(i : int) : int {\n"
           "  let p = " + A + "[i] in {\n"
           "    spin_lock(p);\n    work();\n    spin_unlock(p)\n  }\n}\n");
  B.expect(1, 0, 0);
  return 1;
}

/// Emits recoverable patterns until \p Budget no-confine errors have been
/// generated (exactly).
void emitRecoverableBudget(ModuleBuilder &B, Rng &R, uint32_t Budget) {
  while (Budget > 0) {
    uint32_t Pick = Budget == 1 ? R.below(3) : 3 + R.below(7);
    switch (Pick) {
    case 0:
      Budget -= emitRecArrayPair(B);
      break;
    case 1:
      Budget -= emitRecStructArrayPair(B);
      break;
    case 2:
      Budget -= emitRecLetPair(B);
      break;
    case 3:
      Budget -= emitRecHelperTwoArrays(B);
      break;
    case 4:
      Budget -= emitRecLoopPair(B);
      break;
    case 5:
      Budget -= emitRecNestedPairs(B);
      break;
    case 6:
      if (Budget >= 3) {
        Budget -= emitRecArrayPairsK(B, 2); // 3 errors
        break;
      }
      Budget -= emitRecArrayPair(B);
      break;
    case 7:
      if (Budget >= 5) {
        Budget -= emitRecArrayPairsK(B, 3); // 5 errors
        break;
      }
      Budget -= emitRecLoopPair(B);
      break;
    case 8:
      Budget -= emitRecLetPair(B);
      break;
    default:
      Budget -= emitRecArrayPair(B);
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Hard patterns: confine inference fails at the site; all-strong still
// verifies it. Each contributes (1, 1, 0).
//===----------------------------------------------------------------------===//

// The lock pointer escapes to a global inside the would-be confine scope.
uint32_t emitHardEscape(ModuleBuilder &B) {
  std::string A = B.addLockArray();
  std::string GP = B.addLockPtrGlobal();
  B.addFun("fun " + B.freshEntry() + "(i : int) : int {\n"
           "  let p = " + A + "[i] in {\n"
           "    spin_lock(p);\n"
           "    " + GP + " := p;\n"
           "    work();\n"
           "    spin_unlock(p)\n  }\n}\n");
  B.expect(1, 1, 0);
  return 1;
}

// The lock is reached through a cast the may-alias analysis cannot see
// through (Section 7: "a type cast").
uint32_t emitHardCast(ModuleBuilder &B) {
  std::string Raw = B.addIntPtrGlobal();
  B.addFun("fun " + B.freshEntry() + "() : int {\n"
           "  let p = cast<ptr lock>(*" + Raw + ") in {\n"
           "    spin_lock(p);\n    work();\n    spin_unlock(p)\n  }\n}\n");
  B.expect(1, 1, 0);
  return 1;
}

// Acquire and release live in different helpers: no well-defined lexical
// scope for the confine (Section 7: "quite tricky coding styles").
uint32_t emitHardHelperSplit(ModuleBuilder &B) {
  std::string A = B.addLockArray();
  std::string HL = B.freshHelper();
  std::string HU = B.freshHelper();
  B.addFun("fun " + HL + "(l : ptr lock) : int { spin_lock(l) }\n");
  B.addFun("fun " + HU + "(l : ptr lock) : int { spin_unlock(l) }\n");
  B.addFun("fun " + B.freshEntry() + "(i : int) : int {\n"
           "  " + HL + "(" + A + "[i]);\n  work();\n"
           "  " + HU + "(" + A + "[i])\n}\n");
  B.expect(1, 1, 0);
  return 1;
}

// Sequenced operations on two possibly-aliased elements (the paper's
// "sequential acquiring or releasing of a set of aliased locks").
uint32_t emitHardSeqAliased(ModuleBuilder &B) {
  std::string A = B.addLockArray();
  B.addFun("fun " + B.freshEntry() + "(i : int, j : int) : int {\n"
           "  spin_lock(" + A + "[i]);\n  work();\n"
           "  spin_unlock(" + A + "[j])\n}\n");
  B.expect(1, 1, 0);
  return 1;
}

// A cast-aliased restrict shape: the Section 5 let binding on an array
// element, plus a sibling entry that stores elements of the same array
// into a global pointer cell, plus a third entry that overwrites that
// cell through an int-to-pointer cast. The classwise backend merges the
// element, the cell's pointee, and the cast's pointee into one
// untrackable class, so restrict inference must refuse the binding:
// (1, 1, 0). The flow-directed Andersen refinement sees that the element
// location only flows *into* the tainted cell and keeps the restrict --
// this is the corpus shape on which the backends' precision measurably
// differs (the earlier cast shape taints the dereferenced location
// itself, which no sound refinement can recover).
uint32_t emitHardCastAliased(ModuleBuilder &B) {
  std::string A = B.addLockArray();
  std::string GP = B.addLockPtrGlobal();
  std::string Raw = B.addIntPtrGlobal();
  B.addFun("fun " + B.freshEntry() + "(i : int) : int {\n"
           "  let p = " + A + "[i] in {\n"
           "    spin_lock(p);\n    work();\n    spin_unlock(p)\n  }\n}\n");
  B.addFun("fun " + B.freshEntry() + "(j : int) : int {\n"
           "  " + GP + " := " + A + "[j];\n  0\n}\n");
  B.addFun("fun " + B.freshEntry() + "() : int {\n"
           "  " + GP + " := cast<ptr lock>(*" + Raw + ");\n  0\n}\n");
  B.expect(1, 1, 0);
  return 1;
}

void emitHardSite(ModuleBuilder &B, Rng &R) {
  switch (R.below(5)) {
  case 0:
    emitHardEscape(B);
    break;
  case 1:
    emitHardCast(B);
    break;
  case 2:
    emitHardHelperSplit(B);
    break;
  case 3:
    emitHardCastAliased(B);
    break;
  default:
    emitHardSeqAliased(B);
    break;
  }
}

/// Figure 7 rows: per-module error counts under (no confine, confine
/// inference, all strong) the hard modules should land on.
struct HardRow {
  const char *Name;
  uint32_t NoConf;
  uint32_t Conf;
  uint32_t Strong;
};

constexpr HardRow HardRows[] = {
    {"wavelan_cs", 22, 16, 15}, {"trix", 29, 24, 22},
    {"netrom", 41, 25, 0},      {"rose", 47, 28, 0},
    {"usb_ohci", 32, 26, 17},   {"uhci", 74, 45, 34},
    {"sb", 31, 24, 22},         {"ide_tape", 58, 47, 41},
    {"mad16", 29, 24, 22},      {"emu10k1", 198, 60, 35},
    {"trident", 107, 49, 36},   {"digi_acceleport", 62, 32, 4},
    {"sbni", 23, 16, 9},        {"iph5526", 39, 34, 32},
};
constexpr uint32_t NumHardRows = sizeof(HardRows) / sizeof(HardRows[0]);

std::string formatIndex(uint32_t I) {
  std::string S = std::to_string(I);
  while (S.size() < 3)
    S = "0" + S;
  return S;
}

} // namespace

ModuleSpec lna::generateModule(ModuleCategory Cat, uint64_t Seed,
                               uint32_t SizeHint) {
  Rng R(Seed);
  ModuleBuilder B;
  switch (Cat) {
  case ModuleCategory::Clean:
    for (uint32_t I = 0; I < SizeHint; ++I)
      emitCleanPattern(B, R);
    break;
  case ModuleCategory::Buggy:
    for (uint32_t I = 0; I < SizeHint; ++I)
      emitBugPattern(B, R);
    break;
  case ModuleCategory::Recoverable:
    emitRecoverableBudget(B, R, SizeHint);
    break;
  case ModuleCategory::Hard:
    for (uint32_t I = 0; I < SizeHint; ++I)
      emitHardSite(B, R);
    break;
  case ModuleCategory::External:
    assert(false && "external modules are loaded, not generated");
    break;
  }
  ModuleSpec Spec;
  Spec.Category = Cat;
  Spec.Name = std::string("synthetic_") + moduleCategoryName(Cat);
  Spec.Source = B.build();
  Spec.Expected = B.expected();
  return Spec;
}

std::vector<ModuleSpec> lna::generateCorpus() {
  return generateCorpus(CorpusOptions());
}

std::vector<ModuleSpec> lna::generateCorpus(const CorpusOptions &Opts) {
  std::vector<ModuleSpec> Corpus;
  Rng R(Opts.Seed);

  // Clean modules.
  for (uint32_t I = 0; I < Opts.NumClean; ++I) {
    ModuleBuilder B;
    uint32_t NumPatterns = 1 + static_cast<uint32_t>(R.below(6));
    for (uint32_t K = 0; K < NumPatterns; ++K)
      emitCleanPattern(B, R);
    ModuleSpec Spec;
    Spec.Name = "drv_clean_" + formatIndex(I);
    Spec.Category = ModuleCategory::Clean;
    Spec.Source = B.build();
    Spec.Expected = B.expected();
    Corpus.push_back(std::move(Spec));
  }

  // Buggy modules (errors unrelated to strong updates).
  for (uint32_t I = 0; I < Opts.NumBuggy; ++I) {
    ModuleBuilder B;
    uint32_t NumBugs = 1 + static_cast<uint32_t>(R.below(6));
    for (uint32_t K = 0; K < NumBugs; ++K)
      emitBugPattern(B, R);
    // Mix in some clean patterns for realism.
    uint32_t NumClean = static_cast<uint32_t>(R.below(3));
    for (uint32_t K = 0; K < NumClean; ++K)
      emitCleanPattern(B, R);
    ModuleSpec Spec;
    Spec.Name = "drv_buggy_" + formatIndex(I);
    Spec.Category = ModuleCategory::Buggy;
    Spec.Source = B.build();
    Spec.Expected = B.expected();
    Corpus.push_back(std::move(Spec));
  }

  // Recoverable modules: draw per-module spurious-error sizes from a
  // skewed distribution (many small modules, a long tail -- the Figure 6
  // shape), then adjust to hit the corpus-wide budget exactly.
  std::vector<uint32_t> Sizes(Opts.NumRecoverable, 1);
  uint64_t Sum = 0;
  for (uint32_t I = 0; I < Opts.NumRecoverable; ++I) {
    uint32_t S;
    if (I % 10 < 6)
      S = 1 + static_cast<uint32_t>(R.below(8)); // small: 1..8
    else if (I % 10 < 9)
      S = 9 + static_cast<uint32_t>(R.below(28)); // medium: 9..36
    else
      S = 45 + static_cast<uint32_t>(R.below(70)); // tail: 45..114
    Sizes[I] = S;
    Sum += S;
  }
  // Adjust cyclically toward the budget.
  uint32_t Idx = 0;
  while (Sum < Opts.RecoverableErrorBudget) {
    ++Sizes[Idx % Sizes.size()];
    ++Sum;
    ++Idx;
  }
  while (Sum > Opts.RecoverableErrorBudget) {
    uint32_t &S = Sizes[Idx % Sizes.size()];
    if (S > 1) {
      --S;
      --Sum;
    }
    ++Idx;
  }
  for (uint32_t I = 0; I < Opts.NumRecoverable; ++I) {
    ModuleBuilder B;
    emitRecoverableBudget(B, R, Sizes[I]);
    // A bit of clean background noise.
    uint32_t NumClean = static_cast<uint32_t>(R.below(3));
    for (uint32_t K = 0; K < NumClean; ++K)
      emitCleanPattern(B, R);
    ModuleSpec Spec;
    Spec.Name = "drv_rec_" + formatIndex(I);
    Spec.Category = ModuleCategory::Recoverable;
    Spec.Source = B.build();
    Spec.Expected = B.expected();
    assert(Spec.Expected.NoConfine == Sizes[I] && "budget accounting broke");
    Corpus.push_back(std::move(Spec));
  }

  // Hard modules: compose each Figure 7 row (a, b, c) from c genuine
  // bugs, (b - c) hard sites, and (a - b) recoverable errors.
  for (uint32_t I = 0; I < NumHardRows; ++I) {
    const HardRow &Row = HardRows[I];
    assert(Row.NoConf >= Row.Conf && Row.Conf >= Row.Strong &&
           "Figure 7 rows are ordered");
    ModuleBuilder B;
    for (uint32_t K = 0; K < Row.Strong; ++K)
      emitBugPattern(B, R);
    for (uint32_t K = 0; K < Row.Conf - Row.Strong; ++K)
      emitHardSite(B, R);
    emitRecoverableBudget(B, R, Row.NoConf - Row.Conf);
    ModuleSpec Spec;
    Spec.Name = Row.Name;
    Spec.Category = ModuleCategory::Hard;
    Spec.Source = B.build();
    Spec.Expected = B.expected();
    assert(Spec.Expected.NoConfine == Row.NoConf &&
           Spec.Expected.ConfineInference == Row.Conf &&
           Spec.Expected.AllStrong == Row.Strong && "row accounting broke");
    Corpus.push_back(std::move(Spec));
  }

  return Corpus;
}
