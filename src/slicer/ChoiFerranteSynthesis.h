//===- slicer/ChoiFerranteSynthesis.h - Executable slices with new jumps ------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 5 describes a second Choi–Ferrante algorithm
/// for when a slice "is not constrained to be a subprogram of the
/// original program": keep only the conventional(-augmented) slice's
/// statements and *construct new jump statements* to preserve their
/// execution order, instead of retaining the original jumps and their
/// dependence closures. The slices are smaller; the nesting structure
/// may differ from the original.
///
/// Reconstruction (see DESIGN.md, Substitutions): the kept statements
/// are the Ball–Horwitz closure minus the original jump statements, and
/// every control transfer is redirected to the target's nearest kept
/// postdominator — a static map, which is exactly what synthesized
/// gotos encode. A transfer needs an explicit synthesized goto when its
/// destination is not the statement the printed text would fall into.
/// The projection interpreter has a matching transfer mode
/// (runTransferProjection) so these slices are behaviourally testable
/// like all the others.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SLICER_CHOIFERRANTESYNTHESIS_H
#define JSLICE_SLICER_CHOIFERRANTESYNTHESIS_H

#include "slicer/Slicers.h"

#include <map>

namespace jslice {

/// A slice whose control flow is carried by synthesized transfers
/// instead of original jump statements.
struct SynthesizedSlice {
  /// Kept statement/predicate nodes; never contains a jump node.
  std::set<unsigned> Kept;

  unsigned CriterionNode = 0;

  /// Every control transfer of the synthesized program:
  /// (kept source node, raw CFG target) -> kept destination (or Exit).
  /// The destination is the raw target's nearest kept postdominator.
  std::map<std::pair<unsigned, unsigned>, unsigned> Transfers;

  /// Transfers that need an explicit synthesized goto (the destination
  /// is not the next kept statement in textual order).
  unsigned SynthesizedJumps = 0;

  std::set<unsigned> lineSet(const Cfg &C) const;
};

/// Builds the synthesized slice for \p RC. Building the augmented tier
/// charges A.guard(); when that trips the slice is empty (check
/// A.guard().exhausted()).
SynthesizedSlice sliceChoiFerranteSynthesis(const Analysis &A,
                                            const ResolvedCriterion &RC);

/// A synthesized slice rendered as a runnable Mini-C program.
struct PrintedSynthesis {
  /// Flattened program: every kept statement in source order, labeled,
  /// with explicit synthesized gotos carrying the transfer map
  /// (predicates become `if (cond) goto Lt; else goto Lf;`, transfers
  /// to program exit become `return;`).
  std::string Text;

  /// Line of the criterion statement in Text (for re-slicing or
  /// re-running against the original behaviour).
  unsigned CriterionLine = 0;
};

/// Emits \p S as a self-contained Mini-C program. The result re-parses
/// and, run on the same input, reproduces the original program's
/// criterion-value sequence (tested in tests/ExtensionsTest.cpp) —
/// Choi–Ferrante's "slice that is not a subprogram", made concrete.
PrintedSynthesis printSynthesizedSlice(const Analysis &A,
                                       const SynthesizedSlice &S);

} // namespace jslice

#endif // JSLICE_SLICER_CHOIFERRANTESYNTHESIS_H
