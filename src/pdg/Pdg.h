//===- pdg/Pdg.h - Program dependence graph ----------------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program dependence graph (Ottenstein & Ottenstein [24], as used by
/// the paper's Figure 2-d): the union of the control and data dependence
/// graphs over the same CFG node ids. Dependence edges run from the
/// depended-on node to the dependent node, so backward slicing is a walk
/// over predecessors.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_PDG_PDG_H
#define JSLICE_PDG_PDG_H

#include "graph/Digraph.h"

#include <memory>
#include <set>
#include <vector>

namespace jslice {

/// Control and data dependence, kept separate (the paper's algorithms
/// need "directly control dependent" queries) plus merged on demand.
/// The data edges are held by shared pointer: the Ball–Horwitz
/// augmented PDG differs from the plain one only in control
/// dependence, so the two share one data graph instead of copying it.
struct Pdg {
  Digraph Control;
  std::shared_ptr<const Digraph> Data;

  Pdg(Digraph Control, Digraph Data)
      : Control(std::move(Control)),
        Data(std::make_shared<const Digraph>(std::move(Data))) {}

  /// Shares \p Data with another Pdg over the same CFG.
  Pdg(Digraph Control, std::shared_ptr<const Digraph> Data)
      : Control(std::move(Control)), Data(std::move(Data)) {}

  /// The merged graph (Figure 2-d style).
  Digraph combined() const {
    Digraph Out = Control;
    for (unsigned From = 0, N = Data->numNodes(); From != N; ++From)
      for (unsigned To : Data->succs(From))
        Out.addEdge(From, To);
    return Out;
  }

  /// Backward transitive closure from \p Seeds over both dependence
  /// kinds — the conventional slicing core [17, 24]. The seeds are
  /// included in the result.
  std::set<unsigned> backwardClosure(const std::vector<unsigned> &Seeds) const;

  /// Extends \p Slice with the backward closure of \p Node's
  /// dependences (the Figure 7 step "add the transitive closure of the
  /// dependence of J"). Returns the nodes newly added.
  std::vector<unsigned> growClosure(std::set<unsigned> &Slice,
                                    unsigned Node) const;
};

} // namespace jslice

#endif // JSLICE_PDG_PDG_H
