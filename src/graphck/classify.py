"""Nuclear-dimension bounds for finite graph algebras, by rule cascade.

Each rule records a witness, so a verdict can be audited by hand.  Bounds the
rules cannot reach stay unknown rather than being guessed.

A hereditary saturated set H is a union of strongly connected components
closed under successors, so its two ideal pieces are decided on g itself.  Let
Z be the cycle vertices, B those with one first-return path and R those that
reach Z; one `_cycle_sets` call gives all three.  Condition (K) holds iff B is
empty, and g is purely infinite iff also R is every vertex.  The quotient by H
keeps exactly the cycles outside H, so it is acyclic iff Z <= H.  The
restriction to H keeps its components, their first-return counts and every
path from H, so it is purely infinite iff H misses B and H <= R.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import (DirectedGraph, _cycle_sets, enumerate_hereditary_saturated,
                     satisfies_condition_L)

CITE_AF = "graph algebras of acyclic graphs are approximately finite dimensional: nuclear dimension 0"
CITE_PI_FINITE = ("a purely infinite graph algebra with finitely many ideals has "
                  "nuclear dimension 1")
CITE_PI_ANY = ("for a graph with Condition (K) in which every vertex connects to a "
               "cycle, the algebra and its Toeplitz extension have nuclear dimension "
               "between 1 and 2")
CITE_QD_EXT = ("an algebra with a purely infinite gauge-invariant ideal and "
               "approximately finite dimensional quotient has nuclear dimension at "
               "most 2, and exactly 1 when the ideal has finitely many ideals")
CITE_NOT_AF = "an algebra of a graph with a cycle is not AF: nuclear dimension at least 1"


def purely_infinite(g: DirectedGraph) -> bool:
    """Pure infiniteness criterion for finite graphs: Condition (K) plus every
    vertex connecting to a cycle."""
    _, bare, reach = _cycle_sets(g)
    return not bare and len(reach) == len(g.vertices)


@dataclass
class RuleFiring:
    rule: str
    citation: str
    witness: dict


@dataclass
class Verdict:
    """Nuclear-dimension bounds; None marks an unknown bound."""

    lower: int | None = None
    upper: int | None = None
    toeplitz_upper: int | None = None
    rules_fired: list[RuleFiring] = field(default_factory=list)

    def fire(self, rule: str, citation: str, **witness) -> None:
        self.rules_fired.append(RuleFiring(rule, citation, witness))

    def as_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "toeplitz_upper": self.toeplitz_upper,
            "rules": [
                {"rule": r.rule, "citation": r.citation, "witness": r.witness}
                for r in self.rules_fired
            ],
        }


def classify(g: DirectedGraph) -> Verdict:
    """Apply the decision rules in order and return the combined bounds."""
    verdict = Verdict()
    cycles, bare, reach = _cycle_sets(g)
    if not cycles:
        verdict.lower = verdict.upper = 0
        verdict.fire("R0", CITE_AF)
        return verdict

    lattice = enumerate_hereditary_saturated(g)
    if not bare and len(reach) == len(g.vertices):  # purely infinite
        # finite graph with Condition (K): the gauge-invariant lattice is the
        # whole ideal lattice and it is finite
        verdict.lower = verdict.upper = 1
        verdict.fire("R1", CITE_PI_FINITE,
                     ideal_lattice=[sorted(v.id for v in h) for h in lattice])
        verdict.toeplitz_upper = 2
        verdict.fire("R4", CITE_PI_ANY)
        return verdict

    # R2 (purely infinite but unknown ideal count) cannot occur here: for a
    # finite graph, Condition (K) already certifies a finite ideal lattice,
    # so R1 consumes every purely infinite case.

    # a set passing R3 contains Z, and B with it, so B must be empty; the
    # lattice is closed under intersection, so the first set containing Z lies
    # inside every other one, and it passes if any set does
    h = next(s for s in lattice if cycles <= s)
    if not bare and h <= reach:
        # the ideal piece has Condition (K), so finitely many ideals; as h
        # is saturated, its lattice is the part of ours inside h
        verdict.lower = verdict.upper = 1
        verdict.fire("R3", CITE_QD_EXT,
                     ideal_vertices=sorted(v.id for v in h),
                     ideal_lattice=[sorted(v.id for v in s) for s in lattice if s <= h])

    if verdict.lower is None:  # g has a cycle, else R0 returned
        verdict.lower = 1
        verdict.fire("R5", CITE_NOT_AF)
    return verdict


@dataclass
class IdealEntry:
    vertices: list[str]
    restriction_purely_infinite: bool
    quotient_acyclic: bool


@dataclass
class IdealReport:
    condition_k: bool
    lattice_is_full_ideal_lattice: bool
    simple: bool
    entries: list[IdealEntry]
    warning: str | None = None

    def as_dict(self) -> dict:
        return {
            "condition_K": self.condition_k,
            "lattice_is_full_ideal_lattice": self.lattice_is_full_ideal_lattice,
            "simple": self.simple,
            "sets": [
                {"vertices": e.vertices,
                 "restriction_purely_infinite": e.restriction_purely_infinite,
                 "quotient_acyclic": e.quotient_acyclic}
                for e in self.entries
            ],
            "warning": self.warning,
        }


def ideal_report(g: DirectedGraph) -> IdealReport:
    """List the gauge-invariant ideal lattice with per-set diagnostics."""
    cycles, bare, reach = _cycle_sets(g)
    has_k = not bare
    sets = enumerate_hereditary_saturated(g)
    entries = [IdealEntry(sorted(v.id for v in h), h.isdisjoint(bare) and h <= reach, cycles <= h)
               for h in sets]
    warning = None
    if not has_k:
        warning = ("Condition (K) fails: ideals that are not gauge-invariant may "
                   "exist, so this lattice can be a proper sublattice")
    simple = len(sets) == 2 and satisfies_condition_L(g)  # {0, E^0}, every cycle exits
    return IdealReport(has_k, has_k, simple, entries, warning)
