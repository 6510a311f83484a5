"""The four workloads: seeded item passes, the timed call, the oracle check.

A workload produces its items one pass at a time.  Each pass repeats the
same ladder of item classes (command and size), and the seed only draws the
graphs and queries inside each class, so the work a pass does barely moves
with the seed while its content does.  Heavy parameters live in the ladder,
never in the seed.

Library calls go through module attributes (`G.build_rep`, `rep.evaluate`)
so that the traced run sees every call the workload makes.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, prod
from pathlib import Path as FsPath

import graphck as G
import graphck.cli
import graphck.rep
import graphck.sparse
import graphck.symbolic

from perfbench import gen, oracles
from perfbench.oracles import Graph

# Seed defects the oracles expose.  A failing item is attributed to one of
# these only when its mismatch is exactly the documented one; it still
# counts as failed.
KNOWN_DEFECTS = {
    "simple-ignores-condition-L":
        "ideal_report marks a two-set lattice simple although a cycle has no "
        "exit (C*(single loop) = C(T) is not simple); ROADMAP item 4",
}


@dataclass
class Item:
    kind: str
    graph: str
    argv: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)


@dataclass
class Batch:
    """One pass: its items in run order and the graphs they read."""

    items: list[Item]
    graphs: dict[str, Graph]


@dataclass
class Outcome:
    ok: bool
    defect: str | None = None
    detail: str = ""


def _mismatch(what: str, got, want) -> Outcome:
    return Outcome(False, None, f"{what}: got {got!r}, expected {want!r}")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """graphck.cli.main in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = graphck.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CliWorkload:
    """Items are CLI argument lists; `{graph}` stands for the input file."""

    name = ""
    why = ""
    traffic = ""

    def prepare(self, batch: Batch, files: dict[str, FsPath]) -> dict[str, str]:
        # loading = reading and parsing every input, as the CLI will
        for path in files.values():
            G.parse_graph(path.read_text(encoding="utf-8"))
        return {name: str(path) for name, path in files.items()}

    def run(self, item: Item, state: dict[str, str]):
        path = state[item.graph]
        return run_cli([path if a == "{graph}" else a for a in item.argv])


# --------------------------------------------------------------------------
# invariants


def _expected_sets(g: Graph, lattice: list[frozenset[str]]) -> list[dict]:
    return [{"vertices": sorted(h),
             "restriction_purely_infinite": oracles.purely_infinite(oracles.restriction(g, h)),
             "quotient_acyclic": oracles.is_acyclic(oracles.quotient(g, h))}
            for h in lattice]


def _check_ideals(g: Graph, res: dict, lattice: list[frozenset[str]]) -> Outcome:
    k = oracles.condition_k(g)
    if res["sets"] != _expected_sets(g, lattice):
        return _mismatch("ideal lattice", [s["vertices"] for s in res["sets"]],
                         [sorted(h) for h in lattice])
    for key, want in (("condition_K", k), ("lattice_is_full_ideal_lattice", k)):
        if res[key] != want:
            return _mismatch(key, res[key], want)
    if (res["warning"] is None) != k:
        return _mismatch("warning present", res["warning"] is not None, not k)
    want = oracles.expected_simple(g, len(lattice))
    if res["simple"] != want:
        known = (res["simple"] and len(lattice) == 2
                 and oracles.has_cycle_without_exit(g))
        return Outcome(False, "simple-ignores-condition-L" if known else None,
                       f"simple: got {res['simple']}, expected {want}")
    return Outcome(True)


def _check_verdict(g: Graph, res: dict, lattice: list[frozenset[str]]) -> Outcome:
    lower, upper, toeplitz, rules = oracles.expected_verdict(g, lattice)
    got = (res["lower"], res["upper"], res["toeplitz_upper"], [r["rule"] for r in res["rules"]])
    if got != (lower, upper, toeplitz, rules):
        return _mismatch("verdict", got, (lower, upper, toeplitz, rules))
    for r in res["rules"]:
        w = r["witness"]
        if r["rule"] == "R1" and w["ideal_lattice"] != [sorted(h) for h in lattice]:
            return _mismatch("R1 lattice witness", w["ideal_lattice"], [sorted(h) for h in lattice])
        if r["rule"] == "R3":
            h = next(h for h in lattice if h
                     and oracles.purely_infinite(oracles.restriction(g, h))
                     and oracles.is_acyclic(oracles.quotient(g, h)))
            piece = oracles.restriction(g, h)
            inner = oracles.lattice_order(piece, oracles.hereditary_saturated_sets(piece))
            want = {"ideal_vertices": sorted(h), "ideal_lattice": [sorted(s) for s in inner]}
            if w != want:
                return _mismatch("R3 witness", w, want)
    return Outcome(True)


def _check_ktheory(g: Graph, res: dict) -> Outcome:
    free, minor = oracles.k_group_facts(g)
    got = (res["k0"]["rank"], res["k1"]["rank"])
    if got != (free, free):
        return _mismatch("K0/K1 free ranks", got, (free, free))
    torsion = res["k0"]["torsion"]
    order = prod(torsion)
    if (any(t < 2 for t in torsion) or any(b % a for a, b in zip(torsion, torsion[1:]))
            or minor % order or (free == 0 and order != minor)):
        return _mismatch("K0 torsion (product against a maximal minor of I - A^t)",
                         torsion, minor)
    return Outcome(True)


def _subquotient_plan(g: Graph, lattice: list[frozenset[str]]) -> list[tuple[str, bool]]:
    """(target, skipped) per entry of `ktheory --subquotients`, in order;
    a piece is skipped exactly when it has a sink."""
    def name(h):
        return "{" + ",".join(sorted(h)) + "}"

    plan = []
    for h in lattice:
        ideal = oracles.restriction(g, h)
        plan.append((f"ideal {name(h)}", bool(oracles.sinks(ideal))))
        plan.append((f"quotient by {name(h)}", bool(oracles.sinks(oracles.quotient(g, h)))))
        for j in lattice:
            if j and j < h:
                sub = oracles.quotient(ideal, j)
                plan.append((f"subquotient {name(j)} in {name(h)}", bool(oracles.sinks(sub))))
    return plan


def _check_verifications(g: Graph, res: dict, m: int, subquotients: bool,
                         lattice: list[frozenset[str]] | None) -> Outcome:
    ver = res["verifications"]
    if subquotients:
        got = [(v["target"], v["status"]) for v in ver]
        want = [(t, "skip" if skipped else "pass") for t, skipped in _subquotient_plan(g, lattice)]
        return Outcome(True) if got == want else _mismatch("subquotient sweep", got, want)
    if len(ver) != 1 or not ver[0]["pass"]:
        return _mismatch("whole-graph verification", ver, "one passing entry")
    witnesses = ver[0]["certificate"]["k0_witnesses"]
    if sorted(witnesses) != sorted(g.vertices):
        return _mismatch("K0 witness vertices", sorted(witnesses), sorted(g.vertices))
    for v, x in witnesses.items():
        if not oracles.check_k0_witness(g, m, v, x):
            return Outcome(False, None, f"K0 witness of {v} does not solve (I - A^t) x = (B - m) e_v")
    return Outcome(True)


FIXTURE_SHAPES = ("single_loop", "two_cycle", "two_loop", "u_graph")


class Invariants(CliWorkload):
    name = "invariants"
    why = ("analyze/classify/ideals/ktheory on seeded graph files: graphs, dsl, cli, "
           "ktheory, classify; never construct, symbolic, rep or sparse")
    traffic = ("per pass: 6 analyze (4-12 vertices), 7 classify and 7 ideals (6-18 "
               "vertices), one graph per lattice-size band from 2 to 120 sets; "
               "23 ktheory on sink-free graphs (40,60,...,160 vertices, 160 twice, "
               "and 15 of 64 vertices), "
               "3 ktheory --verify-m (24-40 vertices), 4 ktheory --verify-m "
               "--subquotients (5-11 vertices, 2-24 sets), 3 corpus fixtures, 4 ideals "
               "on named shapes")

    KTHEORY_LADDER = (40, 60, 80, 100, 120, 140, 160, 160)
    # a block of like-sized Smith forms that holds the median item of a pass,
    # so item_p50_ms follows the Smith form rather than the mix around it
    KTHEORY_BLOCK = (64,) * 15
    VERIFY_LADDER = (24, 32, 40)
    # (lattice-size band, vertices), one graph each per pass
    ANALYZE_BANDS = (((2, 2), 4), ((3, 5), 6), ((6, 10), 8), ((11, 20), 10), ((21, 40), 11),
                     ((41, 80), 12))
    LATTICE_BANDS = (((2, 2), 6), ((3, 5), 8), ((6, 10), 10), ((11, 20), 12), ((21, 40), 14),
                     ((41, 80), 16), ((81, 120), 18))
    SUBQUOTIENT_BANDS = (((2, 6), 5), ((7, 12), 7), ((13, 18), 9), ((19, 24), 11))

    def make_pass(self, seed: int, index: int) -> Batch:
        rng = gen.rng_for(self.name, seed, f"pass{index}")
        graphs: dict[str, Graph] = {}
        classes: list[list[Item]] = []

        def add(g: Graph) -> str:
            key = f"g{len(graphs)}"
            graphs[key] = g
            return key

        classes.append([Item("analyze", add(gen.banded_component_graph(rng, n, band)),
                             ("analyze", "--json", "{graph}")) for band, n in self.ANALYZE_BANDS])
        for cmd in ("classify", "ideals"):
            classes.append([Item(cmd, add(gen.banded_component_graph(rng, n, band)),
                                 (cmd, "--json", "{graph}")) for band, n in self.LATTICE_BANDS])
        classes.append([Item("ktheory", add(gen.sink_free_graph(rng, n)),
                             ("ktheory", "--json", "{graph}"))
                        for n in self.KTHEORY_LADDER + self.KTHEORY_BLOCK])
        verify = []
        for n in self.VERIFY_LADDER:
            m = rng.randint(2, 5)
            verify.append(Item("ktheory-verify", add(gen.sink_free_graph(rng, n)),
                               ("ktheory", "--verify-m", str(m), "--json", "{graph}"), {"m": m}))
        classes.append(verify)
        subq = []
        for band, n in self.SUBQUOTIENT_BANDS:
            m = rng.randint(2, 4)
            g = gen.banded_component_graph(rng, n, band, sink_free=True)
            subq.append(Item("ktheory-subquotients", add(g),
                             ("ktheory", "--verify-m", str(m), "--subquotients", "--json", "{graph}"),
                             {"m": m}))
        classes.append(subq)
        classes.append([Item("fixture", "", (), {"fixture": name})
                        for name in ("mixed", "threeloop", "twoloop")])
        classes.append([Item("ideals", add(gen.SHAPES[s]), ("ideals", "--json", "{graph}"))
                        for s in FIXTURE_SHAPES])
        return Batch(_interleave(classes), graphs)

    def prepare(self, batch: Batch, files: dict[str, FsPath]) -> dict[str, str]:
        state = super().prepare(batch, files)
        corpus = FsPath(__file__).resolve().parent.parent / "tests" / "data" / "corpus"
        for item in batch.items:
            if item.kind == "fixture":
                name = item.params["fixture"]
                spec = json.loads((corpus / f"{name}.expect.json").read_text(encoding="utf-8"))
                state[f"fixture:{name}"] = (list(spec["command"]) + ["--json", str(corpus / f"{name}.g")],
                                            json.dumps(spec["result"], indent=1))
        return state

    def run(self, item: Item, state: dict):
        if item.kind == "fixture":
            return run_cli(state[f"fixture:{item.params['fixture']}"][0])
        return super().run(item, state)

    def check(self, item: Item, batch: Batch, result, state: dict[str, str]) -> Outcome:
        code, out, err = result
        if code != 0:
            return Outcome(False, None, f"exit {code}: {err.strip()[:200]}")
        res = json.loads(out)["result"]
        if item.kind == "fixture":
            want = state[f"fixture:{item.params['fixture']}"][1]
            return Outcome(True) if json.dumps(res, indent=1) == want else \
                Outcome(False, None, "fixture result differs from its .expect.json")
        g = batch.graphs[item.graph]
        needs_lattice = item.kind in ("analyze", "classify", "ideals", "ktheory-subquotients")
        lattice = (oracles.lattice_order(g, oracles.hereditary_saturated_sets(g))
                   if needs_lattice else None)
        if item.kind == "ideals":
            return _check_ideals(g, res, lattice)
        if item.kind == "classify":
            return _check_verdict(g, res, lattice)
        if item.kind == "analyze":
            cond = res["conditions"]
            want = {"condition_K": oracles.condition_k(g),
                    "every_vertex_connects_to_cycle": oracles.connects_to_cycle(g),
                    "acyclic": oracles.is_acyclic(g), "sinks": oracles.sinks(g)}
            if cond != want:
                return _mismatch("conditions", cond, want)
            if oracles.sinks(g):
                if res["ktheory"] != {"skipped": "graph has sinks"}:
                    return _mismatch("ktheory", res["ktheory"], "skipped")
            else:
                outcome = _check_ktheory(g, res["ktheory"])
                if not outcome.ok:
                    return outcome
            verdict = _check_verdict(g, res["classification"], lattice)
            return verdict if not verdict.ok else _check_ideals(g, res["ideals"], lattice)
        outcome = _check_ktheory(g, res)
        if not outcome.ok or item.kind == "ktheory":
            return outcome
        return _check_verifications(g, res, item.params["m"],
                                    item.kind == "ktheory-subquotients", lattice)


def _interleave(classes: list[list[Item]]) -> list[Item]:
    """Round-robin over the classes, so any prefix of a pass is a mix."""
    out: list[Item] = []
    for i in range(max(len(c) for c in classes)):
        out.extend(c[i] for c in classes if i < len(c))
    return out


# --------------------------------------------------------------------------
# blowup-symbolic


class BlowupSymbolic(CliWorkload):
    name = "blowup-symbolic"
    why = ("blowup with re-parse, verify-hom, approx, quasidiag: construct, symbolic "
           "normal_form in both modes, large-graph dsl; never rep, sparse or ktheory")
    traffic = ("per pass: 7 blowup on 2-out-regular graphs (m=6..11, m=11 twice, "
               "126-2047 vertices) parsed back, 12 verify-hom (iota and jm, m=1..6, 1-2 "
               "vertices), 9 approx (1-out-regular m=4..16, 2-out-regular m=2..3), "
               "3 quasidiag (2-7 vertices)")

    # (m, vertices of the 2-out-regular base): blow-up sizes 126..2047
    BLOWUP_LADDER = ((6, 2), (7, 2), (8, 2), (9, 2), (10, 1), (11, 1), (11, 1))
    # (out-degree, vertices, m, |mu|, |nu|)
    APPROX_LADDER = ((1, 1, 4, 1, 0), (1, 2, 8, 2, 0), (1, 3, 12, 0, 0), (1, 1, 16, 1, 1),
                     (1, 2, 5, 1, 0), (1, 3, 9, 2, 1), (2, 1, 2, 1, 0), (2, 1, 3, 0, 0),
                     (2, 2, 3, 1, 0))

    def make_pass(self, seed: int, index: int) -> Batch:
        rng = gen.rng_for(self.name, seed, f"pass{index}")
        graphs: dict[str, Graph] = {}

        def add(g: Graph) -> str:
            key = f"g{len(graphs)}"
            graphs[key] = g
            return key

        blowups = [Item("blowup", add(gen.regular_graph(rng, n, 2)),
                        ("blowup", "--m", str(m), "{graph}"), {"m": m})
                   for m, n in self.BLOWUP_LADDER]
        homs = []
        for which in ("iota", "jm"):
            for m in range(1, 7):
                g = gen.regular_graph(rng, 2 if m < 6 else 1, 2)
                homs.append(Item("verify-hom", add(g),
                                 ("verify-hom", "--which", which, "--m", str(m), "--json", "{graph}")))
        approx = []
        for degree, n, m, a, b in self.APPROX_LADDER:
            g = gen.regular_graph(rng, n, degree)
            # every vertex of a regular graph receives an edge, so a leg of
            # length b ending where mu ends exists
            mu, _, r = rng.choice(gen.path_specs(g, a, a + 1))
            nu = rng.choice([p for p, _, rr in gen.path_specs(g, b, b + 1) if rr == r])
            approx.append(Item("approx", add(g),
                               ("approx", "--m", str(m), "--mu", mu, "--nu", nu, "--json", "{graph}"),
                               {"m": m, "a": a, "b": b}))
        quasi = []
        for _ in range(3):
            g, h, x = gen.acyclic_quotient_graph(rng)
            quasi.append(Item("quasidiag", add(g),
                              ("quasidiag", "--ideal", ",".join(sorted(h)),
                               "--window", ",".join(sorted(x)), "--json", "{graph}"),
                              {"ideal": sorted(h), "window": sorted(x)}))
        return Batch(_interleave([blowups, homs, approx, quasi]), graphs)

    def run(self, item: Item, state: dict[str, str]):
        code, out, err = super().run(item, state)
        if item.kind == "blowup" and code == 0:
            parsed = G.parse_graph(out)
            return code, (len(parsed.vertices), len(parsed.edges)), err
        return code, out, err

    def check(self, item: Item, batch: Batch, result, state) -> Outcome:
        code, out, err = result
        if code != 0:
            return Outcome(False, None, f"exit {code}: {err.strip()[:200]}")
        g = batch.graphs[item.graph]
        if item.kind == "blowup":
            want = oracles.path_counts(g, item.params["m"])
            return Outcome(True) if out == want else _mismatch("blow-up |V|, |E|", out, want)
        res = json.loads(out)["result"]
        if item.kind == "verify-hom":
            ok = res["pass"] and res["failed_relation"] is None
            return Outcome(True) if ok else _mismatch("family check", res, "pass")
        if item.kind == "approx":
            p = item.params
            top, values = oracles.approx_expectation(p["m"], p["a"], p["b"])
            got = (res["max_coefficient"], res["max_defect"], sorted(res["k_values"]))
            want = (top, top, sorted(values))
            return Outcome(True) if got == want else _mismatch("approx coefficients", got, want)
        want_terms = oracles.gabe_terms(g, frozenset(item.params["ideal"]),
                                        frozenset(item.params["window"]))
        ok = res["pass"] and not res["failures"] and res["terms"] == want_terms
        return Outcome(True) if ok else _mismatch("quasidiag", res, f"pass with {want_terms} terms")


# --------------------------------------------------------------------------
# representation workloads


class RepWorkload:
    """Library items: build a truncated representation, then run queries
    whose truth is known (True for identities, False for planted ones)."""

    name = ""
    why = ""
    traffic = ""

    def prepare(self, batch: Batch, files: dict[str, FsPath]) -> dict:
        state: dict = {"graphs": {}, "blowups": {}}
        for key, path in files.items():
            state["graphs"][key] = G.parse_graph(path.read_text(encoding="utf-8"))
        for item in batch.items:
            m = item.params.get("blowup")
            if m and (item.graph, m) not in state["blowups"]:
                state["blowups"][(item.graph, m)] = G.blowup_graph(state["graphs"][item.graph], m)
        return state

    def check(self, item: Item, batch: Batch, result, state) -> Outcome:
        got = list(result)
        want = [q[-1] for q in item.params["queries"]]
        if got != want:
            bad = [q[:-1] for q, a in zip(item.params["queries"], got) if a != q[-1]]
            return _mismatch(f"queries {bad}", got, want)
        return Outcome(True)


def _rank_one_at(op, i: int) -> bool:
    return op.matrix.nnz() == 1 and op.matrix.get(i, i) == 1


class RepUnits(RepWorkload):
    name = "rep-units"
    why = ("build_rep at cutoff 4-10 and 0/1 operator identities (path projections, "
           "matrix units, windows, C3/C4 inclusions, planted falses): rep + sparse")
    traffic = ("per pass: 15 items; base shapes at cutoff 8-10 (dimension 3-2047) with "
               "7 queries each, blow-ups m=1..3 at cutoff 2m+2 (dimension 5-3577, m=2 on "
               "two_loop three times) with 4 inclusion queries each")

    # (shape, blow-up m or 0, cutoff, window m); blow-ups use cutoff 2m+2.
    # The two_loop m=2 blow-up comes three times: the middle of the 15 costs,
    # so the median item is one of them rather than a step between classes.
    LADDER = (("two_loop", 0, 10, 2), ("two_loop", 0, 8, 3), ("mixed_m", 0, 9, 2),
              ("u_graph", 0, 8, 3), ("single_loop", 0, 10, 3), ("single_edge", 0, 10, 3),
              ("two_cycle", 0, 10, 3), ("two_loop", 2, 6, 0), ("two_loop", 3, 8, 0),
              ("mixed_m", 2, 6, 0), ("two_cycle", 3, 8, 0), ("single_loop", 2, 6, 0),
              ("u_graph", 1, 4, 0), ("two_loop", 2, 6, 0), ("two_loop", 2, 6, 0))

    def make_pass(self, seed: int, index: int) -> Batch:
        rng = gen.rng_for(self.name, seed, f"pass{index}")
        graphs = {s: gen.SHAPES[s] for s, *_ in self.LADDER}
        items = []
        for shape, m, cutoff, window in self.LADDER:
            g = graphs[shape]
            if m:
                queries = self._inclusion_queries(rng, g, m)
            else:
                queries = self._unit_queries(rng, g, window)
            items.append(Item("rep", shape, (), {"blowup": m, "cutoff": cutoff, "queries": queries}))
        return Batch(items, graphs)

    @staticmethod
    def _unit_queries(rng, g: Graph, window: int) -> list[tuple]:
        short = gen.path_specs(g, 0, 3)
        mu, _, r = rng.choice(short)
        other = rng.choice([p for p in short if p[0] != mu] or [(mu,)])[0]
        same_range = [p for p, _, rr in short if rr == r]
        nu, sigma = rng.choice(same_range), rng.choice(same_range)
        # a unit whose left leg differs from nu, sharing nu's range
        rho = rng.choice([p for p in same_range if p != nu] or [None])
        queries = [("pp", mu, True), ("c3", mu, True),
                   ("unit-product", mu, nu, sigma, True), ("unit-adjoint", mu, nu, True),
                   ("window", window, True)]
        if other != mu:
            queries.append(("pp-equal", mu, other, False))
        if rho is not None:
            queries.append(("unit-product-mismatch", mu, nu, rho, sigma, False))
        return queries

    @staticmethod
    def _inclusion_queries(rng, g: Graph, m: int) -> list[tuple]:
        # one path each of length 0, m and 2m: the lengths set the cost
        picks = [rng.choice(gen.path_specs(g, k, k + 1)) for k in (0, m, 2 * m)]
        queries = [("inclusion", p, True) for p, _, _ in picks]
        # planted: the inclusion image times the wrong range projection
        p, _, r = picks[0]
        wrong = [v for v in g.vertices if v != r]
        if wrong:
            queries.append(("inclusion-wrong-range", p, rng.choice(wrong), False))
        return queries

    def run(self, item: Item, state: dict):
        p = item.params
        g = state["graphs"][item.graph]
        if p["blowup"]:
            bg = state["blowups"][(item.graph, p["blowup"])]
            rep = G.build_rep(bg.graph, p["cutoff"])
            return [self._inclusion(rep, g, bg, q) for q in p["queries"]]
        rep = G.build_rep(g, p["cutoff"])
        return [self._unit(rep, g, q) for q in p["queries"]]

    @staticmethod
    def _unit(rep, g, q) -> bool:
        kind = q[0]
        path = [G.parse_pathspec(g, s) if isinstance(s, str) else s for s in q[1:-1]]
        if kind == "pp":
            return _rank_one_at(G.path_projection(rep, path[0]), rep.index[path[0]])
        if kind == "c3":
            mu = path[0]
            tm = rep.t_path(mu)
            rhs = tm * G.path_projection(rep, G.Path.at(mu.range)) * tm.star()
            return rep.equal_on_exact_region(G.path_projection(rep, mu), rhs)
        if kind == "pp-equal":
            return rep.equal_on_exact_region(G.path_projection(rep, path[0]),
                                             G.path_projection(rep, path[1]))
        if kind == "window":
            phi = G.window_projection(rep, q[1])
            return rep.equal_on_exact_region(phi * phi, phi)
        if kind == "unit-adjoint":
            mu, nu = path
            return rep.equal_on_exact_region(G.matrix_unit(rep, mu, nu).star(),
                                             G.matrix_unit(rep, nu, mu))
        if kind == "unit-product":
            mu, nu, sigma = path
            left = G.matrix_unit(rep, mu, nu)
            prod_ = left * G.matrix_unit(rep, nu, sigma)
            want = graphck.rep.RepOperator(G.matrix_unit(rep, mu, sigma).matrix, prod_.creations)
            return rep.equal_on_exact_region(prod_, want)
        # unit-product-mismatch: e_{mu,nu} e_{rho,sigma} with rho != nu is zero,
        # so comparing it with e_{mu,sigma} must fail
        mu, nu, rho, sigma = path
        prod_ = G.matrix_unit(rep, mu, nu) * G.matrix_unit(rep, rho, sigma)
        want = graphck.rep.RepOperator(G.matrix_unit(rep, mu, sigma).matrix, prod_.creations)
        return rep.equal_on_exact_region(prod_, want)

    @staticmethod
    def _inclusion(rep, g, bg, q) -> bool:
        """C4: iota(s_mu) q_{r(mu)} equals T of the embedded path; the
        planted variant multiplies by the projection of another vertex."""
        mu = G.parse_pathspec(g, q[1])
        rng_vertex = q[2] if q[0] == "inclusion-wrong-range" else mu.range.id
        inc = rep.evaluate(graphck.symbolic.iota_path_image(bg, mu))
        proj = rep.q(bg.vertex_of_path(G.Path.at(g.vertex(rng_vertex))))
        return rep.equal_on_exact_region(inc * proj, rep.t_path(G.embed_path(bg, mu)))


class RepWeighted(RepWorkload):
    name = "rep-weighted"
    why = ("kappa-weighted band compressions against compression_route, and evaluate "
           "of rational formal sums against their normal forms: rep + sparse, weighted")
    traffic = ("per pass: 9 items on two_loop, two_cycle, mixed_m, single_loop at cutoff "
               "7-8 (dimension 8-769): 2 band/shifted-band comparisons (m=2..3) and 6 "
               "formal-sum comparisons (3 terms, depth 3, half planted unequal) each")

    # (shape, cutoff, band m, shifted-band m, |alpha|, |beta|): both windows
    # fit the cutoff, and the leg lengths of the compressed words are fixed.
    # Three of the nine are two_loop at cutoff 7, whose time barely moves with
    # the drawn sums; they lie between the three millisecond items and the
    # three heaviest, so they hold the median item of a pass
    LADDER = (("two_loop", 8, 2, 2, 0, 0), ("two_cycle", 8, 3, 3, 1, 0),
              ("mixed_m", 8, 2, 2, 1, 1), ("single_loop", 8, 3, 3, 1, 0),
              ("two_loop", 7, 3, 2, 1, 0), ("two_cycle", 7, 2, 2, 0, 0),
              ("mixed_m", 7, 3, 2, 0, 0), ("two_loop", 7, 3, 2, 1, 0),
              ("two_loop", 7, 3, 2, 1, 0))
    DEPTH, MAX_LEG, TERMS = 3, 2, 3

    def make_pass(self, seed: int, index: int) -> Batch:
        rng = gen.rng_for(self.name, seed, f"pass{index}")
        graphs = {s: gen.SHAPES[s] for s, *_ in self.LADDER}
        items = []
        for shape, cutoff, band_m, shifted_m, la, lb in self.LADDER:
            g = graphs[shape]
            legs = gen.path_specs(g, 0, self.MAX_LEG + 1)
            queries = []
            for kind, m in (("band", band_m), ("shifted", shifted_m)):
                a, _, r = rng.choice(gen.path_specs(g, la, la + 1))
                b = rng.choice([p for p, _, rr in gen.path_specs(g, lb, lb + 1) if rr == r])
                queries.append((kind, m, a, b, True))
            for k in range(6):
                terms = []
                for _ in range(self.TERMS):
                    a, _, r = rng.choice(legs)
                    b = rng.choice([p for p, _, rr in legs if rr == r])
                    terms.append((a, b, rng.randint(-3, 3) or 1, rng.randint(1, 3)))
                planted = None
                if k % 2:
                    # a leveled word of depth DEPTH, so it survives the normal form,
                    # whose right leg is short enough to be an exact column
                    a, _, r = rng.choice(gen.path_specs(g, self.DEPTH, self.DEPTH + 1))
                    b = rng.choice([p for p, _, rr in gen.path_specs(g, 0, 2) if rr == r])
                    planted = (a, b, rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
                queries.append(("sum", terms, planted, planted is None))
            items.append(Item("rep", shape, (), {"cutoff": cutoff, "queries": queries}))
        return Batch(items, graphs)

    def run(self, item: Item, state: dict):
        g = state["graphs"][item.graph]
        rep = G.build_rep(g, item.params["cutoff"])
        return [self._query(rep, g, q) for q in item.params["queries"]]

    def _query(self, rep, g, q) -> bool:
        sym = graphck.symbolic
        if q[0] in ("band", "shifted"):
            _, m, a, b, _ = q
            w = sym.Word(G.parse_pathspec(g, a), G.parse_pathspec(g, b))
            if q[0] == "band":
                return rep.equal_on_exact_region(G.band_compression(rep, m, w),
                                                 graphck.rep.compression_route(rep, m, w, m))
            return rep.equal_on_exact_region(
                G.shifted_band_compression(rep, m, w),
                graphck.rep.compression_route(rep, m, w, m + ceil(m / 2)))
        _, terms, planted, _ = q

        def formal(ts):
            out: dict = {}
            for a, b, num, den in ts:
                w = sym.Word(G.parse_pathspec(g, a), G.parse_pathspec(g, b))
                out[w] = out.get(w, 0) + Fraction(num, den)
            return sym.FormalSum(g, out)

        mode = sym.AlgebraMode.CUNTZ_KRIEGER
        a = formal(terms)
        b = sym.normal_form(a, mode, self.DEPTH)
        if planted:
            b = b + formal([planted])
        diff = sym.normal_form(a - b, mode, self.DEPTH)
        op = rep.evaluate(diff)
        n = rep.dimension
        zero = graphck.rep.RepOperator(graphck.sparse.RatMatrix(n, n), self.DEPTH, self.DEPTH)
        eq_num = rep.equal_on_exact_region(op, zero)
        # the symbolic and the numerical verdicts must agree with the truth
        return eq_num if diff.is_zero() == eq_num else None


WORKLOADS = {w.name: w for w in (Invariants(), BlowupSymbolic(), RepUnits(), RepWeighted())}
