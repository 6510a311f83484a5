"""Command-line front end: parse the graph DSL, dispatch, report, exit code.

`_COMMANDS` lists every subcommand once: name, handler, help and arguments;
`main` builds the argparse tree from it on its first call.  A report
handler only computes: given the graph and the arguments it returns
(result, text lines, exit code, citations), and `_run_report` times the
command, reads the graph, assembles the `graphck/1` report and prints it.
`blowup`, `jeong-park` and `corpus` print their own output.

Exit codes: 0 success or PASS, 1 verification FAIL, 2 usage, parse, file or
precondition error, 3 resource limit, 4 internal error (one stderr line).
Reports are deterministic for fixed input and flags; timing is reported
outside the result payload.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path as FsPath

from .classify import classify as classify_graph
from .classify import ideal_report
from .ktheory import (KTheoryResult, _k_theory_with_certificate, graph_k_theory,
                      verify_multiplication_by_m, verify_on_subquotients)
from .construct import blowup_graph, jeong_park_subgraph
from .dsl import emit_graph, parse_graph, parse_pathspec
from .errors import ContractViolation, DslError, GraphckError, ResourceLimit
from .graphs import DirectedGraph, every_vertex_connects_to_cycle, is_acyclic, sinks
from .rep import kappa_matrix, approximation_gap
from .symbolic import (AlgebraMode, commutator_is_zero, edge_isometry,
                       gabe_approximate_identity, iota_image, jm_image,
                       sums_equal, verify_tck_family, vertex_projection)

SCHEMA = "graphck/1"


def _digest(g: DirectedGraph) -> str:
    return hashlib.sha256(emit_graph(g).encode("utf-8")).hexdigest()


def _read_graph(path: str) -> DirectedGraph:
    # bytes, not text: stdin may decode with surrogateescape and hide bad input
    data = sys.stdin.buffer.read() if path == "-" else FsPath(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DslError(f"input is not UTF-8: invalid byte at offset {exc.start}") from None
    return parse_graph(text)


def _run_report(command: str, handler, args) -> int:
    """Time a report command, read its graph (none for `kappa`), wrap the
    handler's result in the `graphck/1` report and print it as JSON or as
    the handler's text lines; return the handler's exit code."""
    started = time.monotonic()
    g = _read_graph(args.graph) if "graph" in args else None
    result, lines, code, citations = handler(g, args)
    report = {
        "schema": SCHEMA,
        "command": command,
        "input_digest": _digest(g) if g is not None else None,
        "result": result,
        "citations": citations,
        "timing_ms": round(1000.0 * (time.monotonic() - started), 3),
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        for line in lines:
            print(line)
    return code


def _ktheory_payload(res: KTheoryResult) -> dict:
    return {"k0": {"rank": res.k0_free_rank, "torsion": res.k0_torsion},
            "k1": {"rank": res.k1_rank}}


def _analyze(g: DirectedGraph, args):
    report = ideal_report(g)
    ends = sinks(g)
    conditions = {
        "condition_K": report.condition_k,
        "every_vertex_connects_to_cycle": every_vertex_connects_to_cycle(g),
        "acyclic": is_acyclic(g),
        "sinks": [v.id for v in ends],
    }
    ideals = report.as_dict()
    if ends:
        ktheory = {"skipped": "graph has sinks"}
    else:
        ktheory = _ktheory_payload(graph_k_theory(g))
    verdict = classify_graph(g)
    result = {"conditions": conditions, "ideals": ideals, "ktheory": ktheory,
              "classification": verdict.as_dict()}
    lines = [f"condition (K): {conditions['condition_K']}",
             f"every vertex connects to a cycle: "
             f"{conditions['every_vertex_connects_to_cycle']}",
             f"acyclic: {conditions['acyclic']}",
             f"sinks: {', '.join(conditions['sinks']) or 'none'}",
             f"gauge-invariant ideal lattice: {len(ideals['sets'])} sets",
             f"K-theory: {ktheory}",
             f"nuclear dimension: lower={verdict.lower} upper={verdict.upper} "
             f"toeplitz_upper={verdict.toeplitz_upper}"]
    return result, lines, 0, [r.citation for r in verdict.rules_fired]


def _ktheory(g: DirectedGraph, args):
    if args.subquotients and args.verify_m is None:
        raise ContractViolation("--subquotients needs --verify-m M")
    if args.verify_m is None or args.subquotients:
        res, cert = graph_k_theory(g), None
    else:
        res, cert = _k_theory_with_certificate(g, args.verify_m)
    payload = _ktheory_payload(res)
    payload["verifications"] = []
    ok = True
    if args.subquotients:
        report = verify_on_subquotients(g, args.verify_m)
        for e in report.entries:
            payload["verifications"].append({
                "target": e.target, "m": args.verify_m,
                "pass": e.status == "pass",
                "status": e.status,
                "certificate": _cert_payload(e.certificate)})
        ok = report.ok
    elif cert is not None:
        entry = _whole_graph_entry(cert)
        payload["verifications"].append({"target": "whole graph", **entry})
        ok = entry["pass"]
    lines = [f"K0: free rank {res.k0_free_rank}, torsion {res.k0_torsion or 'none'}",
             f"K1: free rank {res.k1_rank}"]
    for v in payload["verifications"]:
        lines.append(f"multiplication by {v['m']} on {v['target']}: "
                     + ("PASS" if v["pass"] else "FAIL"))
    return payload, lines, 0 if ok else 1, []


def _whole_graph_entry(cert) -> dict:
    """The whole graph's multiplication-by-m entry; its `pass` re-checks
    every stored witness and decides the exit code."""
    return {"m": cert.m, "pass": cert.reverify(), "certificate": _cert_payload(cert)}


def _cert_payload(cert) -> dict:
    return {"ok": cert.ok,
            "k0_witnesses": cert.k0_witnesses,
            "k1_basis": cert.k1_basis,
            "failure": cert.failure}


def _ideals(g: DirectedGraph, args):
    report = ideal_report(g)
    lines = []
    for e in report.entries:
        lines.append("{" + ",".join(e.vertices) + "}: "
                     f"restriction purely infinite={e.restriction_purely_infinite}, "
                     f"quotient acyclic={e.quotient_acyclic}")
    if report.warning:
        lines.append("warning: " + report.warning)
    return report.as_dict(), lines, 0, []


def _classify(g: DirectedGraph, args):
    verdict = classify_graph(g)
    lines = [f"nuclear dimension lower bound: {verdict.lower}",
             f"nuclear dimension upper bound: {verdict.upper}",
             f"Toeplitz algebra upper bound: {verdict.toeplitz_upper}"]
    for r in verdict.rules_fired:
        lines.append(f"[{r.rule}] {r.citation}")
    return verdict.as_dict(), lines, 0, [r.citation for r in verdict.rules_fired]


def _cmd_blowup(args) -> int:
    g = _read_graph(args.graph)
    bg = blowup_graph(g, args.m)
    sys.stdout.write(emit_graph(bg.graph))
    return 0


def _cmd_jeong_park(args) -> int:
    g = _read_graph(args.graph)
    v_set = {g.vertex(x) for x in args.vertices.split(",") if x} if args.vertices else set()
    f_set = {g.edge(x) for x in args.edges.split(",") if x} if args.edges else set()
    sub = jeong_park_subgraph(g, v_set, f_set)
    sys.stdout.write(emit_graph(sub))
    return 0


def _kappa(g: None, args):
    kappa = kappa_matrix(args.m)
    rows = [[str(x) for x in row] for row in kappa.entries]
    width = max(len(s) for row in rows for s in row)
    lines = ["  ".join(s.rjust(width) for s in row) for row in rows]
    return {"m": args.m, "entries": rows}, lines, 0, []


def _approx(g: DirectedGraph, args):
    mu = parse_pathspec(g, args.mu)
    nu = parse_pathspec(g, args.nu)
    bg = blowup_graph(g, args.m)
    gap = approximation_gap(bg, mu, nu, args.depth)
    result = {
        "m": args.m, "mu": mu.id, "nu": nu.id,
        "max_coefficient": str(gap.max_coefficient),
        "k_values": [str(v) for v in gap.coefficients.values],
        "max_defect": str(gap.coefficients.max_defect),
        "difference_terms": gap.difference_terms,
    }
    lines = [f"max |coefficient| of the gap: {gap.max_coefficient}",
             f"per-length coefficient sums: "
             + " ".join(str(v) for v in gap.coefficients.values),
             f"max defect from the coefficient table: {gap.coefficients.max_defect}"]
    return result, lines, 0, []


def _verify_hom(g: DirectedGraph, args):
    bg = blowup_graph(g, args.m)
    if args.which == "iota":
        vertex_images = {v: iota_image(bg, v) for v in g.vertices}
        edge_images = {e: iota_image(bg, e) for e in g.edges}
        check = verify_tck_family(g, vertex_images, edge_images,
                                  AlgebraMode.TOEPLITZ)
        target = "inclusion into the blow-up (relation-free mode)"
    else:
        em = bg.graph
        vertex_images = {v: jm_image(bg, v) for v in em.vertices}
        edge_images = {e: jm_image(bg, e) for e in em.edges}
        check = verify_tck_family(em, vertex_images, edge_images,
                                  AlgebraMode.CUNTZ_KRIEGER)
        target = "reinclusion into the base algebra with matrix units"
    result = {"which": args.which, "m": args.m, "pass": check.ok,
              "failed_relation": check.failed_relation}
    line = f"{target}: " + ("PASS" if check.ok else f"FAIL ({check.failed_relation})")
    return result, [line], 0 if check.ok else 1, []


def _quasidiag(g: DirectedGraph, args):
    h = {g.vertex(x) for x in args.ideal.split(",") if x}
    x = {g.vertex(t) for t in args.window.split(",") if t}
    e_x = gabe_approximate_identity(g, h, x)
    failures = []
    if not sums_equal(e_x * e_x, e_x, AlgebraMode.CUNTZ_KRIEGER):
        failures.append("projection")
    words = [("p_" + v.id, vertex_projection(g, v)) for v in g.vertices if v in x]
    for e in g.edges:
        if e.source in x and e.range in x:
            words.append(("s_" + e.id, edge_isometry(g, e)))
    for name, w in words:
        if not commutator_is_zero(e_x, w):
            failures.append(f"commutator({name})")
    result = {"ideal": sorted(v.id for v in h), "window": sorted(v.id for v in x),
              "terms": len(e_x.terms), "pass": not failures, "failures": failures}
    line = "PASS" if not failures else "FAIL (" + ", ".join(failures) + ")"
    return result, [line], 0 if not failures else 1, []


def _verify_m(g: DirectedGraph, args):
    result = _whole_graph_entry(verify_multiplication_by_m(g, args.m))
    ok = result["pass"]
    return (result, ["PASS" if ok else f"FAIL ({result['certificate']['failure']})"],
            0 if ok else 1, [])


def _cmd_corpus(args) -> int:
    root = FsPath(args.directory)
    if not root.is_dir():
        raise ContractViolation(f"{args.directory} is not a directory")
    fixtures = sorted(root.glob("*.expect.json"))
    if not fixtures:
        raise ContractViolation(f"no *.expect.json fixtures in {args.directory}")
    failures = []
    for expect_file in fixtures:
        spec = json.loads(expect_file.read_text(encoding="utf-8"))
        graph_file = expect_file.with_name(expect_file.name.replace(".expect.json", ".g"))
        argv = list(spec["command"]) + ["--json", str(graph_file)]
        if _run_capture(argv).get("result") != spec["result"]:
            failures.append(expect_file.name)
            print(f"{expect_file.name}: MISMATCH")
        else:
            print(f"{expect_file.name}: ok")
    if failures:
        print(f"{len(failures)} fixture(s) failed")
        return 1
    print(f"all {len(fixtures)} fixture(s) match")
    return 0


def _run_capture(argv: list[str]) -> dict:
    """Run a command, capturing its JSON report instead of printing it."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        main(argv)
    text = buf.getvalue()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return {"result": text}


_GRAPH = ("graph", {"help": "graph DSL file, or - for stdin"})
_JSON = ("--json", {"action": "store_true", "help": "machine-readable report"})
_M = ("--m", {"type": int, "required": True})

# In subcommand order: name, handler, whether the handler builds a report,
# help, arguments.  A report handler takes (graph, args) and returns
# (result, text lines, exit code, citations) for `_run_report`; the others
# take args, print their own output and return the exit code.
_COMMANDS = (
    ("analyze", _analyze, True, "conditions, ideals, K-theory, classification",
     (_GRAPH, _JSON)),
    ("ktheory", _ktheory, True, "K-groups and multiplication-by-m checks",
     (_GRAPH, _JSON, ("--verify-m", {"type": int, "default": None, "metavar": "M"}),
      ("--subquotients", {"action": "store_true"}))),
    ("ideals", _ideals, True, "gauge-invariant ideal lattice report", (_GRAPH, _JSON)),
    ("classify", _classify, True, "nuclear-dimension bounds", (_GRAPH, _JSON)),
    ("blowup", _cmd_blowup, False, "emit the m-th blow-up graph as DSL",
     (_GRAPH, _M)),
    ("jeong-park", _cmd_jeong_park, False, "closure subgraph containing the inputs",
     (_GRAPH, ("--vertices", {"default": "", "help": "comma-separated vertex ids"}),
      ("--edges", {"default": "", "help": "comma-separated edge ids"}))),
    ("kappa", _kappa, True, "print the exact weight matrix", (_JSON, _M)),
    ("approx", _approx, True, "compression-vs-inclusion gap of a word",
     (_GRAPH, _JSON, ("--depth", {"type": int, "default": None,
                                  "help": "leveling depth for symbolic equality"}), _M,
      ("--mu", {"required": True, "help": "path: vertex id or dot-joined edge ids"}),
      ("--nu", {"required": True, "help": "path: vertex id or dot-joined edge ids"}))),
    ("verify-hom", _verify_hom, True, "check generator images form a family",
     (_GRAPH, _JSON, ("--which", {"choices": ("iota", "jm"), "required": True}), _M)),
    ("verify-m", _verify_m, True, "multiplication-by-m certificate", (_GRAPH, _JSON, _M)),
    ("quasidiag", _quasidiag, True, "window projection and commutation checks",
     (_GRAPH, _JSON,
      ("--ideal", {"required": True, "help": "comma-separated vertex ids"}),
      ("--window", {"required": True, "help": "comma-separated vertex ids"}))),
    ("corpus", _cmd_corpus, False, "run fixture directory and compare reports",
     (("directory", {}),)),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built from `_COMMANDS` on the first `main` call
    and reused for the rest of the process."""
    parser = argparse.ArgumentParser(
        prog="graphck",
        description="invariants and verdicts for finite-graph operator algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, report, summary, arguments in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=functools.partial(_run_report, name, handler) if report
                       else handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        # argparse exits 2 on usage errors already; normalize the success path
        if ex.code in (0, None):
            return 0
        return 2
    try:
        return args.func(args)
    except ResourceLimit as ex:
        print(f"resource limit: {ex}", file=sys.stderr)
        return 3
    except (GraphckError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except Exception as ex:
        # never exit 1, which reads as a verification FAIL
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
