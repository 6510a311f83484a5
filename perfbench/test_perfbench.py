"""The benchmark's own tests: seeded inputs, oracles, self time, output.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import graphck as G  # noqa: E402
from graphck.ktheory import graph_k_theory  # noqa: E402

from perfbench import gen, oracles, speed, tracing  # noqa: E402
from perfbench.workloads import (WORKLOADS, Batch, _check_ideals,  # noqa: E402
                                 _check_ktheory, _check_verdict, _check_verifications,
                                 run_cli)

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _pass_bytes(name: str, seed: int, index: int = 0) -> bytes:
    batch = WORKLOADS[name].make_pass(seed, index)
    doc = {"items": [asdict(it) for it in batch.items],
           "graphs": {k: g.dsl() for k, g in batch.graphs.items()}}
    return json.dumps(doc, sort_keys=True).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert _pass_bytes(name, 7) == _pass_bytes(name, 7)
    assert _pass_bytes(name, 7) != _pass_bytes(name, 8)
    assert _pass_bytes(name, 7, 0) != _pass_bytes(name, 7, 1)


def test_component_generator_controls_pieces_and_lattice():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(4, 20)
        pieces = rng.randint(1, n)
        g = gen.component_graph(rng, n, pieces)
        assert len(g.vertices) == n
        assert len(oracles.sccs(g)) == pieces
    for band in ((2, 2), (6, 10), (41, 80)):
        g = gen.banded_component_graph(rng, 16, band)
        assert band[0] <= len(oracles.closed_sets_by_components(g)) <= band[1]
        g = gen.banded_component_graph(rng, 12, band, sink_free=True)
        assert not oracles.sinks(g)


def _rand_graph(rng, n, m):
    vs = [f"v{i}" for i in range(n)]
    return oracles.Graph(tuple(vs), tuple((f"e{j}", rng.choice(vs), rng.choice(vs))
                                          for j in range(m)))


def test_lattice_oracles_agree_with_each_other_and_the_library():
    rng = random.Random(11)
    for _ in range(40):
        g = _rand_graph(rng, rng.randint(1, 8), rng.randint(0, 12))
        brute = set(oracles._closed_sets_brute_force(g))
        assert brute == set(oracles.closed_sets_by_components(g))
        lib = {frozenset(v.id for v in h)
               for h in G.enumerate_hereditary_saturated(G.parse_graph(g.dsl()))}
        assert brute == lib


def test_k_group_oracle_agrees_with_smith_form():
    rng = random.Random(5)
    for _ in range(25):
        g = gen.sink_free_graph(rng, rng.randint(2, 25))
        res = graph_k_theory(G.parse_graph(g.dsl()))
        free, minor = oracles.k_group_facts(g)
        assert res.k0_free_rank == free
        order = 1
        for t in res.k0_torsion:
            order *= t
        assert minor % order == 0
        if free == 0:
            assert order == minor


def _cli_result(g: oracles.Graph, *argv, tmp_path):
    path = tmp_path / "g.g"
    path.write_text(g.dsl())
    code, out, _ = run_cli([*argv, "--json", str(path)])
    assert code == 0
    return json.loads(out)["result"]


def _lattice(g):
    return oracles.lattice_order(g, oracles.hereditary_saturated_sets(g))


def test_ideals_oracle_rejects_planted_answers(tmp_path):
    g = gen.SHAPES["u_graph"]
    good = _cli_result(g, "ideals", tmp_path=tmp_path)
    assert _check_ideals(g, good, _lattice(g)).ok
    for mutate in (lambda r: r["sets"].pop(),
                   lambda r: r.__setitem__("simple", not r["simple"]),
                   lambda r: r.__setitem__("condition_K", not r["condition_K"]),
                   lambda r: r["sets"][0].__setitem__("quotient_acyclic", True)):
        bad = copy.deepcopy(good)
        mutate(bad)
        assert not _check_ideals(g, bad, _lattice(g)).ok


def test_simple_defect_is_named_only_for_its_own_mismatch():
    g = gen.SHAPES["single_loop"]
    lattice = _lattice(g)
    right = {"condition_K": False, "lattice_is_full_ideal_lattice": False, "simple": False,
             "sets": [{"vertices": [], "restriction_purely_infinite": True,
                       "quotient_acyclic": False},
                      {"vertices": ["v"], "restriction_purely_infinite": False,
                       "quotient_acyclic": True}],
             "warning": "Condition (K) fails"}
    assert _check_ideals(g, right, lattice).ok
    wrong = dict(right, simple=True)
    outcome = _check_ideals(g, wrong, lattice)
    assert not outcome.ok and outcome.defect == "simple-ignores-condition-L"
    other = dict(wrong, condition_K=True)
    assert _check_ideals(g, other, lattice).defect is None


def test_classify_oracle_rejects_planted_answers(tmp_path):
    rng = random.Random(2)
    for _ in range(10):
        g = gen.banded_component_graph(rng, 8, (2, 60))
        good = _cli_result(g, "classify", tmp_path=tmp_path)
        assert _check_verdict(g, good, _lattice(g)).ok
        bad = copy.deepcopy(good)
        bad["lower"] = 7
        assert not _check_verdict(g, bad, _lattice(g)).ok
        if bad["rules"][0]["rule"] in ("R1", "R3"):
            bad = copy.deepcopy(good)
            bad["rules"][0]["witness"]["ideal_lattice"].pop()
            assert not _check_verdict(g, bad, _lattice(g)).ok


def test_ktheory_oracles_reject_planted_answers(tmp_path):
    rng = random.Random(4)
    g = gen.sink_free_graph(rng, 12)
    while oracles.k_group_facts(g)[0]:  # a nonsingular I - A^t pins the torsion
        g = gen.sink_free_graph(rng, 12)
    good = _cli_result(g, "ktheory", "--verify-m", "3", tmp_path=tmp_path)
    assert _check_ktheory(g, good).ok
    assert _check_verifications(g, good, 3, False, None).ok
    bad = copy.deepcopy(good)
    bad["k1"]["rank"] += 1
    assert not _check_ktheory(g, bad).ok
    bad = copy.deepcopy(good)
    bad["k0"]["torsion"] = bad["k0"]["torsion"] + [2]
    assert not _check_ktheory(g, bad).ok
    bad = copy.deepcopy(good)
    witness = next(iter(bad["verifications"][0]["certificate"]["k0_witnesses"].values()))
    witness[0] += 1
    assert not _check_verifications(g, bad, 3, False, None).ok

    g = gen.banded_component_graph(random.Random(9), 6, (4, 20), sink_free=True)
    good = _cli_result(g, "ktheory", "--verify-m", "2", "--subquotients", tmp_path=tmp_path)
    assert _check_verifications(g, good, 2, True, _lattice(g)).ok
    bad = copy.deepcopy(good)
    bad["verifications"][0]["status"] = "fail"
    assert not _check_verifications(g, bad, 2, True, _lattice(g)).ok


def _run_and_check(name, item, batch, tmp_path):
    wl = WORKLOADS[name]
    files = {}
    for key, g in batch.graphs.items():
        files[key] = tmp_path / f"{key}.g"
        files[key].write_text(g.dsl())
    state = wl.prepare(batch, files)
    return wl, state, wl.run(item, state)


def test_cli_workload_oracles_reject_planted_answers(tmp_path):
    for name in ("invariants", "blowup-symbolic"):
        batch = WORKLOADS[name].make_pass(1, 0)
        seen = set()
        for item in batch.items:
            if item.kind in seen or item.kind == "ktheory":
                continue
            seen.add(item.kind)
            wl, state, result = _run_and_check(name, item, Batch([item], batch.graphs), tmp_path)
            outcome = wl.check(item, batch, result, state)
            assert outcome.ok or outcome.defect, (item.kind, outcome)
            code, out, err = result
            if item.kind == "blowup":
                bad = (code, (out[0] + 1, out[1]), err)
            else:
                report = json.loads(out)
                res = report["result"]
                if item.kind == "approx":
                    res["max_coefficient"] = "7"
                elif item.kind == "quasidiag":
                    res["terms"] += 1
                elif item.kind == "verify-hom":
                    res["pass"] = False
                elif item.kind == "fixture":
                    res["lower"] = 5
                elif item.kind == "analyze":
                    res["conditions"]["acyclic"] = not res["conditions"]["acyclic"]
                elif item.kind in ("classify",):
                    res["upper"] = 9
                elif item.kind == "ideals":
                    res["sets"].pop()
                else:
                    res["k0"]["rank"] += 1
                bad = (code, json.dumps(report), err)
            assert not wl.check(item, batch, bad, state).ok, item.kind
            assert not wl.check(item, batch, (1, out, err), state).ok, item.kind


def test_rep_queries_hold_and_planted_ones_fail(tmp_path):
    for name in ("rep-units", "rep-weighted"):
        batch = WORKLOADS[name].make_pass(3, 0)
        # the cheapest items keep this test quick
        for item in [it for it in batch.items if it.graph in ("single_loop", "two_cycle")][:3]:
            wl, state, result = _run_and_check(name, item, batch, tmp_path)
            assert wl.check(item, batch, result, state).ok
            assert any(q[-1] is False for q in item.params["queries"])
            flipped = [not a for a in result]
            assert not wl.check(item, batch, flipped, state).ok


def test_approx_oracle_matches_the_library_coefficient_table():
    from graphck.rep import k_coefficients

    for m in (2, 4, 6, 8, 16):
        for a in range(0, 3):
            for b in range(0, 2):
                if abs(a - b) < m:
                    table = oracles.coefficient_table(m, a, b)
                    assert table == list(k_coefficients(m, a, b).values)


def test_blowup_counts_match_the_library():
    g = gen.regular_graph(random.Random(1), 2, 2)
    for m in range(1, 6):
        bg = G.blowup_graph(G.parse_graph(g.dsl()), m)
        assert oracles.path_counts(g, m) == (len(bg.graph.vertices), len(bg.graph.edges))


def _tracer(spans):
    """spans: (name, start, end, parent); one item."""
    t = tracing.Tracer()
    for name, start, end, parent in spans:
        t.name.append(0 if name == "item" else t.name_id(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.item.append(0)
    return t


def test_self_time_on_a_synthetic_span_tree():
    t = _tracer([("item", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("a1", 2.0, 3.0, 1),
                 ("b", 5.0, 9.0, 0), ("b1", 5.5, 6.0, 3), ("b2", 7.0, 8.5, 3)])
    self_s = t.self_times()
    assert list(self_s) == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5])
    assert sum(self_s) == pytest.approx(10.0)
    lines, gap = tracing.self_time_report(t, self_s)
    assert gap == pytest.approx(0.0)
    assert lines[1].split()[0] in ("item", "a", "b")


def test_self_time_takes_the_union_of_overlapping_children():
    t = _tracer([("item", 0.0, 10.0, -1), ("a", 1.0, 5.0, 0), ("b", 3.0, 7.0, 0),
                 ("c", 9.0, 12.0, 0)])
    assert t.self_times()[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_speed_scaling_uses_the_probes_around_each_item():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    probe.samples = [(0, ref), (1, ref), (3, 2 * ref), (4, 4 * ref), (5, 4 * ref)]
    # item 0: probes 0, 1, 3; items 1-2: probes 0, 1, 3, 4; item 3: probes 1, 3, 4, 5
    # item 4: probes 3, 4, 5
    assert probe.scaled([1.0] * 5) == pytest.approx([1.0, 1 / 1.5, 1 / 1.5, 1 / 3, 1 / 4])
    probe.samples = []
    probe.mark(0)
    probe.after_item(speed.EVERY_S / 2, 1)
    assert len(probe.samples) == 1
    probe.after_item(speed.EVERY_S / 2, 2)
    assert [pos for pos, _ in probe.samples] == [0, 2]


def test_failures_count_distinct_corpus_items_whatever_the_run_length():
    from perfbench.run import Record, failure_summary

    def runs(passes):
        # corpus pass 1 holds one item whose every run fails
        return [Record((index % 2, pos), "ideals", 0.01, (index % 2, pos) != (1, 0),
                       None if (index % 2, pos) != (1, 0) else "simple-ignores-condition-L", "")
                for index in range(passes) for pos in range(3)]

    short, long = failure_summary(runs(2)), failure_summary(runs(7))
    assert short[:2] == long[:2] == (6, {"simple-ignores-condition-L": 1})


def test_traced_names_cover_the_graphck_layers():
    layers = {p.stem for p in (ROOT / "src" / "graphck").glob("*.py")} - {"__init__", "errors"}
    assert {prefix.split(".")[0] for prefix, *_ in tracing.TARGETS} == layers


def test_install_wraps_imported_aliases_and_restores():
    classify_mod = sys.modules["graphck.classify"]
    cli_mod = sys.modules["graphck.cli"]
    original = sys.modules["graphck.graphs"].enumerate_hereditary_saturated
    graph = G.parse_graph(gen.SHAPES["two_loop"].dsl())
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert classify_mod.enumerate_hereditary_saturated is not original
        tracer.item_id = 0
        cli_mod.classify_graph(graph)
    finally:
        restore()
    assert classify_mod.enumerate_hereditary_saturated is original
    names = [tracer.names[i] for i in tracer.name]
    assert names[0] == "classify.classify"
    assert "graphs.enumerate_hereditary_saturated" in names
    child = names.index("graphs.enumerate_hereditary_saturated")
    assert tracer.parent[child] == 0


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_one_command_prints_every_end_to_end_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(RUN + ["--workload", "all", "--seed", "1", "--seconds", "0.01"],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    table = proc.stdout.strip().splitlines()
    header = next(line for line in table if line.startswith("workload") and "[1/s]" in line)
    for metric, unit in (("items_per_s", "1/s"), ("item_p50_ms", "ms"), ("item_tail_ms", "ms"),
                         ("failed_ratio", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s")):
        assert f"{metric} [{unit}]" in header
    for w in spec["workloads"]:
        assert any(line.startswith(w["name"] + " ") for line in table[-4:])
    results = [json.loads(line) for line in table if line.startswith('{"correct"')]
    assert len(results) == 4
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for res in results:
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_traced_run_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(RUN + ["--workload", "rep-weighted", "--seed", "1", "--seconds", "0.01",
                                 "--trace", "1"],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = _last_json(proc.stdout)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert "self-time closure gap" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "invariants",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
