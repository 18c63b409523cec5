"""Tests of the benchmark itself: fidelity to the CLI, determinism by seed,
the traced verify pass, and the per-layer metrics.

Run with ``python3 -m pytest bench`` from the root of the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from latpoly.cli import main as cli_main
from query import BLOCKS, Query, handle
from spans import CHECKER_SPANS, COUNTERS, PER_LAYER_UNITS
from workloads import ACCEPTANCE_FIXTURES, LARGER_FIXTURES, Closure, Item, Verify

# used only here, never while the benchmark was tuned
UNTUNED_SEED = 424_242
# every fixture but B2 n=2 and chain4 n=2, which take seconds
SMALL_FIXTURES = tuple(fx for fx in ACCEPTANCE_FIXTURES + LARGER_FIXTURES if fx[3] <= 1_000)


def _first_blocks(seed, blocks):
    """A query workload cut to its first blocks, each of which asks every
    (lattice, arity, command) cell once."""
    workload = Query(seed)
    workload.items = workload.items[: len(workload.items) // BLOCKS * blocks]
    return workload


def _cli_argv(req, lattice_path, table_path):
    argv = [req.command.removesuffix("-term").removesuffix("-table")]
    argv += ["--lattice", str(lattice_path), "--arity", str(req.arity)]
    if req.table_text is not None:
        argv += ["--table", str(table_path)]
    for term in req.terms:
        argv += ["--term", term]
    if req.limit is not None:
        argv += ["--limit", str(req.limit)]
    return argv


@pytest.mark.parametrize("seed", [3, UNTUNED_SEED])
def test_query_answers_match_the_cli(seed, tmp_path, capsys):
    for item in _first_blocks(seed, 1).items:
        req = item.spec
        lattice_path = tmp_path / "lattice.txt"
        lattice_path.write_text(req.lattice_text)
        table_path = tmp_path / "table.txt"
        if req.table_text is not None:
            table_path.write_text(req.table_text)
        code = cli_main(_cli_argv(req, lattice_path, table_path))
        printed = capsys.readouterr()
        assert printed.err == "", item.name
        assert (printed.out.splitlines(), code) == handle(req), item.name


def test_same_seed_gives_same_stream_and_digest():
    a, b = _first_blocks(11, 2), _first_blocks(11, 2)
    assert Query(11).items == Query(11).items
    assert Query(12).items != Query(11).items
    assert [handle(i.spec) for i in a.items] == [handle(i.spec) for i in b.items]
    assert [i.name for i in Verify(11).items] == [i.name for i in Verify(11).items]


@pytest.mark.parametrize("seed", [7, UNTUNED_SEED])
def test_query_gates_pass(seed):
    workload = _first_blocks(seed, 2)
    assert [workload.failures(i, workload.run(i)) for i in workload.items] == [0] * len(workload.items)


def test_gates_catch_wrong_answers():
    workload = _first_blocks(5, 1)
    by_command = {}
    for item in workload.items:
        by_command.setdefault(item.spec.command, item)
    assert workload.failures(by_command["check-term"], (["polynomial: FAIL"], 1)) == 1
    assert workload.failures(by_command["dnf-count"], (["count: 0"], 0)) == 1
    lines, code = workload.run(by_command["equiv"])
    flipped = "false" if lines[0].endswith("true") else "true"
    assert workload.failures(by_command["equiv"], ([f"equivalent: {flipped}"], code)) == 1
    b2 = next(fx for fx in ACCEPTANCE_FIXTURES if fx[:2] == ("B2", 2))
    item = Item("B2/n=2", b2[3], (b2,))
    assert Verify(1).failures(item, (("exhaustive", 28_224, 35, 0),)) == item.ops
    assert Verify(1).failures(item, (("exhaustive", 28_224, 36, 2),)) == 2


def _small_verify(seed):
    workload = Verify(seed)
    workload.items = [Item("small", sum(fx[3] for fx in SMALL_FIXTURES), SMALL_FIXTURES)]
    return workload


@pytest.mark.parametrize("seed", [1, UNTUNED_SEED])
def test_traced_verify_reproduces_verify_equivalence(seed):
    metrics, _, attempted, failed, _ = run.traced_run(_small_verify(seed), seed)
    assert failed == 0
    assert attempted == 2 * sum(i.ops for i in _small_verify(seed).items)
    assert metrics["conditions.tables"] == attempted // 2
    assert all(metrics[f"conditions.{name}_s"] > 0 for name in CHECKER_SPANS)


def test_traced_runs_emit_every_metric_with_repeatable_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    for make in (lambda: _small_verify(2), lambda: _first_blocks(2, 1)):
        first, units, _, failed, _ = run.traced_run(make(), 2)
        second, _, _, _, _ = run.traced_run(make(), 2)
        assert failed == 0
        assert set(first) == set(PER_LAYER_UNITS) == set(units)
        counts = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count"]
        assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
        assert set(COUNTERS) <= set(counts)
    spans = [json.loads(line) for line in (tmp_path / ".bench_out" / "spans-query-2.jsonl").open()]
    assert {s["layer"] for s in spans} >= {"cli", "lattice", "terms", "conditions"}
    assert all(s["parent"] is None or spans[s["parent"]]["request"] == s["request"] for s in spans)


def test_closure_items_are_fixed_facts():
    items = Closure(UNTUNED_SEED).items
    assert sorted(i.spec for i in items) == sorted(i.spec for i in Closure(0).items)
    b3 = next(i for i in items if i.name == "B3/n=2")
    assert Closure(0).failures(b3, Closure(0).run(b3)) == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(Path(run.__file__).parent, bench, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "verify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
