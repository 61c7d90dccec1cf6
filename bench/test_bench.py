"""Tests of the benchmark itself: python3 -m pytest bench -q

They cover the seeded generators, the reference checks, the percentile and
self-time arithmetic, and that what the benchmark prints matches
BENCHMARK.json.  ``test_smoke`` runs every workload for a second, untraced
and traced, through ``run.py --smoke``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from propalg import FALSE, TRUE, Cond, Variety, atom, congruent_oracle, desugar, in_variety, parse, project  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_requests_are_determined_by_the_seed(name):
    cls = workloads.WORKLOADS[name]
    first, again, other = cls(7, 0).requests(40), cls(7, 0).requests(40), cls(8, 0).requests(40)
    assert first == again
    assert first != other


def test_tables_are_determined_by_the_seed_and_memorizing_ones_are_members():
    names = ("a", "b")
    h = gen.table(random.Random(1), names, 4, memorizing=True)
    assert h.replies == gen.table(random.Random(1), names, 4, memorizing=True).replies
    assert in_variety(h, Variety.MEM)
    free = gen.table(random.Random(1), names, 4, memorizing=False)
    assert len(free.replies) == 2 + 4 + 8 + 16


def test_reference_desugaring_and_truth_tables():
    rng = random.Random(3)
    for _ in range(200):
        tree = gen.sugar_tree(rng, "abcd", 3)
        assert desugar(parse(gen.text(tree))) is gen.core(tree)
    assert gen.truth_table(("land", ("atom", "a"), ("not", ("atom", "a")))) == (False, True)
    assert gen.truth_table(("liff", ("atom", "a"), ("atom", "a"))) == (True, False)
    assert gen.truth_table(("cond", ("T",), ("atom", "b"), ("F",))) == (True, True)


def test_flipped_fresh_leaf_is_never_congruent():
    rng = random.Random(5)
    a, b = atom("a"), atom("b")
    bf = Cond(Cond(TRUE, a, FALSE), a, Cond(FALSE, b, TRUE))
    for k in (Variety.FR, Variety.CR, Variety.MEM, Variety.ST):
        q = gen.flip_fresh_leaf(rng, bf)
        assert q is not None and not congruent_oracle(bf, q, k)
    every_path_repeats = Cond(Cond(TRUE, a, FALSE), a, Cond(FALSE, a, TRUE))
    assert gen.flip_fresh_leaf(rng, every_path_repeats) is None


def test_truncate_and_monotest_references():
    rng = random.Random(9)
    for _ in range(50):
        t = gen.basic(rng, "abc", 4)
        for n in (1, 2, 3):
            assert gen.truncate(t, n) is project(n, t)
    a = atom("a")
    assert gen.is_monotest(Cond(TRUE, a, FALSE))
    assert not gen.is_monotest(Cond(Cond(TRUE, a, FALSE), a, FALSE))


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert spans.percentile(values, 0.5) == 50
    assert spans.percentile(values, 0.99) == 99
    assert spans.percentile(values, 1.0) == 100
    assert spans.percentile([4.0], 0.99) == 4
    assert spans.beyond(100, 0.99) == 1
    assert spans.beyond(1000, 0.99) == 10
    assert spans.beyond(200, 0.95) == 10


def test_self_time_subtracts_covered_child_time():
    recorded = [
        ("request", 0.0, 10.0, -1, 0),
        ("syntax.parse", 1.0, 3.0, 0, 0),
        ("congruence.normalize", 4.0, 8.0, 0, 0),
        ("congruence.equal", 5.0, 6.0, 2, 0),
        ("congruence.equal", 5.5, 7.0, 2, 0),  # overlaps its sibling: counted once
    ]
    assert spans.self_times(recorded) == [4.0, 2.0, 2.0, 1.0, 1.5]
    busy = spans.layer_busy(recorded)
    assert busy["congruence"] == (4.5, 3)
    assert busy["syntax"] == (2.0, 1)


def test_host_scale_is_reference_over_mean_sample():
    host = run.HostSpeed()
    host.samples = [0.5e-3, 1.5e-3, 1.0e-3]
    assert host.scale() == pytest.approx(run.REFERENCE_S / 1.0e-3)
    host = run.HostSpeed()
    host.tick()
    host.tick()  # within CALIBRATE_EVERY_S of the first: no second sample
    assert len(host.samples) == 1 and host.samples[0] > 0 and host.spent >= host.samples[0]
    host.sample()
    assert len(host.samples) == 2


def test_tracer_records_parents_requests_and_failures():
    tracer = spans.Tracer()
    tracer.request = 4
    root = tracer.begin("request")
    ok = tracer.wrap("syntax.parse", lambda text: text.upper())
    boom = tracer.wrap("oracle.check", lambda: 1 / 0)
    assert ok("a") == "A"
    with pytest.raises(ZeroDivisionError):
        boom()
    tracer.end(root)
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("request", -1, 4),
        ("syntax.parse", 0, 4),
        ("oracle.check", 0, 4),
    ]
    assert all(s[1] <= s[2] for s in tracer.spans)
    assert tracer.failures == {("oracle.check", 4, "ZeroDivisionError"): 1}
    assert spans.layer_busy(tracer.spans, {5}) == {}
    assert spans.layer_busy(tracer.spans, {4})["syntax"][1] == 1


class _Flaky:
    """A workload stub whose every third request raises."""

    name, chunk, rss_requests, layer_chunks = "flaky", 4, 6, 2

    def __init__(self):
        self.next_id = 0

    def requests(self, n):
        self.next_id += n
        return list(range(self.next_id - n, self.next_id))

    def run(self, api, req):
        if req % 3 == 2:
            raise RecursionError("too deep")
        return api.echo(req)

    def digest(self, req, out):
        return out


def test_raised_requests_are_failures_not_samples():
    api = SimpleNamespace(echo=lambda x: x)
    m = run.measure(_Flaky(), (api, api), None, 0.0)
    assert m.rss_kb is not None
    attempted = len(m.done) + len(m.errors)
    assert attempted >= 6 and [rid for rid, _ in m.errors] == [i for i in range(attempted) if i % 3 == 2]
    assert len(m.latencies) == sum(m.served) == len(m.done)


def test_per_layer_figures_cover_a_fixed_set_of_requests():
    tracer = spans.Tracer()
    api = SimpleNamespace(echo=lambda x: x)
    m = run.measure(_Flaky(), (api, SimpleNamespace(echo=tracer.wrap("syntax.echo", api.echo))), tracer, 0.0)
    # Chunks alternate untraced, traced: the first two traced chunks are requests 4-7 and 12-15.
    assert m.layer_ids == {4, 5, 6, 7, 12, 13, 14, 15}
    assert spans.layer_busy(tracer.spans, m.layer_ids)["syntax"][1] == 6


def test_metric_names_and_units_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_smoke():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {
        f"{w['name']}.{m['name']}" for w in SPEC["workloads"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    }
    assert set(result["metrics"]) == expected


def test_refuses_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide-stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_refuses_optimized_interpreter():
    proc = subprocess.run(
        [sys.executable, "-O", str(HERE / "run.py"), "--workload", "decide-stream", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 2
    assert "-O" in proc.stderr
