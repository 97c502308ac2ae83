"""Tests of the benchmark itself: generators, oracles, tracer and names.

    python3 -m pytest -q perfbench/tests
"""

import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import jacsyz  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# the lightest stratum of every job kind, so each job takes well under 1 s
LIGHT = {"cone": ("cone", 3, 6), "arrangement": ("arrangement", 6, 3),
         "pencil": ("pencil", 3), "rational": ("rational", 4, 3)}


def _input(kind):
    inp = workloads.draw(random.Random("test"), LIGHT[kind])
    workloads.build_objects(inp)
    return inp


def _ctx():
    return workloads.Context(jacsyz.make_backend(seed=0),
                             jacsyz.make_backend("rational"))


def _raw(deck):
    return [[(i.kind, i.raw) for i in rnd] for rnd in deck]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    wl = WORKLOADS[name]
    first = _raw(workloads.generate(wl, 7))
    assert first == _raw(workloads.generate(wl, 7))
    assert first != _raw(workloads.generate(wl, 8))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_round_has_the_stated_mix(name):
    wl = WORKLOADS[name]
    want = {}
    for stratum, n in wl.strata:
        label = workloads.draw(random.Random(0), stratum).label
        want[label] = want.get(label, 0) + n
    for rnd in workloads.generate(wl, 3):
        got = {}
        for inp in rnd:
            got[inp.label] = got.get(inp.label, 0) + 1
        assert got == want


def _free_draw(rng):
    """Stratum of one unrestricted 10-cones draw: e uniform in {3, 4, 5}."""
    e = rng.choice((3, 4, 5))
    while True:
        lines = workloads.random_lines(rng, e)
        if len(workloads.intersection_points(lines)) < 2:
            continue
        apex = tuple(rng.randint(1, 7) for _ in range(3))
        if all(sum(a * b for a, b in zip(l, apex)) for l in lines):
            return ("cone", e, e + workloads.cone_lines_added(lines, apex))


def _generic_draw(rng):
    """Stratum of one unrestricted arrangement of d in 6..11 lines."""
    d = rng.randint(6, 11)
    lines = workloads.random_lines(rng, d)
    return ("arrangement", d,
            max(workloads.intersection_points(lines).values()))


@pytest.mark.parametrize("name,draw", [("free_curves", _free_draw),
                                       ("generic_arrangements",
                                        _generic_draw)])
def test_strata_follow_the_shares_of_the_random_draw(name, draw):
    rng, samples = random.Random(5), 3000
    drawn = Counter(draw(rng) for _ in range(samples))
    counts = {st: n for st, n in WORKLOADS[name].strata
              if st[0] == next(iter(drawn))[0]}
    size = sum(counts.values())
    # largest remainder leaves each count within one job of its share;
    # 0.035 allows for the sampling error of the drawn shares
    for stratum in set(drawn) | set(counts):
        share = drawn[stratum] / samples
        assert abs(counts.get(stratum, 0) / size - share) < 1 / size + 0.035


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tail_is_the_highest_percentile_with_ten_jobs_beyond(name):
    wl = WORKLOADS[name]
    rounds = -(-wl.min_jobs // wl.round_size)
    n = rounds * wl.round_size  # jobs of the shortest run
    assert n - workloads.percentile_rank(wl.tail_pct, n) >= 10
    assert n - workloads.percentile_rank(wl.tail_pct + 1, n) < 10


def test_free_curves_tail_is_an_e5_job():
    # e=5 cones (d=13, 15) are the slowest jobs, so the tail job is one of
    # them if more than ten of them run
    wl = WORKLOADS["free_curves"]
    rounds = -(-wl.min_jobs // wl.round_size)
    n = rounds * wl.round_size
    e5 = rounds * sum(k for st, k in wl.strata if st[1] == 5)
    assert e5 >= n - workloads.percentile_rank(wl.tail_pct, n) + 1


def _tamper_cone(out):
    return out[:2] + (out[2] + 1,) + out[3:]


def _tamper_exponents(out):
    return (out[0], tuple(reversed(out[1])) if out[1] else (0, 0)) + out[2:]


def _tamper_tau(out):
    return out[:2] + (out[2] + 1,) + out[3:]


def _tamper_disc(out):
    return (out[0], out[1] - 1) + out[2:]


CASES = [("cone", _tamper_cone), ("cone", _tamper_exponents),
         ("arrangement", _tamper_tau), ("pencil", _tamper_disc),
         ("rational", _tamper_tau)]


@pytest.mark.parametrize("kind,tamper", CASES)
def test_oracle_accepts_the_job_and_rejects_a_tampered_result(kind, tamper):
    inp, ctx = _input(kind), _ctx()
    res = workloads.JOBS[inp.kind](inp, ctx)
    assert workloads.oracle(inp, res, ctx) is None
    bad = dict(res, out=tamper(res["out"]))
    assert workloads.oracle(inp, bad, ctx) is not None
    # the tampered job counts as failed
    verdicts = workloads.check([inp, inp], [res, bad], ctx)
    assert [v is None for v in verdicts] == [True, False]


def test_oracle_rejects_a_wrong_certificate():
    inp, ctx = _input("arrangement"), _ctx()
    res = workloads.JOBS[inp.kind](inp, ctx)
    cert = res["cert"]
    wrong = jacsyz.SyzygyTriple(cert.b, cert.a, cert.c, cert.f_degree)
    assert workloads.oracle(inp, dict(res, cert=wrong), ctx) is not None


def test_a_raising_job_is_counted_as_failed():
    inp, ctx = _input("cone"), _ctx()
    wl = WORKLOADS["free_curves"]
    saved = workloads.JOBS["cone"]
    workloads.JOBS["cone"] = lambda i, c: 1 / 0
    try:
        _, results, _, _, _ = workloads.run_loop(wl, [[inp]], ctx, rounds=2)
    finally:
        workloads.JOBS["cone"] = saved
    verdicts = workloads.check([inp, inp], results, ctx)
    assert all(v and v.startswith("ZeroDivisionError") for v in verdicts)


def test_traced_jobs_give_the_untraced_outputs_and_restore_the_program():
    ctx = _ctx()
    deck = [[_input(kind) for kind in LIGHT]]
    wl = WORKLOADS["generic_arrangements"]
    _, plain, _, _, _ = workloads.run_loop(wl, deck, ctx, rounds=1)
    original = jacsyz.tjurina.rank_mod_np
    tracer = spans.Tracer(extra_modules=(workloads,)).install()
    try:
        assert jacsyz.tjurina.rank_mod_np is not original
        _, traced, _, _, _ = workloads.run_loop(wl, deck, ctx, rounds=1,
                                                tracer=tracer)
    finally:
        tracer.uninstall()
    assert jacsyz.tjurina.rank_mod_np is original
    assert workloads.comparable(traced) == workloads.comparable(plain)
    stats, job_s, coverage = tracer.layer_stats()
    assert job_s > 0 and 0.9 <= coverage <= 1
    for name in ("linalg.rank_mod_np", "linalg.ExactMatrix._rref",
                 "pencils.discriminant", "uni.uni_squarefree",
                 "backend.Backend.vote", "arrangements.cone_construction"):
        assert stats[name]["calls"] > 0, name


def test_name_guard_refuses_a_missing_function_or_alias():
    missing = spans.Layer("linalg", "no_such_kernel")
    with pytest.raises(spans.NameGuardError, match="not found"):
        spans.Tracer(layers=(missing,)).install()
    no_alias = spans.Layer("linalg", "rank_mod_np", ("pencils",))
    with pytest.raises(spans.NameGuardError, match="is not"):
        spans.Tracer(layers=(no_alias,)).install()
    assert not hasattr(jacsyz.linalg.rank_mod_np, "__wrapped__")


def test_name_guard_rebinds_every_alias():
    tracer = spans.Tracer().install()
    try:
        for layer in spans.LAYERS:
            attr = layer.attr.split(".")[-1]
            for alias in layer.aliases:
                fn = getattr(getattr(jacsyz, alias), attr)
                assert hasattr(fn, "__wrapped__"), f"{alias}.{attr}"
    finally:
        tracer.uninstall()


def test_span_cost_is_measured():
    assert 0 < spans.span_cost(calls=2000, batches=3) < 1e-3


def test_setup_is_timed_in_fresh_processes():
    median, samples = run.setup_seconds("free_curves", 1)
    assert len(samples) == run.SETUP_PROBES
    assert 0 < min(samples) <= median <= max(samples) < 60


def test_metric_names_and_units():
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in BENCHMARK[kind]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == \
        sorted(WORKLOADS)
    layer_stats = {f"{layer.name}.{s}" for layer in spans.LAYERS
                   for s in ("calls", "self_s", "cells", "max_cells",
                             "failed")}
    for m in BENCHMARK["per_layer"]:
        assert m["name"] in layer_stats or m["name"].startswith("trace.")
