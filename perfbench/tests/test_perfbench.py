"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import dataclasses
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import flowloop  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_batch_is_deterministic_per_seed(name):
    assert workloads.batch(name, 7) == workloads.batch(name, 7)
    assert workloads.batch(name, 7) != workloads.batch(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_words_are_homogeneous_knots(name, seed):
    strata = {st.label: st for st in workloads.WORKLOADS[name].strata}
    for item in workloads.batch(name, seed):
        if item.kind == "suite":
            continue
        word = flowloop.parse_braid(item.braid)
        assert flowloop.render_word(word) == item.braid
        stats = flowloop.analyze(word)
        assert stats.is_homogeneous, item
        assert stats.closure_components == 1, item
        st = strata.get(item.origin)
        if st is not None:
            assert word.n == st.n
            assert len(word.letters) in st.crossings
            assert (stats.cr_minus > 0) == (st.signs == "mixed"), item


def test_knot_word_refuses_counts_without_a_knot():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        workloads.knot_word(rng, 3, 5, (1, -1))
    with pytest.raises(ValueError):
        workloads.knot_word(rng, 4, 2, (1, 1, 1))


ITEMS = [
    workloads.Item("zhat", "n=3; 1 -2 1 -2", 3, "corpus"),
    workloads.Item("zhat", "n=2; 1 1 1", 4, "corpus"),
    workloads.Item("q1", "n=3; 1 -2 1 -2", 4, "corpus"),
]


def failures(results, golden=None):
    rows = worker.check(flowloop, ITEMS, results, golden or {})
    return [reason for reason, _ in rows]


def test_good_outputs_pass_every_check():
    run = worker.Run()
    run.serve(flowloop, ITEMS, workloads.run_item)
    run.serve(flowloop, ITEMS, workloads.run_item)
    assert failures(run.results) == [None] * 6


def test_planted_wrong_result_is_counted(monkeypatch):
    real = flowloop.zhat

    def wrong_zhat(word, order):
        res = real(word, order)
        bump = flowloop.XSeries.monomial(1, 2 * order, res.phi.trunc)
        return dataclasses.replace(res, phi=res.phi + bump)

    monkeypatch.setattr(flowloop, "zhat", wrong_zhat)
    run = worker.Run()
    run.serve(flowloop, ITEMS, workloads.run_item)
    reasons = failures(run.results)
    assert reasons[:2] == ["Phi at q = 1 != (1-x)/Delta"] * 2
    assert reasons[2] is None


def test_raising_item_is_counted(monkeypatch):
    def broken(word, order):
        raise flowloop.VerificationError("planted")

    monkeypatch.setattr(flowloop, "zeta_classical", broken)
    run = worker.Run()
    run.serve(flowloop, ITEMS, workloads.run_item)
    assert failures(run.results)[2] == "VerificationError: planted"


def test_golden_digest_mismatch_is_counted():
    run = worker.Run()
    run.serve(flowloop, ITEMS, workloads.run_item)
    golden = {ITEMS[1].key: "0" * 64}
    assert failures(run.results, golden) == [
        None, "digest differs from golden", None]


def test_zhat_rendering_matches_the_cli(capsys):
    from flowloop import cli

    item = ITEMS[0]
    cli.main(["zhat", "--braid", item.braid, "--order", str(item.order)])
    out = workloads.run_item(flowloop, item)
    assert workloads.render(flowloop, item, out) == capsys.readouterr().out


def test_tracer_counts_and_restores_bindings():
    zhat_mod = sys.modules["flowloop.zhat"]
    lawrence_mod = sys.modules["flowloop.lawrence"]
    original = zhat_mod.qtrinom
    tr = tracer.Tracer().install()
    try:
        assert zhat_mod.qtrinom is not original
        assert lawrence_mod.qtrinom is zhat_mod.qtrinom
        workloads.run_item(flowloop, ITEMS[0])
    finally:
        tr.uninstall()
    assert zhat_mod.qtrinom is original
    assert lawrence_mod.qtrinom is original
    assert tr.missing == []
    assert tr.stats["zhat.zhat"].calls == 1
    assert tr.stats["zhat.phi_homogeneous"].calls == 1
    assert tr.stats["ring.mul_term"].calls > 0
    shares = tr.layer_self_s()
    total = tr.stats["zhat.zhat"].total_s
    assert sum(shares.values()) == pytest.approx(total, rel=1e-6)


def test_missing_target_is_absent_not_fatal():
    targets = tracer.TARGETS + (
        ("ring.gone", "ring", (("flowloop.ring", "no_such_function"),),
         None),
    )
    tr = tracer.Tracer(targets).install()
    tr.uninstall()
    assert tr.missing == ["ring.gone"]
    assert "ring.gone" not in tr.stats
