"""The randomized-trial engine behind ``maps_equal_probabilistic`` and
``check_identity``: pinned report output and the two failure paths."""

import hashlib
import json
import re
from fractions import Fraction as F

from cluster_dual import cli, evals, group as grp
from cluster_dual.arith import _REDRAW_BUDGET, TrialConfig, maps_equal_probabilistic
from cluster_dual.errors import SingularPoint

from conftest import W

# sha256 of the reports of every matrix-level check on A1 and A2 at prime 97,
# 3 trials, rng seed 5, with elapsed_ms removed.  At this small prime 6
# draws are redrawn, all of them singular.
MATRIX_REPORTS_SHA256 = "5e6fd6dc44f5b054e3a2562129140c900f26c850c4ea2ebd85a2dfd9088e5339"


def test_matrix_reports_pinned():
    payload, skipped = [], 0
    for label in ("A1", "A2"):
        for name in evals.CHECK_NAMES:
            if label != "A1" and name in ("PGL2_TABLE", "EVHAT_POISSON"):
                continue
            rep = evals.check_identity(
                evals.IdentityCheck(name, label, trials=3, prime=97, rng_seed=5))
            data = rep.to_json()
            del data["elapsed_ms"]
            payload.append(data)
            skipped += rep.skipped
    assert skipped == 6
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == MATRIX_REPORTS_SHA256


# sha256 of the reports of every A1 and A2 check of the instance table at
# the primes 5, 7, 11 and 13, 4 trials, rng seed 0, with elapsed_ms removed.
# At these primes singular draws are frequent: 2802 draws are redrawn, and
# 33 trials exhaust their retry budget.
SMALL_PRIME_REPORTS_SHA256 = "62b14b622b7ec41f9e0b65e2fe315cda63f1e4c9b41daab30f26a96940c6a458"


def test_matrix_reports_pinned_at_small_primes():
    payload, skipped, failures = [], 0, []
    for label in ("A1", "A2"):
        for name in evals._INSTANCES[label]:
            for prime in (5, 7, 11, 13):
                rep = evals.check_identity(
                    evals.IdentityCheck(name, label, trials=4, prime=prime, rng_seed=0))
                data = rep.to_json()
                del data["elapsed_ms"]
                payload.append(data)
                skipped += rep.skipped
                failures += rep.failures
    assert skipped == 2802
    assert failures and all(
        fail["detail"] == "retry budget exhausted (degenerate domain)" for fail in failures)
    assert len(failures) == 33
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == SMALL_PRIME_REPORTS_SHA256


# sha256 of the PGL2_TABLE and EVHAT_POISSON reports on A1 at the primes 2
# and 3, 4 trials, rng seeds 0 and 7, with elapsed_ms removed.  Their jets
# meet zero values and zero divisors at these primes.
POISSON_SMALL_PRIME_REPORTS_SHA256 = "550961bd2e9cbf0432f50f427fafd67c9622b770a85144f86c40c417bb2702d4"


def test_poisson_reports_pinned_at_primes_2_and_3():
    payload = []
    for prime in (2, 3):
        for rng_seed in (0, 7):
            for name in ("PGL2_TABLE", "EVHAT_POISSON"):
                rep = evals.check_identity(
                    evals.IdentityCheck(name, "A1", trials=4, prime=prime, rng_seed=rng_seed))
                data = rep.to_json()
                del data["elapsed_ms"]
                payload.append(data)
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == POISSON_SMALL_PRIME_REPORTS_SHA256


# sha256 of the `verify --all` payloads for A1 and A2 at the default prime
# 2^61 - 1, 3 trials, rng seed 0, with every elapsed_ms removed.
DEFAULT_PRIME_REPORTS_SHA256 = "5b8ea72ee81b9381af063e7d7c3eb439d5fceab58ef99ffa2d847959de40c555"


def test_verify_all_reports_pinned_at_the_default_prime(tmp_path, capsys):
    payload = []
    for label in ("A1", "A2"):
        out = tmp_path / f"{label}.json"
        code = cli.main(["verify", "--all", "--type", label, "--trials", "3",
                         "--rng-seed", "0", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        data = json.loads(out.read_text())
        for report in data["reports"]:
            del report["elapsed_ms"]
        payload.append(data)
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == DEFAULT_PRIME_REPORTS_SHA256


def test_report_records_confirmed_failure():
    runner = evals._CheckRunner(evals.IdentityCheck("PHI_REL", "A1", trials=2, prime=97))
    runner.run_pointwise(W("1"),
                         lambda vals: grp.x_pos(1, 1, vals[(1, 0)]),
                         lambda vals: grp.identity(2, vals[(1, 0)]))
    failures = runner.report.failures
    assert len(failures) == 2
    for fail in failures:
        assert fail["word"] == "1"
        point = {ix: F(value) for ix, value in fail["point"].items()}
        assert set(point) == {"(1, 0)", "(1, 1)"}
        x = point["(1, 0)"]
        assert fail["lhs"] == repr(grp.x_pos(1, 1, x))
        assert fail["rhs"] == repr(grp.identity(2, x))


def _planted_power(runner):
    """A false identity x^20000 = x whose rational left side has more
    decimal digits than the interpreter prints by default (4300)."""
    runner.run_pointwise(W("1"), lambda vals: vals[(1, 1)] ** 20000,
                         lambda vals: vals[(1, 1)], equal=lambda a, b: a == b)


def test_report_records_an_oversized_confirmed_value(monkeypatch, tmp_path, capsys):
    runner = evals._CheckRunner(evals.IdentityCheck("PHI_REL", "A1", trials=2, prime=97))
    _planted_power(runner)
    failures = runner.report.failures
    assert len(failures) == 2
    for fail in failures:
        x = F(fail["point"]["(1, 1)"])
        assert fail["rhs"] == repr(x)
        digits, digest = re.fullmatch(r"Fraction\(<(\d+) digits, sha256 ([0-9a-f]{64})>, 1\)",
                                      fail["lhs"]).groups()
        value = x.numerator ** 20000
        assert 10 ** (int(digits) - 1) <= value < 10 ** int(digits)
        assert int(digits) > 4300
    monkeypatch.setitem(evals._CHECK_IMPLS, "PHI_REL", _planted_power)
    out = tmp_path / "report.json"
    code = cli.main(["verify", "PHI_REL", "--type", "A1", "--trials", "2", "--prime", "97",
                     "--allow-small-prime", "--out", str(out)])
    capsys.readouterr()
    assert code == 1
    report = json.loads(out.read_text())["reports"][0]
    assert [fail["lhs"] for fail in report["failures"]] == [fail["lhs"] for fail in failures]


def test_always_singular_draw_exhausts_budget():
    def singular(_):
        raise SingularPoint("everywhere")

    verdict = maps_equal_probabilistic(singular, singular, 2, TrialConfig(trials=3))
    assert verdict.status == "inconclusive"
    assert verdict.detail == "retry budget exhausted at trial 0"
    runner = evals._CheckRunner(evals.IdentityCheck("PHI_REL", "A1", trials=3))
    runner.run_pointwise(W("1"), singular, singular)
    assert runner.report.failures == [
        {"word": "1", "detail": "retry budget exhausted (degenerate domain)"}] * 3
    assert runner.report.skipped == 3 * _REDRAW_BUDGET
