"""Command-line interface: files, schemas, exit codes, determinism."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxfield as cf
from coxfield import cli
from coxfield.cli import (
    SCHEMA_CAPS, _build_parser, main, model_from_dict, state_from_dict, state_to_dict,
)


HYPER = {"kind": "hyperexp", "weights": [0.5, 0.5], "rates": [2.0, 2.0 / 3.0]}
COX = {"kind": "coxian", "rates": [1.0, 2.0], "continuations": [0.25, 0.0]}


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _not_json(token):
    raise ValueError(f"{token} is not JSON")


def load(tmp_path, name):
    """An output file parsed as strict JSON: NaN and Infinity are errors."""
    return json.loads((tmp_path / name).read_text(), parse_constant=_not_json)


def model_file(tmp_path, **overrides):
    model = {"policy": "jsq", "lambda": 0.75, "d": 2, "B": 6, "service": HYPER}
    model.update(overrides)
    return write(tmp_path / "model.json", model)


# ---------------------------------------------------------------------------
# convert / fit


def test_convert_hyperexp(tmp_path):
    src = write(tmp_path / "dist.json", HYPER)
    assert main(["convert", src, "--out", str(tmp_path)]) == 0
    out = load(tmp_path, "convert.json")
    assert out["class"]["is_member"] and out["class"]["margin"] > 0
    assert out["cdf_max_gap"] < 1e-12
    assert out["moments"]["m1"] == pytest.approx(1.0)
    cox = cf.CoxianDistribution(tuple(out["coxian"]["rates"]),
                                tuple(out["coxian"]["continuations"]))
    assert cf.moments(cox, 2) == pytest.approx(2.5)
    manifest = load(tmp_path, "manifest.json")
    assert manifest["command"] == "convert"
    assert manifest.get("error") is None
    assert "convert.json" in manifest["outputs"]
    assert manifest["wall_clock_s"] >= 0


def test_convert_coxian_reports_membership(tmp_path):
    src = write(tmp_path / "dist.json", COX)
    assert main(["convert", src, "--out", str(tmp_path)]) == 0
    out = load(tmp_path, "convert.json")
    assert out["completion_rates"] == [0.75, 2.0]
    assert not out["class"]["is_member"]


def test_convert_fast_phase_has_finite_gap(tmp_path):
    # rate 1e40 takes the CDF grid's exponents past 1e37, where expm alone
    # gives NaN; capped, the gap is finite and small
    dist = {"kind": "hyperexp", "weights": [0.5, 0.5], "rates": [1e40, 1.0]}
    src = write(tmp_path / "dist.json", dist)
    assert main(["convert", src, "--out", str(tmp_path)]) == 0
    assert 0 <= load(tmp_path, "convert.json")["cdf_max_gap"] <= 1e-10


def test_convert_tiny_rate_prints_no_warning(tmp_path):
    # 1e30 / 1e-300 overflows to inf, which means "no cap"; it is no error
    dist = {"kind": "hyperexp", "weights": [0.5, 0.5], "rates": [1e300, 1e-300]}
    src = write(tmp_path / "dist.json", dist)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cf.__file__)))
    run = subprocess.run(
        [sys.executable, "-m", "coxfield.cli", "convert", src, "--out", str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert load(tmp_path, "convert.json")["cdf_max_gap"] == 0.0


def test_convert_fails_non_finite_gap(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "cdf", lambda dist, t: np.full(np.shape(t), np.nan))
    src = write(tmp_path / "dist.json", HYPER)
    assert main(["convert", src, "--out", str(tmp_path)]) == 1
    assert load(tmp_path, "convert.json")["cdf_max_gap"] is None


@pytest.mark.parametrize("dist", [
    {"kind": "hyperexp", "weights": [1.0], "rates": [2.0]},
    {"kind": "coxian", "rates": [2.0], "continuations": [0.0]},
])
def test_convert_one_phase_margin_is_null(tmp_path, dist):
    # the one-phase class margin is +inf, which JSON cannot hold
    src = write(tmp_path / "dist.json", dist)
    assert main(["convert", src, "--out", str(tmp_path)]) == 0
    check = load(tmp_path, "convert.json")["class"]
    assert check == {"is_member": True, "margin": None, "boundary": False}


def test_write_json_writes_non_finite_numbers_as_null(tmp_path):
    path = tmp_path / "out.json"
    cli._write_json(path, {"a": [1.5, math.inf, -math.inf], "b": np.array([math.nan, 2.0]),
                           "c": (np.float64(math.nan), np.int64(3)), "d": np.float64(0.25)})
    assert load(tmp_path, "out.json") == {"a": [1.5, None, None], "b": [None, 2.0],
                                          "c": [None, 3], "d": 0.25}


@pytest.mark.parametrize("dist", [
    {"kind": "hyperexp", "weights": [float("nan")], "rates": [1.0]},
    {"kind": "hyperexp", "weights": [0.5, float("nan")], "rates": [1.0, 2.0]},
    {"kind": "coxian", "rates": [2.0, 1.0], "continuations": [float("nan"), 0.0]},
])
def test_convert_rejects_non_finite_parameters(tmp_path, dist):
    src = write(tmp_path / "dist.json", dist)
    assert main(["convert", src, "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "convert.json").exists()
    assert "finite" in load(tmp_path, "manifest.json")["error"]


@pytest.mark.parametrize("moments", [
    ["--m1", "1", "--n2", "nan", "--n3", "5"],
    ["--m1", "inf", "--n2", "3", "--n3", "5"],
])
def test_fit_rejects_non_finite_moments(tmp_path, moments):
    assert main(["fit", *moments, "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "fit.json").exists()


def test_convert_exit_codes(tmp_path):
    assert main(["convert", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["convert", str(bad), "--out", str(tmp_path)]) == 2
    unknown = write(tmp_path / "unk.json", {"kind": "weibull", "shape": 2})
    assert main(["convert", unknown, "--out", str(tmp_path)]) == 2
    dup = write(tmp_path / "dup.json",
                {"kind": "hyperexp", "weights": [0.5, 0.5], "rates": [2.0, 2.0]})
    assert main(["convert", dup, "--out", str(tmp_path)]) == 1
    manifest = load(tmp_path, "manifest.json")
    assert "distinct" in manifest["error"]


def test_fit_round_trip(tmp_path):
    args = ["fit", "--m1", "2.0", "--n2", "2.5", "--n3", "4.2", "--out", str(tmp_path)]
    assert main(args) == 0
    out = load(tmp_path, "fit.json")
    assert out["achieved"]["n2"] == pytest.approx(2.5, rel=1e-10)
    assert out["achieved"]["n3"] == pytest.approx(4.2, rel=1e-10)
    assert out["achieved"]["m1"] == pytest.approx(2.0, rel=1e-10)
    assert out["coxian"]["rates"]


def test_fit_infeasible(tmp_path):
    args = ["fit", "--m1", "1.0", "--n2", "2.5", "--n3", "3.6", "--out", str(tmp_path)]
    assert main(args) == 1
    assert load(tmp_path, "manifest.json")["error"]


# ---------------------------------------------------------------------------
# fixed-point / integrate / simulate


def test_fixed_point_output(tmp_path):
    src = model_file(tmp_path)
    assert main(["fixed-point", src, "--out", str(tmp_path)]) == 0
    out = load(tmp_path, "fixed_point.json")
    assert out["residual"] <= 1e-12
    pi = state_from_dict(out["pi"])
    model = model_from_dict(json.loads((tmp_path / "model.json").read_text()))
    assert np.abs(pi.h - cf.fixed_point(model).pi.h).max() < 1e-12
    assert out["structure"]["phase_residual"] <= 1e-10
    assert out["structure"]["generator_residual"] <= 1e-10
    first = (tmp_path / "fixed_point.json").read_bytes()
    assert main(["fixed-point", src, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fixed_point.json").read_bytes() == first


def test_fixed_point_manifest_stats(tmp_path):
    src = model_file(tmp_path)
    assert main(["fixed-point", src, "--out", str(tmp_path)]) == 0
    out = load(tmp_path, "fixed_point.json")
    stats = load(tmp_path, "manifest.json")["stats"]
    assert "stats" not in out
    assert set(stats) == {"drift_calls", "accepted_steps", "rejected_steps",
                          "buffers_tried", "wall_s"}
    assert stats["accepted_steps"] == out["newton_steps"] >= 1
    assert stats["drift_calls"] == 1 + 2 * stats["accepted_steps"]
    assert stats["buffers_tried"] == 1 and stats["wall_s"] > 0


def test_model_numbers_exit_codes(tmp_path, monkeypatch):
    # malformed numbers exit 2, rejected values exit 1; none raise
    cases = [({"d": 2.5}, 2), ({"B": 2.5}, 2), ({"d": "2"}, 2), ({"B": True}, 2),
             ({"lambda": "x"}, 2), ({"lambda": float("nan")}, 1),
             ({"policy": "pullpush", "r": float("nan")}, 1),
             ({"policy": "pullpush", "r": float("inf")}, 1)]
    for overrides, code in cases:
        src = model_file(tmp_path, **overrides)
        assert main(["fixed-point", src, "--out", str(tmp_path)]) == code, overrides
        assert load(tmp_path, "manifest.json")["error"]
    # an integer-valued float is an integer
    src = model_file(tmp_path, d=2.0, B=6.0)
    assert main(["fixed-point", src, "--out", str(tmp_path / "float")]) == 0
    assert main(["fixed-point", model_file(tmp_path), "--out", str(tmp_path / "int")]) == 0
    assert ((tmp_path / "float" / "fixed_point.json").read_bytes()
            == (tmp_path / "int" / "fixed_point.json").read_bytes())
    config = {"model": {"policy": "jsq", "lambda": 0.6, "d": 2.0, "B": 4, "service": HYPER},
              "N": 5, "horizon": 5.0, "warmup": 1.0}
    sim = write(tmp_path / "sim.json", config)
    monkeypatch.setenv("COXFIELD_THREADS", "abc")
    assert main(["simulate", sim, "--out", str(tmp_path)]) == 1
    assert "COXFIELD_THREADS" in load(tmp_path, "manifest.json")["error"]
    monkeypatch.setenv("COXFIELD_THREADS", "1")
    assert main(["simulate", sim, "--out", str(tmp_path)]) == 0


def test_integrate_csv(tmp_path):
    src = model_file(tmp_path, B=4)
    args = ["integrate", src, "--t-final", "5", "--samples", "4", "--out", str(tmp_path)]
    assert main(args) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t," + ",".join(
        f"h_{l}_{i}" for l in range(1, 5) for i in (1, 2)
    )
    assert len(lines) == 6
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows[0, 0] == 0.0 and np.all(rows[0, 1:] == 0.0)
    assert rows[-1, 0] == 5.0
    model = model_from_dict(json.loads((tmp_path / "model.json").read_text()))
    want = cf.integrate(model, cf.zero_state(4, 2), 5.0, samples=4).final
    assert np.abs(rows[-1, 1:].reshape(4, 2) - want).max() < 1e-12


def test_integrate_manifest_stats(tmp_path):
    src = model_file(tmp_path, B=4)
    args = ["integrate", src, "--t-final", "5", "--samples", "4", "--out", str(tmp_path)]
    assert main(args) == 0
    stats = load(tmp_path, "manifest.json")["stats"]
    assert set(stats) == {"accepted_steps", "rejected_steps", "invalid_steps",
                          "drift_calls", "min_margin", "wall_s"}
    assert stats["drift_calls"] == 1 + 12 * (stats["accepted_steps"]
                                            + stats["rejected_steps"])
    assert stats["min_margin"] >= -1e-8 and stats["wall_s"] > 0
    assert "stats" not in (tmp_path / "trajectory.csv").read_text()


def test_integrate_inits(tmp_path):
    src = model_file(tmp_path, B=3)
    args = ["integrate", src, "--t-final", "0", "--init", "full", "--out", str(tmp_path)]
    assert main(args) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2
    assert [float(v) for v in lines[1].split(",")] == [0.0] + [1.0] * 6
    state = write(tmp_path / "state.json", state_to_dict(cf.full_state(3, 2)))
    args = ["integrate", src, "--t-final", "0", "--init", state, "--out", str(tmp_path)]
    assert main(args) == 0
    assert (tmp_path / "trajectory.csv").read_text().splitlines()[1] == lines[1]
    # shape mismatch between state file and model
    tall = write(tmp_path / "tall.json", state_to_dict(cf.full_state(5, 2)))
    assert main(["integrate", src, "--t-final", "1", "--init", tall,
                 "--out", str(tmp_path)]) == 2


def test_integrate_without_buffer_size(tmp_path):
    # a model without B integrates a state file at the state's B; from
    # 'empty' or 'full' there is no B to build the state on
    src = model_file(tmp_path, B=None)
    args = ["integrate", src, "--t-final", "0", "--out", str(tmp_path)]
    for init in ("empty", "full"):
        assert main(args + ["--init", init]) == 2
        assert "finite B" in load(tmp_path, "manifest.json")["error"]
    state = write(tmp_path / "state.json", state_to_dict(cf.full_state(3, 2)))
    assert main(args + ["--init", state]) == 0
    assert load(tmp_path, "manifest.json")["inputs"]["model"]["B"] == 3
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert [float(v) for v in lines[1].split(",")] == [0.0] + [1.0] * 6


def test_integrate_rejects_bad_samples_and_step_flag(tmp_path):
    args = ["integrate", model_file(tmp_path), "--t-final", "5", "--out", str(tmp_path)]
    assert main(args + ["--samples", "0"]) == 2
    assert "--samples" in load(tmp_path, "manifest.json")["error"]
    # there is one integrator, so no fixed step to ask for
    with pytest.raises(SystemExit) as exc:
        main(args + ["--dt", "0.01"])
    assert exc.value.code == 2


def test_integrate_caps_samples(tmp_path):
    # 10**12 samples would ask for terabytes; the cap rejects it at once
    args = ["integrate", model_file(tmp_path), "--t-final", "1", "--out", str(tmp_path)]
    assert main(args + ["--samples", str(10**12)]) == 1
    assert "at most 1000000 samples" in load(tmp_path, "manifest.json")["error"]


def test_non_finite_horizons_exit_1(tmp_path):
    # an infinite horizon used to run for ever, a NaN one to pass vacuously
    src = model_file(tmp_path)
    for args in (["integrate", src, "--t-final", "inf"],
                 ["integrate", src, "--t-final", "nan"],
                 ["verify", "monotone", "--model", src, "--T", "nan"],
                 ["verify", "lyapunov", "--model", src, "--T", "nan"]):
        started = time.perf_counter()
        assert main(args + ["--out", str(tmp_path)]) == 1
        assert time.perf_counter() - started < 5
        assert "horizon" in load(tmp_path, "manifest.json")["error"]


def test_huge_horizons_exit_1(tmp_path):
    # a finite horizon of 1e300 used to run until it was killed
    src = model_file(tmp_path)
    for args in (["integrate", src, "--t-final", "1e300", "--samples", "1"],
                 ["verify", "attract", "--model", src, "--T", "1e300"]):
        started = time.perf_counter()
        assert main(args + ["--out", str(tmp_path)]) == 1
        assert time.perf_counter() - started < 2
        assert "horizon" in load(tmp_path, "manifest.json")["error"]


def test_subnormal_horizon_exits_1(tmp_path):
    # 5e-324 has no three distinct sample times; 1e-200 has
    src = model_file(tmp_path)
    args = ["integrate", src, "--samples", "3", "--out", str(tmp_path), "--t-final"]
    assert main(args + ["5e-324"]) == 1
    assert "distinct sample times" in load(tmp_path, "manifest.json")["error"]
    assert main(args + ["1e-200"]) == 0


def test_simulate_output(tmp_path):
    config = {
        "model": {"policy": "jsq", "lambda": 0.6, "d": 2, "B": 4, "service": HYPER},
        "N": 25, "horizon": 50.0, "warmup": 10.0, "replications": 2, "seed": 0,
    }
    src = write(tmp_path / "sim.json", config)
    assert main(["simulate", src, "--out", str(tmp_path)]) == 0
    out = load(tmp_path, "simulate.json")
    assert np.asarray(out["h_bar"]).shape == (4, 2)
    assert out["replications"] == 2
    assert out["pi_residual"] <= 1e-12
    assert out["distance_to_pi"] >= 0
    assert out["excess_entries"] <= out["total_entries"] == 8
    first = (tmp_path / "simulate.json").read_bytes()
    assert main(["simulate", src, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "simulate.json").read_bytes() == first
    missing = write(tmp_path / "m.json", {"model": config["model"], "N": 5})
    assert main(["simulate", missing, "--out", str(tmp_path)]) == 2


def test_simulate_needs_buffer_size(tmp_path):
    # a missing B is malformed here, as it is for integrate from 'empty'
    config = {"model": {"policy": "jsq", "lambda": 0.6, "d": 2, "service": HYPER},
              "N": 5, "horizon": 5.0, "warmup": 1.0}
    src = write(tmp_path / "sim.json", config)
    assert main(["simulate", src, "--out", str(tmp_path)]) == 2
    assert "'B'" in load(tmp_path, "manifest.json")["error"]


def test_simulate_manifest_stats(tmp_path):
    config = {
        "model": {"policy": "jsq", "lambda": 0.6, "d": 2, "B": 4, "service": HYPER},
        "N": 25, "horizon": 50.0, "warmup": 10.0, "replications": 2, "seed": 0,
    }
    src = write(tmp_path / "sim.json", config)
    assert main(["simulate", src, "--out", str(tmp_path)]) == 0
    out = load(tmp_path, "simulate.json")
    stats = load(tmp_path, "manifest.json")["stats"]
    assert "stats" not in out
    assert set(stats) == {"events", "events_per_s", "drops", "jobs", "wall_s"}
    assert all(len(v) == 2 for v in stats.values())
    assert all(e > j > 0 for e, j in zip(stats["events"], stats["jobs"]))
    assert sum(stats["drops"]) / sum(stats["jobs"]) == out["drop_fraction"]
    for events, rate, wall in zip(stats["events"], stats["events_per_s"], stats["wall_s"]):
        assert wall > 0 and rate == pytest.approx(events / wall)


def test_simulate_rejects_absurd_cluster(tmp_path):
    # the simulator allocates per-server state: reject before any work
    config = {"model": {"policy": "jsq", "lambda": 0.6, "d": 2, "B": 4, "service": HYPER},
              "N": 1e300, "horizon": 5.0, "warmup": 1.0}
    src = write(tmp_path / "sim.json", config)
    assert main(["simulate", src, "--out", str(tmp_path)]) == 2
    assert "'N'" in load(tmp_path, "manifest.json")["error"]


def test_simulate_rejects_huge_event_count(tmp_path):
    # a clock step below the float resolution of t never reaches the horizon
    config = {"model": {"policy": "jsq", "lambda": 1e300, "d": 2, "B": 4, "service": HYPER},
              "N": 5, "horizon": 1.0, "warmup": 0.5}
    src = write(tmp_path / "sim.json", config)
    with pytest.warns(UserWarning, match="unstable"):
        assert main(["simulate", src, "--out", str(tmp_path)]) == 1
    assert "expected events" in load(tmp_path, "manifest.json")["error"]


def test_tolerance_is_used_as_given(tmp_path):
    # --tol 0 used to mean the command's default tolerance
    args = ["verify", "attract", "--model", model_file(tmp_path), "--count", "2",
            "--T", "150", "--out", str(tmp_path)]
    assert main(args) == 0
    assert main(args + ["--tol", "0"]) == 1
    for tol in ("nan", "-1", "inf"):
        assert main(args + ["--tol", tol]) == 2
        assert "--tol" in load(tmp_path, "manifest.json")["error"]
    src = write(tmp_path / "dist.json", HYPER)
    assert main(["convert", src, "--tol", "nan", "--out", str(tmp_path)]) == 2


#: (command, option) values the CLI used to accept and never read
UNREAD_OPTIONS = [
    *[[command, "X.json", "--seed", "1"] for command in ("convert", "fixed-point")],
    *[["fit", "--m1", "1", "--n2", "2.5", "--n3", "4.2", option, "1"]
      for option in ("--seed", "--tol")],
    *[["integrate", "X.json", "--t-final", "1", option, "1"]
      for option in ("--seed", "--tol")],
    ["simulate", "X.json", "--tol", "1"],
    ["verify", "order-oracle", "--model", "X.json"],
    ["verify", "order-oracle", "--T", "5"],
    *[["verify", suite, "--model", "X.json", option, "3"]
      for suite in ("monotone", "attract", "lyapunov") for option in ("--B", "--phases")],
]


@pytest.mark.parametrize("argv", UNREAD_OPTIONS, ids=" ".join)
def test_unread_options_are_rejected(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["integrate", "MODEL", "--t", "1", "--sam", "2", "--out", "OUT"],
    ["integrate", "MODEL", "--t-final", "1", "--ou", "OUT"],
    ["verify", "attract", "--model", "MODEL", "--cou", "1", "--out", "OUT"],
    ["--vers"],
], ids=" ".join)
def test_abbreviated_options_are_rejected(tmp_path, argv):
    # a prefix of an option's name is not the option, even where it names
    # one option only
    src = model_file(tmp_path)
    argv = [{"MODEL": src, "OUT": str(tmp_path)}.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "manifest.json").exists()


def _options(parser):
    return {option for action in parser._actions
            for option in action.option_strings} - {"-h", "--help"}


def _leaf_parsers():
    """(name, parser) of each subcommand, with each verify suite on its own."""
    def children(parser):
        return next((a.choices for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)), {})

    for name, parser in children(_build_parser()).items():
        suites = children(parser)
        if suites:
            assert not _options(parser), name  # options belong to the suites
        yield from ((f"{name} {suite}", p) for suite, p in suites.items())
        if not suites:
            yield name, parser


def test_readme_names_every_option():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        cli = fh.read().split("\n## CLI\n")[1].split("\n## ")[0]
    names = list(_leaf_parsers())
    assert len(names) == 9
    for name, parser in names:
        lines = [line for line in cli.splitlines() if line.startswith(f"coxfield {name} ")]
        assert len(lines) == 1, name
        assert set(re.findall(r"--[\w-]+", lines[0])) == _options(parser), name


def test_import_loads_no_cli_and_no_scipy():
    # scipy loads on the first cdf/pdf/hazard call or pooled replication
    code = ("import sys, coxfield; print(sorted(m for m in sys.modules "
            "if m == 'coxfield.cli' or m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(cf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_fixed_point_rejects_absurd_choice_count(tmp_path):
    # the jsq drift sums d terms: reject before solving
    src = model_file(tmp_path, d=1e300)
    assert main(["fixed-point", src, "--out", str(tmp_path)]) == 2
    assert "'d'" in load(tmp_path, "manifest.json")["error"]
    cap = SCHEMA_CAPS["d"]
    assert main(["fixed-point", model_file(tmp_path, d=cap + 1),
                 "--out", str(tmp_path)]) == 2
    assert main(["fixed-point", model_file(tmp_path, d=cap),
                 "--out", str(tmp_path)]) == 0


# ---------------------------------------------------------------------------
# schema fuzz: small valid documents with at most one field set to an edge
# value; whatever the input, main() must return an exit code, never raise

_ABSENT = object()
EXPO = {"kind": "coxian", "rates": [1.0], "continuations": [0.0]}


def _edges(key):
    values = [0, -1, -0.5, 2.5, float("nan"), float("inf"), "1", None, True, _ABSENT]
    if key in SCHEMA_CAPS:
        values += [SCHEMA_CAPS[key], SCHEMA_CAPS[key] + 1, 1e300]
    return values


MODEL_BASE = {
    "policy": st.sampled_from(["jsq", "pullpush", "batchjsq"]),
    "lambda": st.floats(0.1, 0.9),
    "B": st.integers(1, 5),
    "d": st.integers(1, 3),
    "K": st.just(1),
    "r": st.floats(0.0, 2.0),
    "service": st.just(EXPO),
}
MODEL_EDGES = {key: _edges(key) for key in ("lambda", "B", "d", "K", "r")}
MODEL_EDGES["policy"] = ["fifo", None, 3, _ABSENT]
MODEL_EDGES["service"] = [
    HYPER, COX, None, "x", [], {"kind": "coxian"}, {"kind": None},
    {"kind": "coxian", "rates": "ab", "continuations": [0.0]},
    {"kind": "coxian", "rates": [1.0], "continuations": None},
    {"kind": "coxian", "rates": [float("nan")], "continuations": [0.0]},
    {"kind": "hyperexp", "weights": [0.5, 0.5], "rates": [2.0, "x"]},
    {"kind": "hyperexp", "weights": [1.0], "rates": [-1.0]},
]

SIM_BASE = {
    "model": st.fixed_dictionaries(MODEL_BASE),
    "N": st.integers(1, 8),
    "horizon": st.floats(0.01, 0.2),
    "warmup": st.just(0.0),
    "replications": st.integers(1, 3),
    "seed": st.integers(0, 3),
}
SIM_EDGES = {key: _edges(key) for key in ("N", "horizon", "warmup", "replications", "seed")}
SIM_EDGES["model"] = [None, "x", [], _ABSENT]
SIM_EDGES.update({f"model.{key}": values for key, values in MODEL_EDGES.items()})


@st.composite
def _document(draw, base, edges):
    doc = draw(st.fixed_dictionaries(base))
    key = draw(st.sampled_from([None, *sorted(edges)]))
    if key is not None:
        value = draw(st.sampled_from(edges[key]))
        *path, last = key.split(".")
        target = doc
        for part in path:
            target = target[part]
        if value is _ABSENT:
            del target[last]
        else:
            target[last] = value
    return doc


def _exit_code(command, doc):
    with tempfile.TemporaryDirectory() as out:
        src = os.path.join(out, "input.json")
        with open(src, "w") as fh:
            json.dump(doc, fh)
        with mock.patch.dict(os.environ, {"COXFIELD_THREADS": "1"}):
            return main([command, src, "--out", out])


@settings(max_examples=60)
@given(doc=_document(MODEL_BASE, MODEL_EDGES))
def test_fixed_point_schema_fuzz(doc):
    assert _exit_code("fixed-point", doc) in (0, 1, 2)


@settings(max_examples=60)
@given(doc=_document(SIM_BASE, SIM_EDGES))
def test_simulate_schema_fuzz(doc):
    assert _exit_code("simulate", doc) in (0, 1, 2)


# ---------------------------------------------------------------------------
# malformed documents, deterministically: each key of each document set to
# each edge value; malformed input exits 2, other input 0 or 1, and main()
# never raises

SMALL_MODEL = {"policy": "jsq", "lambda": 0.5, "B": 2, "d": 2, "service": EXPO}
STATE = {"B": 2, "n": 1, "h": [[0.5], [0.25]]}
#: per document: its command line, its base document (by key, None for the
#: other keys), its required keys and its integer keys
DOCUMENTS = {
    "distribution": (["convert", "DOC"], {None: HYPER, "continuations": COX},
                     {"kind", "rates", "weights", "continuations"}, set()),
    "model": (["fixed-point", "DOC"],
              {None: SMALL_MODEL, "r": dict(SMALL_MODEL, policy="pullpush", r=1.0),
               "K": dict(SMALL_MODEL, policy="batchjsq", K=1)},
              {"policy", "lambda", "service"}, {"B", "d", "K"}),
    "state": (["integrate", "MODEL", "--t-final", "0", "--init", "DOC"], {None: STATE},
              {"B", "n", "h"}, {"B", "n"}),
    "simulation": (["simulate", "DOC"],
                   {None: {"model": SMALL_MODEL, "N": 3, "horizon": 0.05, "warmup": 0.0,
                           "replications": 1, "seed": 0}},
                   {"model", "N", "horizon"}, {"N", "replications", "seed"}),
}
LIST_EDGES = [[[1.0]], ["1"], [True], [1.0, "x"], {}]
ROW_EDGES = [[0.5, 0.25], [[[0.5]], [[0.25]]], [["1"], [0.5]], [[True], [0.5]],
             [[0.5], [0.25, 0.0]], [[0.5]], {}, "abc"]
NOT_NUMBERS = {"kind", "policy", "service", "model", "rates", "weights",
               "continuations", "h"}


def _malformed(name, key, value):
    required, integers = DOCUMENTS[name][2:]
    if value is None or value is _ABSENT:
        return key in required
    if name == "state" or key in NOT_NUMBERS:
        # a state's other B or n no longer matches its rows
        return True
    if isinstance(value, (str, bool)):
        return True
    return key in integers and not (
        float(value).is_integer() and value <= SCHEMA_CAPS.get(key, math.inf)
    )


def _document_cases():
    for name, (_, bases, _, _) in DOCUMENTS.items():
        for key in sorted({key for base in bases.values() for key in base}):
            edges = _edges(key)
            edges += ROW_EDGES if key == "h" else []
            edges += LIST_EDGES if key in ("rates", "weights", "continuations") else []
            for k, value in enumerate(edges):
                doc = dict(bases.get(key, bases[None]))
                if value is _ABSENT:
                    del doc[key]
                else:
                    doc[key] = value
                code = 2 if _malformed(name, key, value) else None
                yield pytest.param(name, doc, code, id=f"{name}-{key}-{k}")


#: the malformed documents that used to raise or be accepted
MALFORMED = [
    ("model", dict(SMALL_MODEL, service={**EXPO, "continuations": None})),
    ("model", dict(SMALL_MODEL, service={**EXPO, "rates": 5})),
    ("model", dict(SMALL_MODEL, service={**HYPER, "weights": [[1.0]]})),
    ("model", dict(SMALL_MODEL, service={**EXPO, "rates": "ab"})),
    ("model", dict(SMALL_MODEL, service={**HYPER, "rates": [2.0, "x"]})),
    ("model", dict(SMALL_MODEL, service={**EXPO, "rates": [True]})),
    ("model", dict(SMALL_MODEL, service={**EXPO, "rates": ["1"]})),
    ("state", dict(STATE, B=None)),
    ("state", dict(STATE, h={})),
    ("state", dict(STATE, B="x")),
    ("state", dict(STATE, h=[[0.5], [0.25, 0.0]])),
    ("state", dict(STATE, h="abc")),
    ("state", dict(STATE, B=2.5)),
    ("state", dict(STATE, h=[[True], [0.5]])),
    ("model", dict(SMALL_MODEL, policy="fifo")),
    ("model", dict(SMALL_MODEL, policy=["jsq"])),
]


@pytest.mark.parametrize(
    "name, doc, code",
    [pytest.param(name, doc, 2, id=f"table-{k}") for k, (name, doc) in enumerate(MALFORMED)]
    + list(_document_cases()),
)
def test_malformed_documents_exit_2(tmp_path, name, doc, code):
    files = {"DOC": write(tmp_path / "doc.json", doc),
             "MODEL": write(tmp_path / "model.json", SMALL_MODEL)}
    argv = [files.get(arg, arg) for arg in DOCUMENTS[name][0]]
    with mock.patch.dict(os.environ, {"COXFIELD_THREADS": "1"}):
        got = main(argv + ["--out", str(tmp_path)])
    assert got == code if code else got in (0, 1)


# ---------------------------------------------------------------------------
# verify


def test_verify_order_oracle(tmp_path):
    args = ["verify", "order-oracle", "--count", "60", "--B", "4", "--phases", "2",
            "--out", str(tmp_path), "--seed", "5"]
    assert main(args) == 0
    out = load(tmp_path, "verify_order_oracle.json")
    assert out["pass"] is True
    assert out["agreements"] == out["count"] == 60
    assert out["disagreements"] == []


@pytest.mark.parametrize("size", [
    ["--B", "0"], ["--phases", "0"], ["--B", "-3"],
    ["--B", "24", "--phases", "7"],  # 2,035,800 level sequences
    ["--B", "1", "--phases", "200000"],  # one sequence, but 200,000 entries
])
def test_verify_order_oracle_rejects_sizes(tmp_path, size):
    started = time.perf_counter()
    assert main(["verify", "order-oracle", *size, "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - started < 2
    assert "--B" in load(tmp_path, "manifest.json")["error"]


def test_verify_order_oracle_cap_admits_default_size(tmp_path):
    args = ["verify", "order-oracle", "--count", "4", "--out", str(tmp_path)]
    assert main(args) == 0
    assert load(tmp_path, "verify_order_oracle.json")["B"] == 5


def test_verify_monotone(tmp_path):
    src = model_file(tmp_path, B=4, service={"kind": "coxian", "rates": [1.0],
                                             "continuations": [0.0]})
    args = ["verify", "monotone", "--model", src, "--count", "3", "--T", "5",
            "--out", str(tmp_path)]
    assert main(args) == 0
    out = load(tmp_path, "verify_monotone.json")
    assert out["pass"] is True and len(out["cases"]) == 3


def test_verify_needs_model(tmp_path):
    assert main(["verify", "monotone", "--out", str(tmp_path)]) == 2
    assert "model" in load(tmp_path, "manifest.json")["error"]


def test_verify_rejects_empty_count(tmp_path):
    args = ["verify", "monotone", "--model", model_file(tmp_path), "--count", "0",
            "--out", str(tmp_path)]
    assert main(args) == 2
    assert "--count" in load(tmp_path, "manifest.json")["error"]


def test_verify_attract(tmp_path):
    args = ["verify", "attract", "--model", model_file(tmp_path), "--count", "4",
            "--T", "150", "--out", str(tmp_path)]
    assert main(args) == 0
    out = load(tmp_path, "verify_attract.json")
    assert out["suite"] == "attract" and out["model"]["B"] == 6
    assert out["pass"] is True and len(out["distances"]) == 4
    assert out["max_distance"] == max(out["distances"]) <= 1e-6


def test_verify_attract_default_horizon_on_readme_model(tmp_path):
    # jsq lam=0.9, B=25 relaxes slowly: at T=200 starts were still 6e-3
    # from pi, so the suite failed with its own defaults
    src = model_file(tmp_path, **{"lambda": 0.9, "B": 25})
    args = ["verify", "attract", "--model", src, "--count", "3", "--out", str(tmp_path)]
    assert main(args) == 0
    out = load(tmp_path, "verify_attract.json")
    assert out["pass"] is True and out["max_distance"] <= 1e-6


def test_verify_lyapunov(tmp_path):
    args = ["verify", "lyapunov", "--model", model_file(tmp_path), "--count", "3",
            "--T", "4", "--out", str(tmp_path)]
    assert main(args) == 0
    out = load(tmp_path, "verify_lyapunov.json")
    assert out["suite"] == "lyapunov" and out["pass"] is True
    assert len(out["cases"]) == 3
    assert all(c["ok"] and c["max_rate"] <= 1e-9 and c["max_rate_gap"] <= 1e-6
               for c in out["cases"])


def test_verify_lyapunov_rate_gaps_on_readme_model(tmp_path):
    # the closed-form rates meet the functionals of the drift to rounding
    src = model_file(tmp_path, **{"lambda": 0.9, "B": 25})
    assert main(["verify", "lyapunov", "--model", src, "--out", str(tmp_path)]) == 0
    cases = load(tmp_path, "verify_lyapunov.json")["cases"]
    assert len(cases) == 5 and all(c["max_rate_gap"] <= 1e-12 for c in cases)


def test_verify_monotone_matches_per_pair_reports(tmp_path):
    from coxfield.cli import _ordered_pair

    src = model_file(tmp_path, B=None)
    args = ["verify", "monotone", "--model", src, "--count", "5", "--T", "3",
            "--seed", "7", "--out", str(tmp_path)]
    assert main(args) == 0
    cases = load(tmp_path, "verify_monotone.json")["cases"]
    model = model_from_dict(json.loads((tmp_path / "model.json").read_text()))
    model = model.with_buffer(10)
    rng = np.random.default_rng(7)
    for k, case in enumerate(cases):
        lo, hi = _ordered_pair(rng, 10, model.n, k % 3)
        report = cf.monotonicity_report(model, lo, hi, 3.0, samples=20)
        assert case == {"ok": report.ok, "min_margin": report.min_margin,
                        "violation_time": report.violation_time}
    assert len(cases) == 5
