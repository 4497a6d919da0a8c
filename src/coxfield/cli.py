"""Command-line front end, and the one reader and writer of the JSON format.

Each subcommand reads JSON inputs, writes its primary output files plus a
run manifest into --out, and returns 0 on success, 1 when the math
rejects the input, a verification fails or the run overflows or runs out
of memory, and 2 on malformed input.
Primary outputs are deterministic given the same inputs and seed; the
manifest additionally records wall-clock time, the tool version and, for
``fixed-point``, ``integrate`` and ``simulate``, the work counts under
"stats".

The distribution, model, simulation and state documents are read here
only, every field through ``_field``; the library modules take Python
objects and carry no schema code.
"""

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict
from itertools import combinations_with_replacement

import numpy as np

from . import __version__
from .dist import (
    MomentTriple,
    cdf,
    coxian_to_mixture,
    fit_hyperexp2,
    has_decreasing_completion_rates,
    hyperexp_to_coxian,
    normalized_moments,
    raw_moments,
    CoxianDistribution,
    HyperExponential,
)
from .mfode import (
    POLICY_FIELDS,
    FixedPointError,
    IntegrationError,
    PolicyModel,
    attraction_report,
    fixed_point,
    fixed_point_structure_residual,
    integrate,
    lyapunov_report,
    monotonicity_report,
)
from .order import (
    ORDER_TOL,
    MeanFieldState,
    _as_h,
    full_state,
    level_phase_mass,
    leq,
    random_state,
    upper_envelope,
    zero_state,
)
from .sim import SimConfig, compare_to_fixed_point, replicate


class SchemaError(ValueError):
    """Malformed input, on which ``main`` exits 2.

    A wrong JSON type or shape, a missing required field, an unknown
    distribution ``kind`` or ``policy``, or an integer above its cap.
    Fields a document does not define are ignored, not rejected.  A plain
    ValueError instead marks well-formed input rejected on mathematical
    grounds (duplicate rates, infeasible moments, ...), and exits 1.
    """


#: Largest accepted value of each integer field of the model and
#: simulation schemas.  Larger values are malformed input: a jsq ``d`` of
#: 1e300 would loop for ever in the drift and an ``N`` of 1e300 cannot be
#: allocated.  ``B`` allows twice the largest automatic buffer.
SCHEMA_CAPS = {"B": 1024, "d": 100, "K": 100, "N": 10**6, "replications": 10**4}

#: Largest accepted size of one ``verify order-oracle`` case: the number of
#: level sequences it enumerates, C(B + phases - 1, phases), and the B·phases
#: entries of its states.  The enumeration grows combinatorially: B=24,
#: phases=7 (2,035,800 sequences) took 41 s for four cases.
ORACLE_CAP = 10**5


def _field(data: dict, key: str, where: str, depth=0, integer=False, required=False):
    """Field ``key`` of a ``where`` document, checked; None when absent.

    ``depth`` 0 reads a number, 1 a list of numbers and 2 a list of
    equal-length rows of numbers.  A number is an int or a float, never a
    bool or a string; an integer field holds an integer value (2.0 counts)
    no larger than its SCHEMA_CAPS cap.  null counts as missing, which is
    malformed when ``required``.
    """
    value = data.get(key)
    if value is None:
        if required:
            raise SchemaError(f"{where} is missing required field {key!r}")
        return None
    what = f"{where} field {key!r}"

    def read(item, level):
        if level:
            if not isinstance(item, list):
                raise SchemaError(f"{what}: expected a list, got {item!r}")
            items = [read(v, level - 1) for v in item]
            if level == 2 and len({len(row) for row in items}) > 1:
                raise SchemaError(f"{what} has rows of different lengths")
            return items
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise SchemaError(f"{what}: expected a number, got {item!r}")
        if not integer:
            return float(item)
        if isinstance(item, float) and not item.is_integer():
            raise SchemaError(f"{what} must be an integer, got {item!r}")
        cap = SCHEMA_CAPS.get(key)
        if cap is not None and item > cap:
            raise SchemaError(f"{what} must be at most {cap}, got {item!r}")
        return int(item)

    return read(value, depth)


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def distribution_to_dict(dist) -> dict:
    """Plain-dict form: {"kind", "rates", "continuations"|"weights"}."""
    if isinstance(dist, CoxianDistribution):
        return {
            "kind": "coxian",
            "rates": list(dist.rates),
            "continuations": list(dist.continuations),
        }
    return {"kind": "hyperexp", "rates": list(dist.rates), "weights": list(dist.weights)}


def distribution_from_dict(data):
    """Inverse of :func:`distribution_to_dict`, with schema validation."""
    kind = _object(data, "distribution").get("kind")
    if kind == "coxian":
        rates, conts = (
            _field(data, key, "coxian distribution", depth=1, required=True)
            for key in ("rates", "continuations")
        )
        return CoxianDistribution(rates, conts)
    if kind == "hyperexp":
        weights, rates = (
            _field(data, key, "hyperexp distribution", depth=1, required=True)
            for key in ("weights", "rates")
        )
        return HyperExponential(weights, rates)
    raise SchemaError(f"distribution kind must be 'coxian' or 'hyperexp', got {kind!r}")


def model_to_dict(model: PolicyModel) -> dict:
    return {
        "policy": model.kind,
        "lambda": model.lam,
        "B": model.B,
        "service": distribution_to_dict(model.service),
    } | {key: getattr(model, key) for key in POLICY_FIELDS[model.kind]}


def model_from_dict(data) -> PolicyModel:
    """Build a model from its JSON dict; PolicyModel converts hyperexp services."""
    policy = _object(data, "model").get("policy")
    if not isinstance(policy, str) or policy not in POLICY_FIELDS:
        raise SchemaError(f"model policy must be one of {sorted(POLICY_FIELDS)}, "
                          f"got {policy!r}")
    lam = _field(data, "lambda", "model", required=True)
    service = distribution_from_dict(_object(data.get("service"), "model service"))
    B, d, K = (_field(data, key, "model", integer=True) for key in "BdK")
    r = _field(data, "r", "model")
    return PolicyModel(kind=policy, lam=lam, service=service, B=B, d=d, K=K, r=r)


def state_to_dict(state) -> dict:
    """Plain-dict form {"B", "n", "h"} with h as a nested list."""
    h = _as_h(state)
    return {"B": h.shape[0], "n": h.shape[1], "h": h.tolist()}


def state_from_dict(data) -> MeanFieldState:
    """Inverse of :func:`state_to_dict`, with schema validation."""
    data = _object(data, "state")
    B, n = (_field(data, key, "state", integer=True, required=True) for key in "Bn")
    h = np.array(_field(data, "h", "state", depth=2, required=True), dtype=float)
    if h.shape != (B, n):
        raise SchemaError(f"state array has shape {h.shape}, expected ({B}, {n})")
    return MeanFieldState(h)


def _tol(args, name="tol"):
    """``{name: --tol}`` when --tol is given; otherwise the callee's default."""
    return {} if args.tol is None else {name: args.tol}


def _jsonable(obj):
    """``obj`` in plain JSON values, each non-finite float as None (null)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path, obj):
    """Strict JSON: NaN and ±inf, which JSON cannot hold, are written as null."""
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _write_manifest(args, inputs, outputs, started, error=None):
    manifest = {
        "command": args.command,
        "argv": list(args.raw_argv),
        "tool_version": __version__,
        "out_dir": os.path.abspath(args.out),
        "inputs": inputs,
        "outputs": sorted(outputs),
        "wall_clock_s": round(time.monotonic() - started, 6),
    }
    manifest |= {key: getattr(args, key) for key in ("seed", "tol") if key in args}
    if args.stats is not None:
        manifest["stats"] = args.stats
    if error is not None:
        manifest["error"] = error
    _write_json(os.path.join(args.out, "manifest.json"), manifest)


def _cmd_convert(args):
    data = _load_json(args.input)
    dist = distribution_from_dict(data)
    cox = dist if isinstance(dist, CoxianDistribution) else hyperexp_to_coxian(dist)
    check = has_decreasing_completion_rates(cox)
    mix = coxian_to_mixture(cox)
    m1, m2, m3 = raw_moments(dist, 3)
    out = {
        "input": distribution_to_dict(dist),
        "coxian": distribution_to_dict(cox),
        "completion_rates": cox.completion_rates,
        "class": asdict(check),
        "mixture": {
            "weights": list(mix.weights),
            "rates": list(mix.rates),
            "is_hyperexponential": mix.is_hyperexponential,
        },
        "moments": {"m1": m1, "m2": m2, "m3": m3},
    }
    code = 0
    if not isinstance(dist, CoxianDistribution):
        grid = np.linspace(0.1, 5.0, 50) * m1
        gap = float(np.max(np.abs(cdf(dist, grid) - cdf(cox, grid))))
        out["cdf_max_gap"] = gap
        if not gap <= (1e-10 if args.tol is None else args.tol):  # NaN fails
            print(f"conversion CDF gap {gap:.3e} exceeds tolerance", file=sys.stderr)
            code = 1
    path = os.path.join(args.out, "convert.json")
    _write_json(path, out)
    return code, {"input": data}, [path]


def _cmd_fit(args):
    target = MomentTriple(args.m1, args.n2, args.n3)
    hyper = fit_hyperexp2(target)
    achieved = normalized_moments(hyper)
    out = {
        "target": asdict(target),
        "hyperexp": distribution_to_dict(hyper),
        "coxian": distribution_to_dict(hyperexp_to_coxian(hyper)),
        "achieved": asdict(achieved),
    }
    path = os.path.join(args.out, "fit.json")
    _write_json(path, out)
    return 0, {"target": out["target"]}, [path]


def _cmd_fixed_point(args):
    model = model_from_dict(_load_json(args.model))
    result = fixed_point(model, **_tol(args, "residual_tol"))
    args.stats = asdict(result.stats)
    structure = fixed_point_structure_residual(result.pi, model.service)
    out = {
        "pi": state_to_dict(result.pi),
        "residual": result.residual,
        "newton_steps": result.newton_steps,
        "structure": asdict(structure),
    }
    path = os.path.join(args.out, "fixed_point.json")
    _write_json(path, out)
    return 0, {"model": model_to_dict(model)}, [path]


def _initial_state(init, model):
    if init in ("empty", "full"):
        if model.B is None:
            raise SchemaError("model needs a finite B to integrate")
        return (zero_state if init == "empty" else full_state)(model.B, model.n)
    state = state_from_dict(_load_json(init))
    if (model.B is not None and state.B != model.B) or state.n != model.n:
        raise SchemaError(
            f"initial state is {state.B}x{state.n}, model needs "
            f"{model.B}x{model.n}"
        )
    return state


def _cmd_integrate(args):
    if args.samples < 1:
        raise SchemaError(f"--samples must be at least 1, got {args.samples}")
    model = model_from_dict(_load_json(args.model))
    h0 = _initial_state(args.init, model)
    if model.B is None:
        model = model.with_buffer(h0.B)
    traj = integrate(model, h0, args.t_final, samples=args.samples)
    args.stats = asdict(traj.stats)
    path = os.path.join(args.out, "trajectory.csv")
    B, n = h0.B, h0.n
    header = ["t"] + [f"h_{l}_{i}" for l in range(1, B + 1) for i in range(1, n + 1)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, state in zip(traj.times, traj.states):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in state.ravel()])
    return 0, {"model": model_to_dict(model), "init": args.init}, [path]


def _cmd_simulate(args):
    data = _object(_load_json(args.config), "simulation config")
    model = model_from_dict(data.get("model"))
    if model.B is None:
        raise SchemaError("simulation model is missing required field 'B'")

    def number(key, integer=False, required=False):
        return _field(data, key, "simulation", integer=integer, required=required)

    seed = number("seed", integer=True)
    replications = number("replications", integer=True)
    config = SimConfig(
        model=model,
        N=number("N", integer=True, required=True),
        horizon=number("horizon", required=True),
        seed=args.seed if seed is None else seed,
        warmup=number("warmup"),
        replications=1 if replications is None else replications,
    )
    estimate = replicate(config)
    args.stats = asdict(estimate.stats)
    pi = fixed_point(model)
    report = compare_to_fixed_point(estimate, pi.pi)
    out = {
        "h_bar": estimate.h_bar,
        "half_width": estimate.half_width,
        "n_servers": estimate.n_servers,
        "replications": estimate.replications,
        "drop_fraction": estimate.drop_fraction,
        "pi": state_to_dict(pi.pi),
        "pi_residual": pi.residual,
        "distance_to_pi": report.distance,
        "excess_entries": report.excess_entries,
        "total_entries": report.total_entries,
    }
    path = os.path.join(args.out, "simulate.json")
    _write_json(path, out)
    inputs = {"config": data, "resolved_warmup": config.resolved_warmup}
    return 0, inputs, [path]


def _leq_enumerate(lo, hi, tol=ORDER_TOL):
    """Reference order decision straight from the definition."""
    a, b = _as_h(lo), _as_h(hi)
    if float((b - a).min()) < -tol:
        return False
    B, n = a.shape
    for combo in combinations_with_replacement(range(1, B + 1), n):
        seq = tuple(reversed(combo))
        if seq[0] > seq[-1]:
            if level_phase_mass(hi, seq) - level_phase_mass(lo, seq) < -tol:
                return False
    return True


def _ordered_pair(rng, B, n, pick):
    """Ordered (lo, hi) pairs from a few qualitatively different recipes."""
    if pick == 0:
        lo = random_state(B, n, rng)
        return lo, upper_envelope(lo, random_state(B, n, rng))
    if pick == 1:
        hi = random_state(B, n, rng)
        return _as_h(hi) * rng.uniform(0.0, 1.0), hi
    return zero_state(B, n), random_state(B, n, rng)


def _random_starts(count, model, rng):
    """A (count, B, n) stack of seeded random valid states."""
    return np.stack([_as_h(random_state(model.B, model.n, rng)) for _ in range(count)])


def _suite_monotone(args, model, rng):
    pairs = [_ordered_pair(rng, model.B, model.n, k % 3) for k in range(args.count)]
    lo, hi = (np.stack([_as_h(p[side]) for p in pairs]) for side in (0, 1))
    report = monotonicity_report(model, lo, hi, args.T, samples=20, **_tol(args))
    cases = [
        {
            "ok": bool(np.isnan(t)),
            "min_margin": margin,
            "violation_time": None if np.isnan(t) else t,
        }
        for margin, t in zip(report.pair_margins, report.pair_violation_times)
    ]
    return {"cases": cases, "pass": report.ok}


def _suite_attract(args, model, rng):
    starts = _random_starts(args.count, model, rng)
    report = attraction_report(model, starts, args.T, **_tol(args))
    return {
        "distances": report.distances,
        "max_distance": report.max_distance,
        "pairwise_max": report.pairwise_max,
        "pass": report.ok,
    }


def _suite_lyapunov(args, model, rng):
    starts = _random_starts(args.count, model, rng)
    report = lyapunov_report(model, starts, args.T, **_tol(args))
    cases = [
        {"max_rate": rate, "max_rate_gap": gap, "ok": ok}
        for rate, gap, ok in zip(report.max_rates, report.max_rate_gaps, report.passed)
    ]
    return {"cases": cases, "pass": report.ok}


def _suite_order_oracle(args, rng):
    B, n = args.B, args.phases
    if B < 1 or n < 1:
        raise SchemaError(f"--B and --phases must be at least 1, got {B} and {n}")
    if B * n > ORACLE_CAP or math.comb(B + n - 1, n) > ORACLE_CAP:
        raise SchemaError(f"--B {B} --phases {n} gives cases above ORACLE_CAP "
                          f"({ORACLE_CAP} level sequences or state entries)")
    tol = _tol(args)
    agree = 0
    cases = []
    for k in range(args.count):
        if k % 4 == 0:
            lo, hi = _ordered_pair(rng, B, n, k % 3)
        else:
            lo, hi = random_state(B, n, rng), random_state(B, n, rng)
        got = leq(lo, hi, **tol)
        want = _leq_enumerate(lo, hi, **tol)
        agree += got == want
        if got != want:
            cases.append({"case": k, "dp": got, "enumeration": want})
    inputs = {"B": B, "n": n, "count": args.count}
    out = {"agreements": agree, "disagreements": cases, "pass": agree == args.count}
    return inputs | out, inputs


def _cmd_verify(args):
    if args.count < 1:
        raise SchemaError(f"--count must be at least 1, got {args.count}")
    rng = np.random.default_rng(args.seed)
    if args.suite == "order-oracle":
        result, inputs = _suite_order_oracle(args, rng)
    elif not args.model:
        raise SchemaError(f"suite {args.suite!r} needs --model")
    else:
        model = model_from_dict(_load_json(args.model))
        model = model.with_buffer(model.B or 10)
        inputs = {"model": model_to_dict(model)}
        result = {**inputs, **args.check(args, model, rng)}
    out = {"suite": args.suite, **result}
    path = os.path.join(args.out, f"verify_{args.suite.replace('-', '_')}.json")
    _write_json(path, out)
    return (0 if out["pass"] else 1), inputs, [path]


def _build_parser():
    # each subcommand and verify suite takes only the options it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".", help="output directory")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="base RNG seed")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--tol", type=float, default=None, help="override the default tolerance"
    )

    # allow_abbrev=False: an option is accepted under its full name only
    parser = argparse.ArgumentParser(
        prog="coxfield",
        description="mean-field models of load balancing with Coxian job sizes",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, parents, help):
        p = sub.add_parser(name, parents=parents, help=help, allow_abbrev=False)
        p.set_defaults(run=run)
        return p

    p = command("convert", _cmd_convert, [out, tol],
                "hyperexponential to Coxian, with checks")
    p.add_argument("input", help="distribution JSON file")

    p = command("fit", _cmd_fit, [out], "two-branch hyperexponential from moments")
    p.add_argument("--m1", type=float, required=True, help="mean")
    p.add_argument("--n2", type=float, required=True, help="m2 / m1^2")
    p.add_argument("--n3", type=float, required=True, help="m3 / (m1 m2)")

    p = command("fixed-point", _cmd_fixed_point, [out, tol],
                "solve for the stationary profile")
    p.add_argument("model", help="model JSON file")

    p = command("integrate", _cmd_integrate, [out], "sample an ODE trajectory")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--init", default="empty", help="'empty', 'full' or a state JSON")
    p.add_argument("--t-final", type=float, required=True, help="horizon")
    p.add_argument("--samples", type=int, default=50, help="rows after the first")

    p = command("simulate", _cmd_simulate, [out, seed],
                "finite-N chain vs the fixed point")
    p.add_argument("config", help="simulation config JSON file")

    suites = command("verify", _cmd_verify, [], "randomized structure checks")
    suites = suites.add_subparsers(dest="suite", required=True)
    p = suites.add_parser("order-oracle", parents=[out, seed, tol],
                          help="the order DP against enumeration", allow_abbrev=False)
    p.add_argument("--count", type=int, default=200, help="number of cases")
    p.add_argument("--B", type=int, default=5, help="buffer size")
    p.add_argument("--phases", type=int, default=3, help="phase count")
    for name, check, count, T, help in (
        ("monotone", _suite_monotone, 25, 50.0, "the flow preserves the order"),
        ("attract", _suite_attract, 10, 1000.0, "starts reach the fixed point"),
        ("lyapunov", _suite_lyapunov, 5, 20.0, "the Lyapunov functionals decrease"),
    ):
        p = suites.add_parser(name, parents=[out, seed, tol], help=help,
                              allow_abbrev=False)
        p.set_defaults(check=check)
        p.add_argument("--model", default=None, help="model JSON file")
        p.add_argument("--count", type=int, default=count, help="number of cases")
        p.add_argument("--T", type=float, default=T, help="integration horizon")
    return parser


def main(argv=None):
    raw = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(raw)
    args.raw_argv = raw
    args.stats = None
    os.makedirs(args.out, exist_ok=True)
    started = time.monotonic()
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not 0 <= tol < math.inf:
            raise SchemaError(f"--tol must be finite and nonnegative, got {tol}")
        code, inputs, outputs = args.run(args)
    except SchemaError as exc:
        print(f"coxfield {args.command}: {exc}", file=sys.stderr)
        _write_manifest(args, {}, [], started, error=str(exc))
        return 2
    except (
        ValueError, FixedPointError, IntegrationError, OverflowError, MemoryError
    ) as exc:
        print(f"coxfield {args.command}: {exc}", file=sys.stderr)
        _write_manifest(args, {}, [], started, error=str(exc))
        return 1
    _write_manifest(args, inputs, [os.path.basename(p) for p in outputs], started)
    return code


if __name__ == "__main__":
    sys.exit(main())
