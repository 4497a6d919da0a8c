"""The traced run: a fixed layer suite and the per-layer numbers.

Besides one traced pass of the workload, every traced run covers a fixed
layer suite, the same on every workload, so that each per-layer number is
measured on every workload from the same inputs:

* microbenchmarks of single calls (``micro.*`` labels): conversion, class
  check, moments and fit; cdf/pdf/hazard on a uniform grid and cdf at
  unsorted times; ``leq``, ``leq_report``, ``state_space_report`` and
  ``random_state``; ``drift`` on one B=25 state and on a batch of states
  per policy; serial single-replication ``simulate`` per configuration;
* one solve of each model, the two transient calls, and one ``replicate``
  of each simulation configuration.  Those the workload pass already ran
  are not repeated.

Counts (``*.calls``) come from the workload pass alone.  Self times cover
the whole traced run.
"""

import statistics

import numpy as np

import coxfield as cf
import reference as ref
import workloads as W

POLICIES = {"jsq": "jsq-0.9", "pullpush": "pullpush-0.5", "batchjsq": "batchjsq-0.3"}

#: (name, unit) of every per-layer metric, in the order they are printed
PER_LAYER = (
    [("dist.hyperexp_to_coxian.calls", "count"),
     ("dist.hyperexp_to_coxian.us_per_call", "us")]
    + [(f"dist.{f}.us_per_call", "us") for f in
       ("has_decreasing_completion_rates", "normalized_moments", "fit_hyperexp2")]
    + [(f"dist.{f}.ms_per_call", "ms") for f in ("cdf", "pdf", "hazard", "cdf_scatter")]
    + [("dist.self_s", "s")]
    + [(f"order.{f}.us_per_call", "us") for f in ("leq", "leq_report", "random_state")]
    + [("order.state_space_report.calls", "count"),
       ("order.state_space_report.us_per_call", "us"),
       ("order.self_s", "s"),
       ("mfode.drift.calls", "count")]
    + [(f"mfode.drift.us_per_call.{p}", "us") for p in POLICIES]
    + [(f"mfode.drift.us_per_state.{p}", "us") for p in POLICIES]
    + [(f"mfode.fixed_point.{k}.{m}", u) for m in W.MODEL_SPECS for k, u in
       (("s", "s"), ("newton_steps", "count"), ("buffers_tried", "count"),
        ("drift_calls", "count"))]
    + [("mfode.fixed_point.self_s", "s"),
       ("mfode.integrate.s", "s"),
       ("mfode.monotonicity_report.s", "s"),
       ("mfode.self_s", "s")]
    + [(f"sim.{k}.{c}", u) for c in W.SIM_CONFIGS for k, u in
       (("replicate.s", "s"), ("simulate.s_per_replication", "s"),
        ("parallel_efficiency", "ratio"), ("drop_fraction", "ratio"))]
    + [("sim.compare_to_fixed_point.us", "us"),
       ("sim.self_s", "s"),
       ("trace.untraced_pass_s", "s"),
       ("trace.traced_pass_s", "s"),
       ("trace.overhead_pct", "%"),
       ("trace.spans", "count")]
)


def mean(values):
    return statistics.fmean(values) if values else 0.0


def collect_results(outcomes):
    """Fixed points and estimates found in a workload pass's outcomes."""
    fps, sims = {}, {}
    for name, out in outcomes.items():
        if name.startswith("fp."):
            fps.setdefault(name[3:], out.data)
        elif name.startswith("sim."):
            est, result, _ = out.data
            config = name[4:]
            sims[config] = est
            fps.setdefault(W.SMALL_N_MODEL if config == W.SMALL_N else config, result)
    return fps, sims


def cover(tr, seed, size, fps, sims):
    """Run what the workload pass did not; returns (attempted, failures)."""
    attempted, fails = 0, []
    labels = {rec[4] for rec in tr.spans}
    with tr.paused():
        meanfield = W.MeanField(seed, size)
        finite = W.FiniteN(seed, size)
    for item in meanfield.items():
        label = item.name if item.name.startswith("fp.") else "transient." + item.name
        if label in labels:
            continue
        out = item.run(tr)
        attempted += out.ops
        with tr.paused():
            fails += item.check(out)
        if item.name.startswith("fp."):
            fps[item.name[3:]] = out.data
    for name, config in finite.configs.items():
        if f"sim.{name}" in labels:
            continue
        model = W.SMALL_N_MODEL if name == W.SMALL_N else name
        with tr.label(f"sim.{name}"):
            est = cf.replicate(config)
            cmp = cf.compare_to_fixed_point(est, fps[model].pi)
        attempted += 2
        with tr.paused():
            fails += W.check_estimate(name, config, est, fps[model].pi.h, cmp,
                                      name != W.SMALL_N)
        sims[name] = est
    return attempted, fails


def repeat_solve(tr, size, fps):
    """Solve one model again: counts, Newton steps and bytes must repeat."""
    name = "pullpush-0.5"
    with tr.paused():
        model = W.build_models()[name]
    again = W.solve(tr, name, model, W.SIZES[size]["fixed_point"])
    first = fps[name]
    drift_counts = {
        _drift_calls(tr, k) for k in tr.top_level("mfode.fixed_point", f"fp.{name}")
    }
    same = (
        len(drift_counts) == 1
        and again.newton_steps == first.newton_steps
        and again.B == first.B
        and again.pi.h.tobytes() == first.pi.h.tobytes()
    )
    return 1, [] if same else [f"determinism: repeated solve of {name} differs"]


def micro(tr, seed, size):
    """The fixed microbenchmarks; same inputs on every workload."""
    rng = np.random.default_rng([seed, 1])
    spec = W.SIZES[size]["micro"]
    t_max = W.SIZES[size]["grid"]["t_max"]
    with tr.paused():
        configs = W.FiniteN(seed, size).configs
        models = W.build_models()
        hypers = [cf.HyperExponential(*W.random_hyperexp(rng)) for _ in range(spec["hypers"])]
        coxians = [cf.CoxianDistribution(*W.random_decreasing_coxian(rng))
                   for _ in range(spec["coxians"])]
    grid = np.linspace(0.0, t_max, spec["points"])
    scattered = rng.uniform(0.0, t_max, size=spec["points"])
    pairs = [W.random_pair(rng, int(rng.integers(1, 7)), int(rng.integers(1, 5)), k % 4)
             for k in range(spec["pairs"])]
    state = ref.random_valid_state(rng, 25, 2)
    batch = np.stack([ref.random_valid_state(rng, 25, 2)
                      for _ in range(spec["batch_states"])])

    with tr.label("micro.convert"):
        for h in hypers:
            cf.has_decreasing_completion_rates(cf.hyperexp_to_coxian(h))
            cf.fit_hyperexp2(cf.normalized_moments(h))
    with tr.label("micro.grid"):
        for cox in coxians:
            cf.cdf(cox, grid)
            cf.pdf(cox, grid)
            cf.hazard(cox, grid)
    with tr.label("micro.cdf_scatter"):
        for cox in coxians:
            cf.cdf(cox, scattered)
    with tr.label("micro.order"):
        for lo, hi in pairs:
            cf.leq(lo, hi)
            cf.leq_report(lo, hi)
            cf.state_space_report(hi)
    with tr.label("micro.random_state"):
        for _ in range(spec["pairs"]):
            cf.random_state(25, 2, rng)
    for policy, name in POLICIES.items():
        model = models[name]
        with tr.label(f"micro.drift.{policy}"):
            for _ in range(spec["drift_calls"]):
                cf.drift(model, state)
        with tr.label(f"micro.drift_batch.{policy}"):
            for _ in range(spec["batch_calls"]):
                cf.drift(model, batch)
    for name, config in configs.items():
        # one long replication, or enough short ones to average dispatch out
        reps = min(config.replications, 16) if name == W.SMALL_N else 1
        with tr.label(f"micro.simulate.{name}"):
            for r in range(reps):
                cf.simulate(config, seed=config.seed + r)
    return configs


def _drift_calls(tr, index):
    lo, hi = tr.subtree(index)
    return tr.counts(lo, hi)["mfode.drift"]


def per_layer(tr, size, pass_range, fps, sims, configs, threads, untraced_s, traced_s):
    counts = tr.counts(*pass_range)
    selfs = tr.layer_self_s()
    own = tr.self_times()
    micro_batch = W.SIZES[size]["micro"]["batch_states"]
    out = {
        "dist.hyperexp_to_coxian.calls": counts["dist.hyperexp_to_coxian"],
        "order.state_space_report.calls": counts["order.state_space_report"],
        "mfode.drift.calls": counts["mfode.drift"],
    }
    for f in ("hyperexp_to_coxian", "has_decreasing_completion_rates",
              "normalized_moments", "fit_hyperexp2"):
        out[f"dist.{f}.us_per_call"] = 1e6 * mean(tr.durations(f"dist.{f}", "micro.convert"))
    for f in ("cdf", "pdf", "hazard"):
        out[f"dist.{f}.ms_per_call"] = 1e3 * mean(tr.durations(f"dist.{f}", "micro.grid"))
    out["dist.cdf_scatter.ms_per_call"] = 1e3 * mean(tr.durations("dist.cdf", "micro.cdf_scatter"))
    for f in ("leq", "leq_report", "state_space_report"):
        out[f"order.{f}.us_per_call"] = 1e6 * mean(tr.durations(f"order.{f}", "micro.order"))
    out["order.random_state.us_per_call"] = 1e6 * mean(
        tr.durations("order.random_state", "micro.random_state"))
    for policy in POLICIES:
        out[f"mfode.drift.us_per_call.{policy}"] = 1e6 * mean(
            tr.durations("mfode.drift", f"micro.drift.{policy}"))
        out[f"mfode.drift.us_per_state.{policy}"] = 1e6 * mean(
            tr.durations("mfode.drift", f"micro.drift_batch.{policy}")) / micro_batch

    fp_self = 0.0
    for name, result in fps.items():
        k = tr.top_level("mfode.fixed_point", f"fp.{name}")[0]
        lo, hi = tr.subtree(k)
        rec = tr.spans[k]
        out[f"mfode.fixed_point.s.{name}"] = rec[2] - rec[1]
        out[f"mfode.fixed_point.newton_steps.{name}"] = result.newton_steps
        out[f"mfode.fixed_point.buffers_tried.{name}"] = max(
            1, sum(1 for j in range(lo + 1, hi) if tr.spans[j][0] == "mfode.fixed_point"))
        out[f"mfode.fixed_point.drift_calls.{name}"] = tr.counts(lo, hi)["mfode.drift"]
        fp_self += sum(own[j] for j in range(lo, hi) if tr.spans[j][0] == "mfode.fixed_point")
    out["mfode.fixed_point.self_s"] = fp_self
    out["mfode.integrate.s"] = _first(tr, "mfode.integrate", "transient.integrate")
    out["mfode.monotonicity_report.s"] = _first(
        tr, "mfode.monotonicity_report", "transient.monotonicity")

    for name, config in configs.items():
        replicate_s = _first(tr, "sim.replicate", f"sim.{name}")
        per_rep = mean(tr.durations("sim.simulate", f"micro.simulate.{name}"))
        workers = min(threads, config.replications)
        out[f"sim.replicate.s.{name}"] = replicate_s
        out[f"sim.simulate.s_per_replication.{name}"] = per_rep
        out[f"sim.parallel_efficiency.{name}"] = (
            config.replications * per_rep / (workers * replicate_s))
        out[f"sim.drop_fraction.{name}"] = sims[name].drop_fraction
    compare = [rec[2] - rec[1] for rec in tr.spans if rec[0] == "sim.compare_to_fixed_point"]
    out["sim.compare_to_fixed_point.us"] = 1e6 * mean(compare)
    for layer, value in selfs.items():
        out[f"{layer}.self_s"] = value
    out["trace.untraced_pass_s"] = untraced_s
    out["trace.traced_pass_s"] = traced_s
    out["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    out["trace.spans"] = len(tr.spans)
    return {name: (out[name], unit) for name, unit in PER_LAYER}


def _first(tr, name, label):
    k = tr.top_level(name, label)[0]
    rec = tr.spans[k]
    return rec[2] - rec[1]
