"""Command-line frontend.

Subcommands reproduce the underlying data of every figure-type quantity as
CSV or JSON, with a sibling ``<out>.manifest.json`` whose ``config`` records
the value of every option of the run.  Each option is resolved the same way:
the command line, else the ``--config`` file (a JSON object keyed by long-flag
name, or a manifest), else the subcommand's entry in ``_DEFAULTS``.  A file
value gets the checks of a command-line one (its option's type and choices);
config keys that name no option of the subcommand are ignored.  So re-running a
subcommand with ``--config <manifest>`` regenerates its data file
bit-identically.

Exit codes: 0 success, 2 argument error, 3 numerical error, 4 self-check
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from . import __version__, haar, models, spectral, symgroup
from .errors import NumericalError
from .sim import RngStream, _openblas, _restarted, _run_blocks, gap_statistics

ANALYTIC_KINDS = (
    "chi",
    "xi",
    "rho",
    "purity",
    "chi-poisson",
    "xi-poisson",
    "purity-poisson",
    "bessel",
)

# The analytic kinds that take --d; the other curves take --dA/--dB pairs, and
# bessel takes neither.
_ANALYTIC_D_KINDS = ("chi", "xi", "chi-poisson", "xi-poisson")


@contextmanager
def _atomic(path):
    """A file opened on a temp sibling of ``path`` and moved onto it by
    os.replace when the block ends; if the block raises, it is removed, so
    ``path`` is either written whole or left untouched."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_output(path, fmt, table, manifest):
    """Write the data file of ``table`` (a runner's (column, values) pairs)
    and then its sibling manifest, each atomically."""
    with _atomic(path) as fh:
        if fmt == "csv":
            header = [col["name"] for col, _ in table]
            cells = [[v if isinstance(v, str) else format(float(v), ".17g") for v in values]
                     for _, values in table]
            fh.writelines(",".join(line) + "\n" for line in [header, *zip(*cells)])
        else:
            data = {col["name"]: [v if isinstance(v, str) else float(v) for v in values]
                    for col, values in table}
            json.dump({"columns": [col for col, _ in table], "data": data}, fh, indent=1)
            fh.write("\n")
    with _atomic(path + ".manifest.json") as fh:
        json.dump(manifest, fh, indent=1, default=str)
        fh.write("\n")


def _environment(config):
    """What fixes a run's bytes besides its config: the Python, numpy and BLAS
    versions, whether that BLAS is held at one thread during sampling, and the
    worker threads.  scipy is listed only when the run loaded it (``analytic
    bessel``), since only then does it take part.  Read from the running
    process alone: no subprocess, no package metadata."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_one_thread_pin": _openblas() is not None,
    }
    if "threads" in config:
        env["threads"] = config["threads"]
    scipy = sys.modules.get("scipy")
    if scipy is not None:
        env["scipy"] = scipy.__version__
    return env


def _time_grid(t_max, dt):
    if not (np.isfinite(t_max) and np.isfinite(dt)):
        raise ValueError(f"--t-max and --dt must be finite, got t-max={t_max}, dt={dt}")
    if dt <= 0 or t_max < dt:
        raise ValueError("need dt > 0 and t-max >= dt")
    return np.arange(0.0, t_max + 0.5 * dt, dt)


def _col(name, provenance, units="dimensionless"):
    return {"name": name, "provenance": provenance, "units": units}


def _distinct(flag, values):
    """``values``, or a ValueError naming the first one that repeats."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"{flag} is given {repeated[0]} twice")
    return values


def _pairs(cfg):
    da, db = cfg["dA"] or [], cfg["dB"] or []
    if len(da) != len(db) or not da:
        raise ValueError("--dA and --dB must be given the same number of times")
    return _distinct("--dA/--dB", list(zip(da, db)))


# Each runner takes the resolved config (long-flag names to values) and
# returns (table, summary).  The table lists the data file's columns in
# order as (column, values) pairs: a ``_col`` dict and one value per row.
# ``main`` writes it and puts its columns in the manifest.


def run_analytic(cfg):
    kind = cfg["kind"]
    reads = () if kind == "bessel" else ("d",) if kind in _ANALYTIC_D_KINDS else ("dA", "dB")
    unread = [f"--{flag}" for flag in ("d", "dA", "dB") if flag not in reads and cfg[flag]]
    if kind != "bessel" and cfg["power"] != _DEFAULTS["analytic"]["power"]:
        unread.append("--power")
    if unread:
        raise ValueError(f"analytic {kind} does not read {', '.join(unread)}")
    times = _time_grid(cfg["t-max"], cfg["dt"])
    if kind == "bessel":
        power = cfg["power"]
        try:
            values = [spectral.bessel_limit(tau, power) for tau in times]
        except ImportError as exc:  # scipy is optional for every other command
            raise ValueError(f"analytic bessel needs scipy, which is not importable ({exc})") from exc
        return [(_col("tau", "analytic", "sqrt(d)*time"), times),
                (_col(f"bessel_pow{power}", "analytic"), values)], {}
    table = [(_col("t", "analytic", "time, lambda=1 units"), times)]
    statistics = "POISSON" if kind.endswith("-poisson") else "GUE"
    curve = {
        "chi": spectral.chi_curve,
        "xi": spectral.xi_curve,
        "rho": spectral.rho_curve,
        "purity": spectral.purity_curve,
    }[kind.removesuffix("-poisson")]
    name = kind.replace("-", "_")
    if kind in _ANALYTIC_D_KINDS:
        if not cfg["d"]:
            raise ValueError(f"analytic {kind} requires --d")
        for d in _distinct("--d", cfg["d"]):
            table.append((_col(f"{name}_d{d}", "analytic"), curve(statistics, d, times)))
    else:
        for d_a, d_b in _pairs(cfg):
            values = curve(statistics, d_a, d_b, times)
            if kind == "rho":
                table += [(_col(f"rho_p1_dA{d_a}_dB{d_b}", "analytic"), values[0]),
                          (_col(f"rho_pmix_dA{d_a}_dB{d_b}", "analytic"), values[1])]
            else:
                table.append((_col(f"{name}_dA{d_a}_dB{d_b}", "analytic"), values))
    return table, {}


def _couplings(cfg):
    return {name: cfg[name] for name in _COUPLING_FLAGS if cfg[name] is not None}


def _model_spec(cfg):
    return models.ModelSpec(cfg["model"], cfg["dA"], cfg["dB"], _couplings(cfg))


def run_montecarlo(cfg):
    spec = _model_spec(cfg)
    times = _time_grid(cfg["t-max"], cfg["dt"])
    result = models.ensemble_dynamics(
        spec,
        times,
        cfg["samples"],
        RngStream(cfg["seed"]),
        threads=cfg["threads"],
        scramble=cfg["scramble"],
    )
    table = [(_col("t", "monte-carlo", "time, lambda=1 units"), times)]
    for i in range(spec.d_a):
        table += [(_col(f"rho{i + 1}{i + 1}_mean", "monte-carlo"), result.rho_mean[:, i, i].real),
                  (_col(f"rho{i + 1}{i + 1}_stderr", "monte-carlo"), result.rho_stderr[:, i, i])]
    table += [(_col("purity_mean", "monte-carlo"), result.purity_mean),
              (_col("purity_stderr", "monte-carlo"), result.purity_stderr)]
    return table, {
        "n_samples": result.n_samples,
        "energy_scale": result.energy_scale,
        "stages_s": result.stages,
    }


def run_gaps(cfg):
    spec = _model_spec(cfg)

    def spectra(streams):
        # an overflowing coupling gives an inf H, which build_model rejects
        return [levels for gen in _restarted(streams) for levels in
                models.level_spectra(spec, models.build_model(spec, gen))]

    stats = gap_statistics(_run_blocks(spectra, cfg["samples"], RngStream(cfg["seed"])))
    counts, edges = np.histogram(stats.gaps, bins=cfg["bins"])
    table = [
        (_col("bin_left", "monte-carlo", "mean-gap units"), edges[:-1]),
        (_col("bin_right", "monte-carlo", "mean-gap units"), edges[1:]),
        (_col("weight", "monte-carlo"), counts / counts.sum()),
    ]
    return table, {
        "mean_ratio": stats.mean_ratio,
        "mean_ratio_stderr": stats.mean_ratio_stderr,
        "n_gaps": int(stats.gaps.size),
        "n_skipped": stats.n_skipped,
    }


def run_distance(cfg):
    requested = _distinct("--models", cfg["models"])
    for fam in requested:
        if fam not in models.FAMILIES:
            raise ValueError(f"unknown model family {fam!r}")
    d_a, d_b, samples = cfg["dA"], cfg["dB"], cfg["samples"]
    times = _time_grid(6.0, cfg["dt"])  # the fixed D6 window [0, 6]
    couplings = _couplings(cfg)
    unread = [f"--{name}" for name in couplings
              if not any(name in models.COUPLINGS[fam] for fam in requested)]
    if unread:
        raise ValueError(f"no family of --models {' '.join(requested)} reads {', '.join(unread)}")
    # each family gets the couplings it reads, and every spec is checked
    # before any sampling
    ordered = ["GUE", "POISSON"] + [f for f in requested if f not in ("GUE", "POISSON")]
    specs = [models.ModelSpec(fam, d_a, d_b, {name: value for name, value in couplings.items()
                                               if name in models.COUPLINGS[fam]})
             for fam in ordered]
    # a coupling that overflows fails its family's energy-scale pilot here,
    # before any family is sampled (ensemble_dynamics repeats the pilot, which
    # costs a few percent of the Monte Carlo at 8x32)
    for idx, spec in enumerate(specs):
        if spec.family in models.SPIN_FAMILIES:
            models._pilot_scale(spec, samples, RngStream(cfg["seed"]), idx * samples,
                                cfg["threads"])
    an_gue = models.analytic_gue_trace(d_a, d_b, times)
    an_poi = models.analytic_poisson_trace(d_a, d_b, times)

    traces = {}
    stages = {}
    for idx, spec in enumerate(specs):
        fam = spec.family
        result = models.ensemble_dynamics(
            spec,
            times,
            samples,
            RngStream(cfg["seed"]),
            threads=cfg["threads"],
            stream_offset=idx * samples,
        )
        traces[fam] = models.DynamicsTrace.from_mc(result)
        for stage, seconds in result.stages.items():
            stages[stage] = stages.get(stage, 0.0) + seconds
        print(f"{fam}: sampled {samples} systems", file=sys.stderr)
    denom_gue = models.distance_d6(traces["GUE"], an_gue)
    denom_poi = models.distance_d6(traces["POISSON"], an_poi)
    fams = [fam for fam in ordered if fam in requested]
    table = [
        (_col("model", "monte-carlo"), fams),
        (_col("ratio_to_GUE", "monte-carlo"),
         [models.distance_d6(traces[fam], an_gue) / denom_gue for fam in fams]),
        (_col("ratio_to_Poisson", "monte-carlo"),
         [models.distance_d6(traces[fam], an_poi) / denom_poi for fam in fams]),
    ]
    return table, {
        "denominator_gue": denom_gue,
        "denominator_poisson": denom_poi,
        "stages_s": stages,
    }


# ---------------------------------------------------------------------------
# Self-check suite: exact identities plus the closed-form oracles.
# ---------------------------------------------------------------------------


def _selfcheck_table1():
    def denom(d, q):
        out = 1
        for z in range(q):
            out *= d * d - z * z
        return out

    numerators = {
        2: {(1, 1): lambda d: d * d, (2,): lambda d: -d},
        4: {
            (1, 1, 1, 1): lambda d: d**4 - 8 * d * d + 6,
            (2, 1, 1): lambda d: -(d**3) + 4 * d,
            (2, 2): lambda d: d * d + 6,
            (3, 1): lambda d: 2 * d * d - 3,
            (4,): lambda d: -5 * d,
        },
    }
    for q, table in numerators.items():
        ok = all(
            symgroup.weingarten(d, mu) == Fraction(num(d), denom(d, q))
            for d in range(4, 13)
            for mu, num in table.items()
        )
        yield f"table1 q={q}", ok, "exact" if ok else "MISMATCH"


def _selfcheck_table2():
    spec = haar.build_trace_moment_spec(2)
    expected_r = {
        (): (0, 0), ((1, 2),): (0, 1), ((1, 3),): (0, 0), ((1, 4),): (1, 0),
        ((2, 3),): (1, 0), ((2, 4),): (0, 0), ((3, 4),): (0, 1),
        ((1, 2, 3),): (0, 1), ((1, 3, 2),): (1, 0), ((1, 2, 4),): (0, 1),
        ((1, 4, 2),): (1, 0), ((1, 3, 4),): (0, 1), ((1, 4, 3),): (1, 0),
        ((2, 3, 4),): (0, 1), ((2, 4, 3),): (1, 0),
        ((1, 2), (3, 4)): (1, 2), ((1, 3), (2, 4)): (0, 0), ((1, 4), (2, 3)): (2, 1),
        ((1, 2, 3, 4),): (1, 2), ((1, 2, 4, 3),): (0, 1), ((1, 3, 2, 4),): (1, 0),
        ((1, 3, 4, 2),): (0, 1), ((1, 4, 2, 3),): (1, 0), ((1, 4, 3, 2),): (2, 1),
    }
    expected_q = {
        (): (-1, -1, 1, 1), ((1, 2),): (-1, 0, 1), ((1, 3),): (-2, 1, 1),
        ((1, 4),): (-1, 0, 1), ((2, 3),): (-1, 0, 1), ((2, 4),): (-1, -1, 2),
        ((3, 4),): (-1, 0, 1),
        ((1, 2, 3),): (-1, 1), ((1, 3, 2),): (-1, 1), ((1, 2, 4),): (-1, 1),
        ((1, 4, 2),): (-1, 1), ((1, 3, 4),): (-1, 1), ((1, 4, 3),): (-1, 1),
        ((2, 3, 4),): (-1, 1), ((2, 4, 3),): (-1, 1),
        ((1, 2), (3, 4)): (0, 0), ((1, 3), (2, 4)): (-2, 2), ((1, 4), (2, 3)): (0, 0),
        ((1, 2, 3, 4),): (0,), ((1, 2, 4, 3),): (0,), ((1, 3, 2, 4),): (0,),
        ((1, 3, 4, 2),): (0,), ((1, 4, 2, 3),): (0,), ((1, 4, 3, 2),): (0,),
    }
    ok = True
    for cycles, powers in expected_r.items():
        rv = haar.compute_R(spec, symgroup.Permutation.from_cycles(4, *cycles))
        ok &= (rv.dA_power, rv.dB_power) == powers
    for cycles, multiples in expected_q.items():
        qv = haar.compute_Q(spec, symgroup.Permutation.from_cycles(4, *cycles))
        ok &= qv.iota_multiples == multiples
    yield "table2 all 48 entries", ok, "exact" if ok else "MISMATCH"


def _selfcheck_identities(full):
    rng = np.random.default_rng(0)
    avg1 = haar.haar_average_moment(1, 2, 3)
    dev = 0.0
    for _ in range(20):
        energies, t = rng.normal(size=6), rng.uniform(0, 5)
        got = avg1.rho_coefficients(energies, t)
        want = haar.rho_coefficients_closed_form(2, 3, energies, t)
        dev = max(
            dev,
            *(abs(g - w) / max(1, abs(w)) for g, w in zip(got, want)),
        )
    yield "density-matrix average identity (n=1)", dev <= 1e-12, f"max rel dev {dev:.2e}"

    avg2 = haar.haar_average_moment(2, 2, 2)
    dev = 0.0
    for _ in range(20):
        energies, t = rng.normal(size=4), rng.uniform(0, 5)
        want = haar.purity_closed_form(2, 2, energies, t)
        dev = max(dev, abs(avg2.evaluate(energies, t) - want) / max(1, abs(want)))
    yield "purity average identity (n=2)", dev <= 1e-12, f"max rel dev {dev:.2e}"

    if full:
        avg3 = haar.haar_average_moment(3, 2, 2)
        dev = 0.0
        for _ in range(20):
            energies, t = rng.normal(size=4), rng.uniform(0, 5)
            want = haar.third_moment_closed_form(2, 2, energies, t)
            dev = max(dev, abs(avg3.evaluate(energies, t) - want))
        yield "third-moment average identity (n=3)", dev <= 1e-9, f"max dev {dev:.2e}"


def _selfcheck_curves():
    ts = np.arange(0.0, 6.0001, 0.01)

    def chi4(t):
        x = t * t
        poly = 12 - 48 * x + 46 * x**2 - 64 / 3 * x**3 + 25 / 6 * x**4 - x**5 / 3
        return poly * np.exp(-x) + 4

    dev = float(np.max(np.abs(spectral.chi_curve("GUE", 4, ts) - chi4(ts))))
    yield "d=4 <chi> closed form", dev <= 1e-9, f"max dev {dev:.2e} over t in [0,6]"

    def xi4(t):
        x = t * t
        return (
            24
            + (144 - 576 * x + 552 * x**2 - 256 * x**3 + 50 * x**4 - 4 * x**5)
            * np.exp(-x)
            + (24 - 192 * x + 448 * x**2 - 1024 / 3 * x**3 + 256 / 3 * x**4)
            * np.exp(-2 * x)
            + (96 - 1152 * x + 3312 * x**2 - 3328 * x**3 + 1548 * x**4 - 216 * x**5)
            * np.exp(-3 * x)
            + (48 - 768 * x + 2944 * x**2 - 16384 / 3 * x**3 + 12800 / 3 * x**4
               - 4096 / 3 * x**5)
            * np.exp(-4 * x)
        )

    dev = float(np.max(np.abs(spectral.xi_curve("GUE", 4, ts) - xi4(ts))))
    yield "d=4 <xi> closed form", dev <= 1e-9, f"max dev {dev:.2e} over t in [0,6]"

    dev = 0.0
    for d in range(4, 13):
        chi0, chi10 = spectral.chi_curve("GUE", d, [0.0, 10.0])
        xi0, xi10 = spectral.xi_curve("GUE", d, [0.0, 10.0])
        dev = max(
            dev,
            abs(chi0 - d * d),
            abs(xi0 - d * d * (d - 1) * (d + 3)) / (d * d * (d - 1) * (d + 3)),
            abs(chi10 - d),
            abs(xi10 - 2 * d * (d - 1)),
        )
    yield "boundary values d=4..12", dev <= 1e-8, f"max dev {dev:.2e}"

    lim = spectral.purity_limit(2, 2)
    ok = abs(lim - 57 / 70) < 1e-14 and spectral.purity_mean(1, 5, 2.0) == 1.0
    yield "purity limits", ok, f"limit(2,2) = {lim!r}"

    ok = spectral.bessel_limit(0.0, 2) == 1.0 and spectral.bessel_limit(0.0, 4) == 1.0
    yield "scaling limit at tau=0", ok, "exact 1" if ok else "MISMATCH"


def run_selfcheck(full):
    groups = (
        _selfcheck_table1(),
        _selfcheck_table2(),
        _selfcheck_identities(full),
        _selfcheck_curves(),
    )
    n_checks = n_fail = 0
    for group in groups:
        # A check's time is the wall time its generator runs until it yields.
        start = time.perf_counter()
        for name, ok, detail in group:
            seconds = time.perf_counter() - start
            status = "PASS" if ok else "FAIL"
            print(f"{name}: {detail} [{status}] {seconds:.3f} s", flush=True)
            n_checks += 1
            n_fail += 0 if ok else 1
            start = time.perf_counter()
    print(f"selfcheck: {n_checks - n_fail}/{n_checks} passed")
    return 0 if n_fail == 0 else 4


# ---------------------------------------------------------------------------
# Argument plumbing.
# ---------------------------------------------------------------------------

# The defaults of every subcommand's options, keyed by long-flag name as in a
# manifest's "config"; an option not listed here defaults to None.  argparse
# itself leaves every option None when it is absent, so the command line, the
# config file and this table are applied in that order and in one place.
_DEFAULTS = {
    "analytic": {"power": 2, "t-max": 6.0, "dt": 0.01, "format": "csv"},
    "montecarlo": {
        "model": "GUE", "dA": 2, "dB": 2, "scramble": False, "t-max": 6.0,
        "dt": 0.01, "samples": 1000, "seed": 0, "threads": 1, "format": "csv",
    },
    "gaps": {
        "model": "GUE", "dA": 8, "dB": 8, "bins": 50, "samples": 1000, "seed": 0,
        "format": "csv",
    },
    "distance": {
        "models": list(models.SPIN_FAMILIES), "dA": 8, "dB": 32, "dt": 0.01,
        "samples": 1000, "seed": 0, "threads": 1, "format": "csv",
    },
}

# every name of models.COUPLINGS, in the --help order and the key order of a
# manifest's config
_COUPLING_FLAGS = ("J", "B", "J1", "J2", "J3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guedyn",
        description="Ensemble-averaged entanglement dynamics of random Hamiltonians",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(p, *flags, **kwargs):
        for flag in flags:
            p.add_argument(f"--{flag}", dest=flag, **kwargs)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file of long-flag values, or a manifest")
        add(p, "out")
        add(p, "format", choices=("csv", "json"))
        return p

    def sampling(p):
        add(p, "samples", "seed", type=int)
        add(p, *_COUPLING_FLAGS, type=float)

    p = command("analytic", "closed-form curves")
    p.add_argument("kind", choices=ANALYTIC_KINDS)
    add(p, "d", "dA", "dB", type=int, action="append")
    add(p, "power", type=int, choices=(2, 4))
    add(p, "t-max", "dt", type=float)

    p = command("montecarlo", "sampled ensemble dynamics")
    add(p, "model", choices=models.FAMILIES)
    add(p, "dA", "dB", type=int)
    add(p, "scramble", action="store_true", default=None,
        help="conjugate each sample by a Haar unitary")
    add(p, "t-max", "dt", type=float)
    sampling(p)
    add(p, "threads", type=int)

    p = command("gaps", "level-spacing statistics")
    add(p, "model", choices=models.FAMILIES)
    add(p, "dA", "dB", "bins", type=int)
    sampling(p)

    p = command("distance", "dynamics distance to the baselines")
    add(p, "models", nargs="+")
    add(p, "dA", "dB", type=int)
    add(p, "dt", type=float)
    sampling(p)
    add(p, "threads", type=int)

    p = sub.add_parser("selfcheck", help="run the exact identity suite")
    p.add_argument("--full", action="store_true",
                   help="include the (2n)! = 720 double-enumeration identity")
    return parser


_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _file_value(action, value):
    """A config-file value with the checks argparse gives a command-line one:
    the option's type (an integer for an int option, a number for a float
    one, true or false for a switch, else a string; a non-empty list of them
    for a repeatable option) and its choices."""
    if value is None:
        return None
    flag = f"--{action.dest}"
    kind = action.type or (bool if action.nargs == 0 else str)
    if action.nargs == "+" or isinstance(action, argparse._AppendAction):
        if not isinstance(value, list) or not value:
            raise ValueError(f"config value of {flag} must be a non-empty list, got {value!r}")
        return [_file_item(flag, kind, action.choices, item) for item in value]
    return _file_item(flag, kind, action.choices, value)


def _file_item(flag, kind, choices, value):
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise ValueError(f"config value of {flag} must be {_KIND_NAMES[kind]}, got {value!r}")
    value = kind(value)
    if choices is not None and value not in choices:
        raise ValueError(f"config value of {flag} must be one of {list(choices)}, got {value!r}")
    return value


def _resolve_config(parser, args) -> dict:
    """Each option's value, keyed by long-flag name: the command line, else
    the config file, else ``_DEFAULTS``.  File values are checked as
    :func:`_file_value` describes."""
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        # accept a manifest directly
        file_cfg = loaded.get("config", loaded) if isinstance(loaded, dict) else None
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in subparsers.choices[args.command]._actions}
    defaults = _DEFAULTS[args.command]
    config = {}
    for flag, value in vars(args).items():
        if flag in ("command", "config"):
            continue
        if value is None:
            value = (_file_value(actions[flag], file_cfg[flag]) if flag in file_cfg
                     else defaults.get(flag))
        config[flag] = value
    if config["out"] is None:
        kind = config.get("kind") or config.get("model")
        suffix = f"_{kind.lower()}" if kind else ""
        config["out"] = f"guedyn_{args.command}{suffix}.{config['format']}"
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selfcheck":
            return run_selfcheck(args.full)
        config = _resolve_config(parser, args)
        runner = {
            "analytic": run_analytic,
            "montecarlo": run_montecarlo,
            "gaps": run_gaps,
            "distance": run_distance,
        }[args.command]
        t0 = time.time()
        table, summary = runner(config)
        manifest = {
            "tool": "guedyn",
            "version": __version__,
            "command": args.command,
            "config": config,
            "environment": _environment(config),
            "wall_clock_s": time.time() - t0,
            "columns": [col for col, _ in table],
        }
        if summary:
            manifest["summary"] = summary
        _write_output(config["out"], config["format"], table, manifest)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {config['out']} ({len(table[0][1])} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
