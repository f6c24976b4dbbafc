"""The four workloads: warm-up, the timed job, and the untimed checks.

Each workload is one closed-loop client: the next call into the package is
made after the previous one returns.  All of them use the CLI default time
grid, t in [0, 6] with dt = 0.01 (601 points).  The seed chooses Monte Carlo
draws and oracle check points; it never changes the amount of work.

A check compares an output with an oracle that shares no code with the path
under test.  Every comparison is written as ``not (err <= tol)`` so that NaN
and inf fail.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time

import numpy as np

from . import oracles

T_MAX = 6.0
DT = 0.01
# Relative deviation allowed against the high-precision oracle (absolute
# below 1); the package is expected near 1e-12.
REL_TOL = 1e-9
# Family-wise false-alarm rate of the z-checks in one pass.
Z_ALPHA = 1e-4


def time_grid(t_max: float = T_MAX) -> np.ndarray:
    return np.arange(0.0, t_max + 0.5 * DT, DT)


class Checks:
    """Collects check outcomes; NaN and inf always fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        # None where the workload makes no check of that kind.
        self.err_max: float | None = None
        self.z_max: float | None = None
        self.failures: list[str] = []

    def _record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(name)

    def close(self, name: str, got, want, tol: float = REL_TOL) -> None:
        """Relative deviation where |want| > 1, absolute otherwise."""
        err = abs(got - want) / max(1.0, abs(want))
        if not (err <= tol):
            err = math.inf
        self.err_max = max(self.err_max or 0.0, err)
        self._record(f"{name}: got {got!r}, want {want!r}", err <= tol)

    def z(self, name: str, mean, stderr, want, z_tol: float) -> None:
        z = abs(mean - want) / stderr if stderr > 0 else math.inf
        if not (z <= z_tol):
            z = math.inf
        self.z_max = max(self.z_max or 0.0, z)
        self._record(f"{name}: mean {mean!r} stderr {stderr!r} want {want!r}", z <= z_tol)

    def true(self, name: str, ok: bool) -> None:
        self._record(name, bool(ok))


def z_tolerance(n_checks: int, n_samples: int) -> float:
    """|z| bound at family-wise false-alarm rate Z_ALPHA (Student t, Bonferroni)."""
    from scipy.stats import t as student_t

    return float(student_t.isf(Z_ALPHA / (2 * max(1, n_checks)), max(1, n_samples - 1)))


def check_points(seed: int, n_grid: int, k: int, salt: int) -> list[int]:
    """k distinct grid indices in [1, n_grid), chosen by the seed."""
    rng = np.random.default_rng([seed, salt])
    return sorted(int(i) for i in rng.choice(np.arange(1, n_grid), size=k, replace=False))


def read_csv(path: str) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {
        name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)
    }


def _cli(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    name = ""

    def __init__(self, size: str, seed: int, out_dir: str, nproc: int):
        self.tiny = size == "tiny"
        self.seed = seed
        self.out_dir = out_dir
        self.nproc = nproc
        self.times = time_grid(0.5 if self.tiny else T_MAX)

    def path(self, stem: str) -> str:
        return os.path.join(self.out_dir, stem)

    def warmup(self, guedyn) -> None:
        raise NotImplementedError

    def run(self, guedyn) -> dict:
        """The timed job; returns its outputs as arrays."""
        raise NotImplementedError

    def load(self, out: dict) -> dict:
        """Read the CSV file of every CLI command that succeeded (untimed)."""
        for name, code in out.get("codes", {}).items():
            if code == 0:
                out[name] = read_csv(self.path(f"{name}.csv"))
        return out

    def check(self, out: dict, checks: Checks) -> None:
        raise NotImplementedError

    def n_checks(self) -> int:
        """Checks one pass attempts; a pass that raises fails all of them."""
        raise NotImplementedError

    def samples(self) -> int:
        """Work items the job delivers; see README for each workload."""
        raise NotImplementedError


class Curves(Workload):
    """``guedyn analytic`` through ``cli.main``: the F table and correlators."""

    name = "curves"

    def jobs(self):
        if self.tiny:
            return [
                ("chi", ["--d", "8"]), ("xi", ["--d", "6"]),
                ("purity", ["--dA", "2", "--dB", "3"]), ("rho", ["--dA", "2", "--dB", "2"]),
                ("chi-poisson", ["--d", "6"]), ("xi-poisson", ["--d", "6"]),
            ]
        return [
            ("chi", ["--d", "150"]), ("xi", ["--d", "60"]),
            ("purity", ["--dA", "2", "--dB", "3"]), ("rho", ["--dA", "2", "--dB", "2"]),
            ("chi-poisson", ["--d", "60"]), ("xi-poisson", ["--d", "60"]),
        ]

    def _invoke(self, cli, t_max: float) -> dict:
        codes = {}
        for kind, dims in self.jobs():
            argv = ["analytic", kind, *dims, "--t-max", repr(t_max), "--dt", repr(DT),
                    "--out", self.path(f"{kind}.csv")]
            codes[kind] = _cli(cli, argv)
        return codes

    def warmup(self, guedyn) -> None:
        self._invoke(guedyn.cli, DT)  # the first nonzero point of each curve

    def run(self, guedyn) -> dict:
        codes = self._invoke(guedyn.cli, float(self.times[-1]))
        return {"codes": codes}

    def samples(self) -> int:
        # curve values written: chi, xi, purity, chi-poisson, xi-poisson, rho p1/pmix
        return self.times.size * 7

    def check(self, out: dict, checks: Checks) -> None:
        n = self.times.size
        k_big = 2 if self.tiny else 4
        dims = dict(self.jobs())
        for kind, _ in self.jobs():
            checks.true(f"{kind}: exit code {out['codes'][kind]}", out["codes"][kind] == 0)

        def points(salt, k):
            return check_points(self.seed, n, k, salt)

        if "chi" in out:
            d = int(dims["chi"][1])
            col = out["chi"][f"chi_d{d}"]
            for i in points(1, k_big):
                checks.close(f"chi d={d} t={self.times[i]}", col[i], oracles.chi_gue(d, self.times[i]))
        if "xi" in out:
            d = int(dims["xi"][1])
            col = out["xi"][f"xi_d{d}"]
            for i in points(2, k_big):
                checks.close(f"xi d={d} t={self.times[i]}", col[i], oracles.xi_gue(d, self.times[i]))
        if "purity" in out:
            d_a, d_b = 2, 3
            col = out["purity"][f"purity_dA{d_a}_dB{d_b}"]
            for i in points(3, 20):
                t = self.times[i]
                want = oracles.purity(d_a, d_b, oracles.xi_gue(d_a * d_b, t))
                checks.close(f"purity 2x3 t={t}", col[i], want)
        if "rho" in out:
            p1, pmix = out["rho"]["rho_p1_dA2_dB2"], out["rho"]["rho_pmix_dA2_dB2"]
            for i, t in enumerate(self.times):
                w1, wmix = oracles.rho_coeffs(2, 2, oracles.chi4(t))
                checks.close(f"rho p1 2x2 t={t}", p1[i], w1)
                checks.close(f"rho pmix 2x2 t={t}", pmix[i], wmix)
        for kind, fn in (("chi-poisson", oracles.chi_poisson), ("xi-poisson", oracles.xi_poisson)):
            if kind in out:
                d = int(dims[kind][1])
                col = out[kind][f"{kind.replace('-', '_')}_d{d}"]
                for i in points(4, 20):
                    checks.close(f"{kind} d={d} t={self.times[i]}", col[i], fn(d, self.times[i]))

    def n_checks(self) -> int:
        k_big = 2 if self.tiny else 4
        return 6 + 2 * k_big + 20 + 2 * self.times.size + 40


class Minima(Workload):
    """First minimum of <chi> (the paper's analysis), then ``selfcheck --full``."""

    name = "minima"

    def dims(self) -> list[int]:
        return [4, 5, 6] if self.tiny else [*range(4, 21), 60]

    @staticmethod
    def window(d: int) -> float:
        return 1.0 if d == 60 else max(1.0, 4.5 / math.sqrt(d))

    def warmup(self, guedyn) -> None:
        for d in self.dims():
            guedyn.spectral.chi_mean(d, DT)

    def run(self, guedyn) -> dict:
        spectral = guedyn.spectral
        out = {}
        for d in self.dims():
            ext = spectral.find_extrema(lambda t, d=d: spectral.chi_mean(d, t), self.window(d))
            out[f"d{d}"] = np.array(ext[0] if ext else (math.nan, math.nan))
        argv = ["selfcheck"] if self.tiny else ["selfcheck", "--full"]
        out["selfcheck"] = _cli(guedyn.cli, argv)
        return out

    def samples(self) -> int:
        return len(self.dims())  # first minima located

    def check(self, out: dict, checks: Checks) -> None:
        # Local-minimum test at the dense-scan resolution of find_extrema.
        delta = 1e-3
        for d in self.dims():
            t, value = (float(v) for v in out[f"d{d}"])
            if not (math.isfinite(t) and 0.0 < t - delta):
                checks.true(f"d={d}: no interior extremum (t={t})", False)
                checks.true(f"d={d}: no minimum value ({value})", False)
                continue
            f_lo, f_mid, f_hi = (oracles.chi_gue(d, s) for s in (t - delta, t, t + delta))
            checks.true(f"d={d}: t={t} is a local minimum", f_mid <= f_lo and f_mid <= f_hi)
            checks.close(f"d={d} minimum value at t={t}", value, f_mid)
        checks.true(f"selfcheck exit code {out['selfcheck']}", out["selfcheck"] == 0)

    def n_checks(self) -> int:
        return 2 * len(self.dims()) + 1


class _MonteCarlo(Workload):
    def z_checks(self, checks, label, times, idx, rho_mean, rho_err, pur_mean, pur_err,
                 want_rho, want_pur, n_samples, z_tol):
        for i in idx:
            for a in range(rho_mean.shape[1]):
                checks.z(f"{label} rho{a + 1}{a + 1} t={times[i]}", rho_mean[i, a],
                         rho_err[i, a], want_rho(times[i])[a], z_tol)
            checks.z(f"{label} purity t={times[i]}", pur_mean[i], pur_err[i],
                     want_pur(times[i]), z_tol)


class McD4(_MonteCarlo):
    """``guedyn montecarlo`` GUE and POISSON at 2 x 2: per-sample overhead."""

    name = "mc-d4"
    models = ("GUE", "POISSON")

    def n_samples(self) -> int:
        return 40 if self.tiny else 2500

    def _invoke(self, cli, model, samples, t_max, stem) -> int:
        argv = ["montecarlo", "--model", model, "--dA", "2", "--dB", "2",
                "--samples", str(samples), "--seed", str(self.seed), "--threads", "1",
                "--t-max", repr(t_max), "--dt", repr(DT), "--out", self.path(stem)]
        return _cli(cli, argv)

    def warmup(self, guedyn) -> None:
        for model in self.models:
            self._invoke(guedyn.cli, model, 1, float(self.times[-1]), f"warm-{model}.csv")

    def run(self, guedyn) -> dict:
        t_max = float(self.times[-1])
        return {
            "codes": {m: self._invoke(guedyn.cli, m, self.n_samples(), t_max, f"{m}.csv")
                      for m in self.models}
        }

    def samples(self) -> int:
        return self.n_samples() * len(self.models)

    def k_points(self) -> int:
        return 10 if self.tiny else 40

    def check(self, out: dict, checks: Checks) -> None:
        n = self.n_samples()
        k = self.k_points()
        z_tol = z_tolerance(len(self.models) * k * 3, n)
        refs = {
            "GUE": (oracles.chi4, oracles.xi4),
            "POISSON": (lambda t: oracles.chi_poisson(4, t), lambda t: oracles.xi_poisson(4, t)),
        }
        for salt, m in enumerate(self.models):
            checks.true(f"{m}: exit code {out['codes'][m]}", out["codes"][m] == 0)
            if m not in out:
                continue
            cols = out[m]
            rho = np.stack([cols["rho11_mean"], cols["rho22_mean"]], axis=1)
            err = np.stack([cols["rho11_stderr"], cols["rho22_stderr"]], axis=1)
            chi, xi = refs[m]

            def want_rho(t, chi=chi):
                p1, pmix = oracles.rho_coeffs(2, 2, chi(t))
                return (p1 + pmix / 2, pmix / 2)

            self.z_checks(checks, m, self.times, check_points(self.seed, self.times.size, k, 10 + salt),
                          rho, err, cols["purity_mean"], cols["purity_stderr"],
                          want_rho, lambda t, xi=xi: oracles.purity(2, 2, xi(t)), n, z_tol)

    def n_checks(self) -> int:
        return len(self.models) * (1 + 3 * self.k_points())


class McD256(_MonteCarlo):
    """``models.ensemble_dynamics`` at 8 x 32, at threads=1 and threads=nproc."""

    name = "mc-d256"
    families = ("GUE", "POISSON", "SYK", "XXZ", "CS")

    def dims(self) -> tuple[int, int]:
        return (2, 4) if self.tiny else (8, 32)

    def n_samples(self) -> int:
        return 4 if self.tiny else 10

    def thread_counts(self) -> list[int]:
        return sorted({1, self.nproc})

    def _spec(self, guedyn, fam):
        return guedyn.models.ModelSpec(fam, *self.dims())

    def warmup(self, guedyn) -> None:
        for fam in self.families:
            guedyn.models.ensemble_dynamics(
                self._spec(guedyn, fam), self.times, 1, guedyn.sim.RngStream(self.seed))

    def run(self, guedyn) -> dict:
        models, n = guedyn.models, self.n_samples()
        out = {"wall_by_threads": {threads: 0.0 for threads in self.thread_counts()}}
        for idx, fam in enumerate(self.families):
            for threads in self.thread_counts():
                start = time.perf_counter()
                res = models.ensemble_dynamics(
                    self._spec(guedyn, fam), self.times, n,
                    guedyn.sim.RngStream(self.seed), threads=threads, stream_offset=idx * n)
                out["wall_by_threads"][threads] += time.perf_counter() - start
                out[f"{fam}/{threads}"] = {
                    "rho_mean": res.rho_mean, "rho_stderr": res.rho_stderr,
                    "purity_mean": res.purity_mean, "purity_stderr": res.purity_stderr,
                }
        return out

    def samples(self) -> int:
        return self.n_samples() * len(self.families)

    def k_points(self) -> int:
        return 4

    def check(self, out: dict, checks: Checks) -> None:
        from guedyn import spectral  # analytic curves; not on the Monte Carlo path

        d_a, d_b = self.dims()
        n, k = self.n_samples(), self.k_points()
        z_tol = z_tolerance(2 * k * (d_a + 1), n)
        refs = {
            "GUE": (spectral.rho_mean_coeffs, spectral.purity_mean),
            "POISSON": (spectral.rho_poisson_coeffs, spectral.purity_poisson),
        }
        for salt, fam in enumerate(self.families):
            one, many = out[f"{fam}/1"], out[f"{fam}/{self.nproc}"]
            same = all(np.array_equal(one[key], many[key]) for key in one)
            checks.true(f"{fam}: threads=1 and threads={self.nproc} differ", same)
            rho, pur = many["rho_mean"], many["purity_mean"]
            trace = np.trace(rho, axis1=1, axis2=2)
            trace_err = float(np.max(np.abs(trace - 1.0)))
            checks.true(f"{fam}: max |Tr rho_A - 1| = {trace_err}", trace_err <= 1e-10)
            low, high = float(np.min(pur)), float(np.max(pur))
            checks.true(f"{fam}: purity range [{low}, {high}]",
                        1.0 / d_a - 1e-12 <= low and high <= 1.0 + 1e-12)
            if fam not in refs:
                continue
            coeffs, purity = refs[fam]

            def want_rho(t, coeffs=coeffs):
                p1, pmix = coeffs(d_a, d_b, t)
                return (p1 + pmix / d_a,) + (pmix / d_a,) * (d_a - 1)

            diag = np.real(np.diagonal(rho, axis1=1, axis2=2))
            diag_err = np.diagonal(many["rho_stderr"], axis1=1, axis2=2)
            self.z_checks(checks, fam, self.times,
                          check_points(self.seed, self.times.size, k, 20 + salt),
                          diag, diag_err, pur, many["purity_stderr"], want_rho,
                          lambda t, purity=purity: purity(d_a, d_b, t), n, z_tol)

    def n_checks(self) -> int:
        d_a, _ = self.dims()
        return 3 * len(self.families) + 2 * self.k_points() * (d_a + 1)


WORKLOADS = {w.name: w for w in (Curves, Minima, McD4, McD256)}
