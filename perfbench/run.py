"""Benchmark of the bernapprox CLI on three fixed workloads (see workloads.py).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bern-cusp-run --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40    # all workloads as a table
    python3 -m pytest -q perfbench                          # the benchmark's own tests

Load model: a closed loop with one client in one process. One unit, a
`bernapprox run` study or a `bernapprox bound` table, runs at a time, each in
a fresh interpreter (unit.py) as a user's CLI call does, so cold costs count.
Units start back to back until the next one would end past --seconds; there
are at least two, all with --seed as run.seed, so that every report of a run
must match the first byte for byte. BLAS and OpenMP threads are capped at
the number of usable cores.

--trace 0 reports the end-to-end metrics, medians over the run:
  setup_s          interpreter start + `import bernapprox.cli` + config
                   resolution, over every unit and set-up-only processes, five or more
  study_s          one unit after setup, report writing and validity check included
  peak_rss_mb      peak resident memory of a unit's process
  bound_gap        geometric mean over the rows of a unit of
                   upper_bracket / empirical delta; a looser certified bound raises it
  upper_slope_err  |slope of log upper_bracket on log n + alpha/2|; the
                   certified bracket should decay like n^(-alpha/2)
The share of failed units is `failed / attempted` in the result line.

setup_s and study_s are in seconds at the speed this machine has when idle.
On a shared host a core's speed drifts by up to 1.8x for minutes, which no
median over one run removes. So before the first unit and after every unit
(and after the set-up-only processes, as one stretch) a fresh interpreter
runs the fixed work in reference.py, for a fifth of the stretch's wall time,
and a stretch's times are scaled by REFERENCE_S / the mean block time of the
references just before and just after it, which see the same drift. The raw
medians and the speed factors are in the detail line.

--trace 1 alternates untraced CLI units with traced units that rebuild the
same unit from the layers' public functions, with a span around each layer
call, and reports per-layer self times (span minus its child spans) and
counts. The traced reports must equal the untraced ones byte for byte.
Which end-to-end metric each per-layer metric should move:
  tails.curve_s, tails.z_max_s, bounds.stieltjes_s  study_s on bern-* (about 0 on poisson-*)
  tails.q_evals       u points the bounds layer passes to TailCurve.at;
                      study_s on bern-square-bound and bern-cusp-run
  bounds.hdt_s        study_s on bern-square-bound only
  bounds.slack_share  (upper_bracket - upper_stieltjes) / upper_bracket at the
                      largest n; bound_gap and upper_slope_err on poisson-szasz-run
  bounds.import_s     cumulative `-X importtime` of bernapprox.bounds (with
                      scipy.integrate) as the CLI imports it; setup_s everywhere
  operators.sup_error_s, operators.sup_error_s.max_n, operators.x_evals_per_s
                           study_s on poisson-szasz-run
  operators.trial_s        study_s on bern-cusp-run
  modulus.profile_s        small everywhere; guards the per-delta slack change
  experiments.report_io_s, experiments.report_bytes  study_s everywhere
  config.resolve_s, cli.import_s  setup_s
  trace.overhead_frac      traced study_s minus untraced, over untraced
  warnings.<Category>      warnings the layer calls raised (else only on stderr)
  share.<layer>            the layer's share of the traced unit's self time

The last stdout line is the result object; the line before it holds every
metric's value and samples (median, quartiles, count), the problems found and the run
context (cores, versions, thread cap, seed, load average at start and end).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
from reference import REFERENCE_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_UNITS = 2
SETUP_SAMPLES = 5  # untraced units, topped up with set-up-only processes
IMPORT_SAMPLES = 3
REF_SHARE = 0.2  # reference work per second of measured process
REF_MIN_S = 0.7
RUN_LIMIT_S = 165.0  # a run must end within 180 s
LAYERS = ("tails", "bounds", "operators", "modulus", "experiments")
WARNING_CATEGORIES = ("BoundaryWarning", "GridResolutionWarning", "DivergenceWarning")

END_TO_END = {
    "setup_s": "s",
    "study_s": "s",
    "peak_rss_mb": "MB",
    "bound_gap": "ratio",
    "upper_slope_err": "1",
}
PER_LAYER = {
    "tails.curve_s": "s",
    "tails.z_max_s": "s",
    "tails.q_evals": "count",
    "bounds.stieltjes_s": "s",
    "bounds.hdt_s": "s",
    "bounds.slack_share": "ratio",
    "bounds.import_s": "s",
    "operators.sup_error_s": "s",
    "operators.sup_error_s.max_n": "s",
    "operators.x_evals_per_s": "1/s",
    "operators.trial_s": "s",
    "modulus.profile_s": "s",
    "experiments.report_io_s": "s",
    "experiments.report_bytes": "bytes",
    "config.resolve_s": "s",
    "cli.import_s": "s",
    "trace.overhead_frac": "ratio",
    **{f"warnings.{c}": "count" for c in WARNING_CATEGORIES},
    **{f"share.{layer}": "ratio" for layer in LAYERS},
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_average():
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def summary(values: list[float]) -> dict:
    """The samples' median, reported as the value, with their quartiles."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Run:
    """One --seconds measurement of one workload."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.smoke = smoke
        self.start = time.monotonic()
        self.work = ROOT / ".perfbench_out" / f"{workload}-{os.getpid()}"
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # An installed package has its byte code; let the warm-up unit write it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.nproc)
        self.references: dict[int, dict[str, bytes]] = {}

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def spawn(self, mode: str, seed: int, out: Path) -> dict:
        """Start unit.py, wait for it, and return its JSON result."""
        spec = {"mode": mode, "workload": self.name, "seed": seed, "out": str(out),
                "smoke": self.smoke, "t0": time.monotonic()}
        proc = subprocess.run(
            [sys.executable, str(HERE / "unit.py"), json.dumps(spec)],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=max(self.remaining(), 1.0),
        )
        if proc.returncode != 0:
            raise BenchError(f"{mode} unit exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(res["module"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"bernapprox was imported from {res['module']}, not from this checkout")
        res["mode"] = mode
        return res

    def unit(self, mode: str, index: int, seed: int) -> dict:
        """Run one unit and check its reports; problems make it a failure."""
        out = self.work / f"unit{index}"
        t0 = time.monotonic()
        try:
            res = self.spawn(mode, seed, out)
        except subprocess.TimeoutExpired:
            return {"mode": mode, "problems": [f"{self.name}: unit {index} timed out"], "timed_out": True}
        except BenchError as exc:
            return {"mode": mode, "problems": [f"{self.name}: {exc}"], "wall_s": time.monotonic() - t0}
        res["wall_s"] = time.monotonic() - t0
        problems = []
        if res["exit_code"] != 0:
            problems.append(f"unit {index} ({mode}) exited with code {res['exit_code']}")
        try:
            payload = checks.load_report(self.wl, out)
            problems += checks.check_report(self.wl, payload)
            got = checks.read_canonical(self.wl, out)
            problems += checks.compare_reports(self.references.setdefault(seed, got), got)
            res["bound_gap"] = checks.bound_gap(self.wl, payload)
            res["upper_slope_err"] = checks.upper_slope_err(self.wl, payload)
        except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
            problems.append(f"unit {index}: unreadable report ({type(exc).__name__}: {exc})")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        res["problems"] = [f"{self.name}: {p}" for p in problems]
        return res

    def reference_block(self, measured_s: float) -> float:
        """reference.py's time per block, run now in a fresh interpreter."""
        seconds = max(REF_MIN_S, REF_SHARE * measured_s)
        proc = subprocess.run(
            [sys.executable, str(HERE / "reference.py"), str(seconds)],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=max(self.remaining(), 1.0),
        )
        if proc.returncode != 0:
            raise BenchError(f"reference work exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])["block_s"]

    def import_time(self) -> float:
        """Cumulative -X importtime of bernapprox.bounds as `import bernapprox.cli` loads it."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bernapprox.cli"],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=max(self.remaining(), 1.0),
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "bernapprox.bounds":
                return int(parts[1]) / 1e6
        raise BenchError(f"no import time for bernapprox.bounds: {proc.stderr.strip()[-2000:]}")

    def measure(self, seconds: float, trace: bool) -> dict:
        load_start = load_average()
        try:
            # Byte-compiles the sources and fills the file cache, as an
            # installed package has them; not measured.
            t0 = time.monotonic()
            self.spawn("setup", self.seed, self.work)
            setup_wall = time.monotonic() - t0
            imports = [self.import_time() for _ in range(IMPORT_SAMPLES)] if trace else []
            units, cycles = [], []
            blocks = [] if trace else [self.reference_block(0.0)]
            while True:
                t0 = time.monotonic()
                index = len(units)
                mode = "traced" if trace and index % 2 else "cli"
                units.append(self.unit(mode, index, self.seed))
                if not trace and not units[-1].get("timed_out"):
                    blocks.append(self.reference_block(units[-1]["wall_s"]))
                    units[-1]["speed"] = 2.0 * REFERENCE_S / (blocks[-2] + blocks[-1])
                cycles.append(time.monotonic() - t0)
                elapsed = time.monotonic() - self.start
                typical = statistics.median(cycles)
                # time kept for the set-up-only processes that top up setup_s
                reserve = 0 if trace else max(SETUP_SAMPLES - len(units) - 1, 0) * setup_wall
                if units[-1].get("timed_out") or (
                    len(units) >= MIN_UNITS and elapsed + typical + reserve > seconds
                ):
                    break
            setups = [] if trace else [(u["setup_s"], u["speed"]) for u in units if not u["problems"]]
            t0 = time.monotonic()
            extra = [self.spawn("setup", self.seed, self.work)["setup_s"]
                     for _ in range(SETUP_SAMPLES - len(setups))] if setups else []
            if extra:
                blocks.append(self.reference_block(time.monotonic() - t0))
                setups += [(s, 2.0 * REFERENCE_S / (blocks[-2] + blocks[-1])) for s in extra]
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            with contextlib.suppress(OSError):  # left when another run still uses it
                self.work.parent.rmdir()

        ok = [u for u in units if not u["problems"]]
        problems = [p for u in units for p in u["problems"]]
        needed = {"cli", "traced"} if trace else {"cli"}
        if needed - {u["mode"] for u in ok}:
            raise BenchError("no unit of each kind succeeded: " + "; ".join(problems[:4]))
        samples = self.traced_samples(ok, imports) if trace else self.samples(ok, setups)
        return {
            "workload": self.name,
            "trace": int(trace),
            "attempted": len(units),
            "failed": len(units) - len(ok),
            "fail_frac": (len(units) - len(ok)) / len(units),
            "samples": samples,
            "problems": problems,
            "context": {
                "nproc": self.nproc,
                "python": platform.python_version(),
                "numpy": metadata.version("numpy"),
                "scipy": metadata.version("scipy"),
                "blas_threads": self.nproc,
                "seed": self.seed,
                "loadavg_start": load_start,
                "loadavg_end": load_average(),
            },
        }

    def samples(self, ok: list[dict], setups: list[tuple[float, float]]) -> dict:
        """Medians; setups holds (raw set-up time, speed factor) pairs."""
        out = {
            "setup_s": summary([s * speed for s, speed in setups]),
            "study_s": summary([u["study_s"] * u["speed"] for u in ok]),
        }
        for key in ("peak_rss_mb", "bound_gap", "upper_slope_err"):
            out[key] = summary([u[key] for u in ok])
        out["raw_setup_s"] = summary([s for s, _ in setups])
        out["raw_study_s"] = summary([u["study_s"] for u in ok])
        out["speed"] = summary([u["speed"] for u in ok])
        return out

    def traced_samples(self, ok: list[dict], imports: list[float]) -> dict:
        cli = [u for u in ok if u["mode"] == "cli"]
        traced = [u for u in ok if u["mode"] == "traced"]
        per_unit = [self.layer_metrics(u) for u in traced]
        out = {key: summary([m[key] for m in per_unit]) for key in per_unit[0]}
        out["bounds.import_s"] = summary(imports)
        out["config.resolve_s"] = summary([u["config.resolve_s"] for u in ok])
        out["cli.import_s"] = summary([u["cli.import_s"] for u in ok])
        untraced = statistics.median(u["study_s"] for u in cli)
        out["trace.overhead_frac"] = summary([u["study_s"] / untraced - 1.0 for u in traced])
        return out

    @staticmethod
    def layer_metrics(u: dict) -> dict:
        self_s: dict[str, float] = {}
        for name, seconds in u["spans"]:
            self_s[name] = self_s.get(name, 0.0) + seconds
        total = sum(self_s.values())
        sup = self_s["operators.sup_error"]
        m = {
            "tails.curve_s": self_s["tails.curve"],
            "tails.z_max_s": self_s["tails.z_max"],
            "tails.q_evals": u["q_evals"],
            "bounds.stieltjes_s": self_s["bounds.stieltjes"],
            "bounds.hdt_s": self_s.get("bounds.hdt", 0.0),
            "bounds.slack_share": u["slack_share"],
            "operators.sup_error_s": sup,
            "operators.sup_error_s.max_n": [s for name, s in u["spans"] if name == "operators.sup_error"][-1],
            "operators.x_evals_per_s": u["x_evals"] / sup,
            "operators.trial_s": self_s.get("operators.trial", 0.0),
            "modulus.profile_s": self_s["modulus.profile"],
            "experiments.report_io_s": self_s["experiments.report_io"],
            "experiments.report_bytes": u["report_bytes"],
        }
        for cat in WARNING_CATEGORIES:
            m[f"warnings.{cat}"] = u["warnings"].get(cat, 0)
        for layer in LAYERS:
            m[f"share.{layer}"] = sum(s for name, s in self_s.items() if name.split(".")[0] == layer) / total
        return m


def result_line(report: dict) -> dict:
    units = PER_LAYER if report["trace"] else END_TO_END
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": report["samples"][k]["value"], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, for the benchmark's tests")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the running unit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "bernapprox" / "cli.py").is_file():
        print(f"perfbench: no bernapprox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [Run(n, args.seed, args.smoke).measure(args.seconds, bool(args.trace)) for n in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for p in (p for r in reports for p in r["problems"]):
        print(f"perfbench: FAILED CHECK: {p}", file=sys.stderr)

    if args.workload != "all":
        print(json.dumps(reports[0]))
        print(json.dumps(result_line(reports[0])))
        return 0
    units = PER_LAYER if args.trace else END_TO_END
    print(f"{'workload':18} {'metric':28} {'value':>12} {'unit':6} {'n':>3} {'q1':>12} {'q3':>12}")
    for r in reports:
        for k in units:
            s = r["samples"][k]
            print(f"{r['workload']:18} {k:28} {s['value']:12.6g} {units[k]:6} {s['n']:3d} "
                  f"{s['q1']:12.6g} {s['q3']:12.6g}")
        print(f"{r['workload']:18} {'fail_frac':28} {r['fail_frac']:12.6g} {'1':6} {r['attempted']:3d}")
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {f"{r['workload']}.{k}": {"value": r["samples"][k]["value"], "unit": units[k]}
                    for r in reports for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
