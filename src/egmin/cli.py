"""Command-line front end.

Three subcommands: ``solve`` builds one tomography instance and runs the
requested methods from a shared random starting point, writing one trace
CSV and one reconstruction PGM per method plus a cross-method relative
objective comparison and a JSON summary, which holds each method's
reconstruction error against the phantom; ``verify`` runs the oracle
battery and exits nonzero on any failure; ``phantom`` writes the
synthetic test image.  Options resolve in the order defaults < config
file < flags: the config file's values become the defaults of the
``solve`` options of the same name, so click reads each one with its
flag's own converter.  The fully resolved run configuration is echoed
into the summary, with the :func:`environment` whose arithmetic made
the traces.  Each method takes its default step policy from
:func:`egmin.solvers.solve`.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import click
import numpy as np
import scipy

from . import __version__
from .imgio import write_image_csv, write_pgm
from .problems import build_instance, check_regularization, make_objective, make_phantom
from .projector import check_geometry
from .solvers import (
    Method,
    RunTrace,
    SolverConfig,
    TerminalStatus,
    default_x0,
    solve,
)
from .verification import run_battery

RELATIVE_VALUE_DEFINITION = "(f_k - f_best) / (f_0 - f_best)"


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved parameters of one ``solve`` run.

    ``config`` is the :class:`SolverConfig` of every method, but for its
    ``method``, with no step policy, so that :func:`solve` gives each
    method its default.  It is built when the spec is made, and the
    instance parameters are checked then too, so that a bad value fails
    before any work.
    """

    n_side: int = 64
    undersampling: float = 0.2
    lam: float = 0.01
    delta: float = 0.01
    noisy: bool = False
    seed: int = 0
    methods: tuple[str, ...] = ("eg", "poicg", "ipgrgd", "ipemd")
    max_iterations: int = SolverConfig.max_iterations
    grad_norm_tol: float = SolverConfig.grad_norm_tol
    output_dir: str = "runs"

    def __post_init__(self):
        valid = [method.value for method in Method]
        given = set(self.methods)
        if not given or not given <= set(valid) or len(given) < len(self.methods):
            raise ValueError(
                f"methods must be one or more of {','.join(valid)}, each once,"
                f" not {','.join(self.methods)!r}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        check_geometry(self.n_side, self.undersampling)
        check_regularization(self.lam, self.delta)
        config = SolverConfig(Method.EG, max_iterations=self.max_iterations, grad_norm_tol=self.grad_norm_tol)
        object.__setattr__(self, "config", config)


def load_config(path) -> dict[str, str]:
    """Parse a flat ``key=value`` file into raw strings, keyed by ``RunSpec``
    field; '#' starts a comment line, and a key may be set only once."""
    values, lines = {}, {}
    known = {f.name for f in dataclasses.fields(RunSpec)}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in lines:
            raise ValueError(f"{path}:{lineno}: key {key!r} is already set on line {lines[key]}")
        values[key], lines[key] = raw.strip(), lineno
    return values


def _read_config(ctx, param, path):
    """Make the file's values the defaults of the options of the same name."""
    if path is not None:
        try:
            ctx.default_map = load_config(path)
        except ValueError as exc:
            raise click.BadParameter(str(exc), ctx, param) from exc


def _write_relative_values(path, traces: dict[str, RunTrace], f0: float, f_best: float) -> None:
    """Cross-method comparison table of normalized objective values.

    Normalization: (f_k - f_best) / (f_0 - f_best), where f_best is the
    smallest objective value seen by any method and f_0 the shared
    starting value.  The header row carries the definition; columns end
    when their method terminated.
    """
    span = f0 - f_best
    columns = [
        [format((rec.f - f_best) / span if span > 0 else 0.0, ".17e") for rec in trace.records]
        for trace in traces.values()
    ]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["k"] + [f"{name}:{RELATIVE_VALUE_DEFINITION.replace(' ', '')}" for name in traces])
        writer.writerows([k, *cells] for k, cells in enumerate(zip_longest(*columns, fillvalue="")))


def cmd_solve(spec: RunSpec) -> int:
    """Run the requested methods on one instance; nonzero exit on an aborted
    or non-finite run."""
    outdir = Path(spec.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    root = np.random.SeedSequence(spec.seed)
    data_seed, x0_seed = root.spawn(2)
    instance, x_true = build_instance(
        spec.n_side,
        undersampling=spec.undersampling,
        lam=spec.lam,
        delta=spec.delta,
        noisy=spec.noisy,
        seed=data_seed,
    )
    x0 = default_x0(instance.A.cols, seed=x0_seed)

    traces: dict[str, RunTrace] = {}
    per_method = {}
    exit_code = 0
    for name in spec.methods:
        instance.A.reset_counts()
        obj = make_objective(instance)
        config = dataclasses.replace(spec.config, method=Method(name))
        started = time.perf_counter()
        trace = solve(config, obj, x0)
        elapsed = time.perf_counter() - started
        traces[name] = trace
        trace.to_csv(outdir / f"trace_{name}.csv")
        recon = trace.final_point.reshape(spec.n_side, spec.n_side)
        write_pgm(outdir / f"recon_{name}.pgm", recon)
        per_method[name] = dict(
            trace.summary_dict(),
            forward_applications=instance.A.forward_count,
            adjoint_applications=instance.A.adjoint_count,
            screened_trials=obj.screened_trials,
            screened_by=dict(obj.screened_by),
            rejected_by=dict(obj.rejected_by),
            probes=obj.probes,
            probes_wasted=obj.probes_wasted,
            probes_met=obj.probes_met,
            recon_rel_error=float(np.linalg.norm(trace.final_point - x_true) / np.linalg.norm(x_true)),
            wall_seconds=elapsed,
        )
        if trace.terminal_status in (TerminalStatus.STEP_INFEASIBLE, TerminalStatus.NON_FINITE):
            exit_code = 1

    f0 = next(iter(traces.values())).records[0].f
    f_best = min(rec.f for trace in traces.values() for rec in trace.records)
    _write_relative_values(outdir / "relative_values.csv", traces, f0, f_best)
    summary = {
        "spec": dict(dataclasses.asdict(spec), methods=list(spec.methods)),
        "version": __version__,
        "environment": environment(),
        "relative_value_definition": RELATIVE_VALUE_DEFINITION,
        "f0": f0,
        "f_best": f_best,
        "operator": instance.A.describe(),
        "methods": per_method,
    }
    with open(outdir / "summary.json", "w") as f:
        json.dump(_finite_or_null(summary), f, indent=2, allow_nan=False)
        f.write("\n")
    return exit_code


def environment() -> dict:
    """What a run's trace bits depend on besides its spec: the numpy and
    scipy versions, the SIMD extensions numpy found on this CPU (``None``
    where numpy cannot report them), and ``arithmetic_fingerprint``, the
    sha256 of ``np.exp`` and ``np.log`` over a fixed probe of [-700, 700],
    the key of the golden trace hashes."""
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # numpy before 1.26 takes no mode
        simd = None
    probe = np.linspace(-700.0, 700.0, 2**16)  # 0 is not among its points
    arithmetic = np.exp(probe).tobytes() + np.log(np.abs(probe)).tobytes()
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "simd_extensions_found": simd,
        "arithmetic_fingerprint": hashlib.sha256(arithmetic).hexdigest(),
    }


def _finite_or_null(value):
    """``value`` with every NaN or infinite float replaced by ``None``, so
    the summary stays strict JSON (a ``non_finite`` run has such floats)."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


@click.group()
@click.version_option(version=__version__)
def main():
    """Positive-orthant optimization test bed."""


@main.command(name="solve")
@click.option("--config", type=click.Path(exists=True), is_eager=True, expose_value=False,
              callback=_read_config, help="Flat key=value file; flags override it.")
@click.option("--n-side", type=int, default=None, help="Image side length in pixels.")
@click.option("--undersampling", type=float, default=None,
              help="Measurement-to-unknown ratio of the projector.")
@click.option("--lam", type=float, default=None, help="Regularization weight.")
@click.option("--delta", type=float, default=None, help="Huber threshold.")
@click.option("--noisy/--noiseless", "noisy", default=None,
              help="Poisson noise on the simulated data.")
@click.option("--seed", type=int, default=None, help="Master seed for all randomness.")
@click.option("--methods", type=str, default=None,
              help="Comma-separated subset of eg,poicg,ipgrgd,ipemd.")
@click.option("--max-iterations", type=int, default=None)
@click.option("--grad-norm-tol", type=float, default=None)
@click.option("--output-dir", type=str, default=None)
def solve_command(methods, **kwargs):
    """Build one instance and run the selected methods on it."""
    if methods is not None:
        kwargs["methods"] = tuple(m.strip() for m in methods.split(",") if m.strip())
    try:
        spec = RunSpec(**{key: val for key, val in kwargs.items() if val is not None})
    except ValueError as exc:  # a bad value, from a flag or the config file
        raise click.UsageError(str(exc)) from exc
    sys.exit(cmd_solve(spec))


@main.command(name="verify")
@click.option("--inject-fault", is_flag=True, default=False,
              help="Append a deliberately failing check (harness self-test).")
def verify_command(inject_fault):
    """Run the numerical oracle battery."""
    reports = run_battery(inject_fault=inject_fault)
    for rep in reports:
        click.echo(rep.to_json())
    passed = sum(rep.passed for rep in reports)
    click.echo(f"{passed}/{len(reports)} checks passed")
    sys.exit(0 if passed == len(reports) else 1)


@main.command(name="phantom")
@click.option("--n-side", type=int, default=64, show_default=True)
@click.option("--output", type=str, default="phantom", show_default=True,
              help="Output path prefix (writes .pgm and .csv).")
def phantom_command(n_side, output):
    """Write the synthetic phantom image."""
    try:
        img = make_phantom(n_side)
    except ValueError as exc:  # an image too small for the phantom
        raise click.UsageError(str(exc)) from exc
    Path(output).parent.mkdir(parents=True, exist_ok=True)
    write_pgm(f"{output}.pgm", img)
    write_image_csv(f"{output}.csv", img)


if __name__ == "__main__":
    main()
