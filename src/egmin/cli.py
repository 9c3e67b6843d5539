"""Command-line front end.

Three subcommands: ``solve`` builds one tomography instance and runs the
requested methods from a shared random starting point, writing one trace
CSV and one reconstruction PGM per method plus a cross-method relative
objective comparison and a JSON summary; ``verify`` runs the oracle
battery and exits nonzero on any failure; ``phantom`` writes the
synthetic test image.  Options resolve in the order defaults < config
file < flags, and the fully resolved run configuration is echoed into
the summary.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from . import __version__
from .imgio import write_image_csv, write_pgm
from .linesearch import ArmijoParams, constant_step
from .problems import build_instance, make_objective, make_phantom
from .solvers import (
    Method,
    RunTrace,
    SolverConfig,
    TerminalStatus,
    default_x0,
    relative_lipschitz_step,
    solve,
)
from .verification import run_battery

RELATIVE_VALUE_DEFINITION = "(f_k - f_best) / (f_0 - f_best)"


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved parameters of one ``solve`` run."""

    n_side: int = 64
    undersampling: float = 0.2
    lam: float = 0.01
    delta: float = 0.01
    noisy: bool = False
    seed: int = 0
    methods: tuple[str, ...] = ("eg", "poicg", "ipgrgd", "ipemd")
    max_iterations: int = 300
    grad_norm_tol: float = 1e-6
    step_size_tol: float = 1e-10
    sigma: float = 1e-4
    beta: float = 0.5
    tau_bar: float = 1.0
    tau_min: float = 1e-10
    max_halvings: int = 60
    output_dir: str = "runs"


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunSpec)}


def _coerce(name: str, raw: str):
    if name == "methods":
        return tuple(m.strip() for m in raw.split(",") if m.strip())
    if name == "noisy":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean {raw!r}")
    kind = _FIELD_TYPES[name]
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def load_config(path) -> dict:
    """Parse a flat ``key=value`` file; '#' starts a comment line."""
    values = {}
    known = set(_FIELD_TYPES)
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
        values[key] = _coerce(key, raw.strip())
    return values


def resolve_spec(config_file=None, **overrides) -> RunSpec:
    """Merge defaults, an optional config file, and explicit flag values."""
    values = {}
    if config_file is not None:
        values.update(load_config(config_file))
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    return RunSpec(**values)


def _solver_config(spec: RunSpec, method: Method, b: np.ndarray) -> SolverConfig:
    if method is Method.IP_E_MD:
        policy = constant_step(relative_lipschitz_step(b))
    else:
        policy = ArmijoParams(
            sigma=spec.sigma,
            beta=spec.beta,
            tau_bar=spec.tau_bar,
            tau_min=spec.tau_min,
            max_halvings=spec.max_halvings,
        )
    return SolverConfig(
        method=method,
        linesearch=policy,
        max_iterations=spec.max_iterations,
        grad_norm_tol=spec.grad_norm_tol,
        step_size_tol=spec.step_size_tol,
    )


def _write_relative_values(path, traces: dict[str, RunTrace]) -> None:
    """Cross-method comparison table of normalized objective values.

    Normalization: (f_k - f_best) / (f_0 - f_best), where f_best is the
    smallest objective value seen by any method and f_0 the shared
    starting value.  The header row carries the definition; columns end
    when their method terminated.
    """
    f0 = next(iter(traces.values())).records[0].f
    f_best = min(rec.f for trace in traces.values() for rec in trace.records)
    span = f0 - f_best
    names = list(traces)
    depth = max(len(trace.records) for trace in traces.values())
    with open(path, "w", newline="") as f:
        header = [f"{name}:{RELATIVE_VALUE_DEFINITION.replace(' ', '')}" for name in names]
        f.write(",".join(["k"] + header) + "\r\n")
        for k in range(depth):
            cells = [str(k)]
            for name in names:
                recs = traces[name].records
                if k < len(recs):
                    rel = (recs[k].f - f_best) / span if span > 0 else 0.0
                    cells.append(format(rel, ".17e"))
                else:
                    cells.append("")
            f.write(",".join(cells) + "\r\n")


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
        method = Method(name)
        instance.A.reset_counts()
        obj = make_objective(instance)
        config = _solver_config(spec, method, instance.b)
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
            wall_seconds=elapsed,
        )
        if trace.terminal_status in (TerminalStatus.STEP_INFEASIBLE, TerminalStatus.NON_FINITE):
            exit_code = 1

    _write_relative_values(outdir / "relative_values.csv", traces)
    summary = {
        "spec": dict(dataclasses.asdict(spec), methods=list(spec.methods)),
        "version": __version__,
        "relative_value_definition": RELATIVE_VALUE_DEFINITION,
        "f0": next(iter(traces.values())).records[0].f,
        "f_best": min(rec.f for t in traces.values() for rec in t.records),
        "operator": instance.A.describe(),
        "methods": per_method,
    }
    with open(outdir / "summary.json", "w") as f:
        json.dump(_finite_or_null(summary), f, indent=2, allow_nan=False)
        f.write("\n")
    return exit_code


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


def cmd_verify(inject_fault: bool = False, out=None) -> int:
    """Run the oracle battery, print JSON-line reports, return 0 iff all pass."""
    out = out if out is not None else sys.stdout
    reports = run_battery(inject_fault=inject_fault)
    ok = True
    for rep in reports:
        print(rep.to_json(), file=out)
        ok = ok and rep.passed
    print(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed", file=out)
    return 0 if ok else 1


def cmd_phantom(n_side: int, output: str) -> int:
    """Write the synthetic phantom as <output>.pgm and <output>.csv."""
    img = make_phantom(n_side)
    write_pgm(f"{output}.pgm", img)
    write_image_csv(f"{output}.csv", img)
    return 0


@click.group()
@click.version_option(version=__version__)
def main():
    """Positive-orthant optimization test bed."""


@main.command(name="solve")
@click.option("--config", "config_file", type=click.Path(exists=True), default=None,
              help="Flat key=value file; flags override it.")
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
@click.option("--step-size-tol", type=float, default=None)
@click.option("--sigma", type=float, default=None, help="Armijo sufficient-decrease slope.")
@click.option("--beta", type=float, default=None, help="Armijo halving factor.")
@click.option("--tau-bar", type=float, default=None, help="Armijo initial trial step.")
@click.option("--tau-min", type=float, default=None, help="Armijo failure floor.")
@click.option("--max-halvings", type=int, default=None)
@click.option("--output-dir", type=str, default=None)
def solve_command(config_file, methods, **kwargs):
    """Build one instance and run the selected methods on it."""
    if methods is not None:
        kwargs["methods"] = tuple(m.strip() for m in methods.split(",") if m.strip())
    spec = resolve_spec(config_file, **kwargs)
    sys.exit(cmd_solve(spec))


@main.command(name="verify")
@click.option("--inject-fault", is_flag=True, default=False,
              help="Append a deliberately failing check (harness self-test).")
def verify_command(inject_fault):
    """Run the numerical oracle battery."""
    sys.exit(cmd_verify(inject_fault=inject_fault))


@main.command(name="phantom")
@click.option("--n-side", type=int, default=64, show_default=True)
@click.option("--output", type=str, default="phantom", show_default=True,
              help="Output path prefix (writes .pgm and .csv).")
def phantom_command(n_side, output):
    """Write the synthetic phantom image."""
    sys.exit(cmd_phantom(n_side, output))


if __name__ == "__main__":
    main()
