"""Command-line interface.

Subcommands: build, measure, complete, estimate, certify, sweep.  Every
command is deterministic given its arguments and seed (env var BRQST_SEED
supplies the default seed) and drops a manifest next to its outputs.

Exit codes: 0 success, 1 domain failure (failure set, infeasible ball,
degenerate estimate, non-convergence), 2 usage, parse, or schema errors.
A failure prints one JSON line {"error": kind, "message": ...} on stderr;
numerical failures (an eigensolver that does not converge, a failed
residual check) exit 1 with kind "numerical".
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .completion import check_proposition1, complete_rankr, default_plan, \
    extract_flammia, extract_goyeneche, falsify_strictness, measured_mask
from .errors import BrqstError, DegenerateEstimateError, FailureSetError, InfeasibleError
from .estimators import SolverConfig, estimate_ls, estimate_mle, estimate_trace_min
from .experiments import NoiseModel, _union_radius, robustness_rows, robustness_summary, \
    run_robustness_sweep, run_strictness_sweep, strictness_rows, strictness_summary, \
    write_csv, write_json
from .io import basis_set_to_dict, dump_json, load_artifact, load_json, povm_to_dict, \
    record_to_dict, report_to_dict, state_to_dict
from .linalg import random_rank_r_state
from .experiments import simulate_counts
from .povm import apply_measurement_map, bases_to_povm, build_flammia_rankr, \
    build_flammia_sequential, build_goyeneche_bases, build_local_random_bases, \
    build_random_bases, kernel_basis, split_by_basis, validate_povm
from .rng import RandomStream

_ERROR_KINDS = {
    FailureSetError: "failure_set",
    InfeasibleError: "infeasible",
    DegenerateEstimateError: "degenerate_estimate",
}


def _fail(kind: str, message: str, code: int):
    click.echo(json.dumps({"error": kind, "message": message}), err=True)
    sys.exit(code)


def _guard(fn):
    """Map exceptions onto the documented exit-code contract."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BrqstError as exc:
            _fail(_ERROR_KINDS.get(type(exc), "domain"), str(exc), 1)
        except (np.linalg.LinAlgError, ArithmeticError) as exc:
            # LinAlgError subclasses ValueError, so it must precede the usage clause
            _fail("numerical", str(exc), 1)
        except json.JSONDecodeError as exc:
            _fail("parse", str(exc), 2)
        except FileNotFoundError as exc:
            _fail("parse", str(exc), 2)
        except (ValueError, KeyError, TypeError) as exc:
            _fail("usage", str(exc), 2)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _write_manifest(out_path: Path, command: str, params: dict, seed: int,
                    outputs: list[str], t0: float):
    manifest = {
        "kind": "run_manifest",
        "command": command,
        "parameters": params,
        "master_seed": seed,
        "versions": {"brqst": __version__, "numpy": np.__version__},
        "outputs": outputs,
        "wall_clock_s": round(time.time() - t0, 3),
    }
    dump_json(out_path, manifest)


@click.group()
@click.option("--seed", type=int, envvar="BRQST_SEED", default=0, show_default=True,
              help="Master seed (env: BRQST_SEED).")
@click.option("--tol", type=float, default=1e-8, show_default=True,
              help="Numerical tolerance for validation and completion.")
@click.option("--max-iter", type=int, default=50_000, show_default=True,
              help="Solver iteration cap.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker processes for sweeps.")
@click.pass_context
def main(ctx, seed, tol, max_iter, threads):
    """Bounded-rank tomography toolkit: build measurements, simulate, reconstruct."""
    ctx.obj = {"seed": seed, "tol": tol, "max_iter": max_iter, "threads": threads}


def _load_kind(path, kind: str, expected: str):
    """The object in the artifact file ``path``, which must be of ``kind``."""
    found, obj = load_artifact(path)
    if found != kind:
        raise ValueError(f"{path} holds {found!r}, expected {expected}")
    return obj


def _load_measurement(povm_path, bases_path):
    if (povm_path is None) == (bases_path is None):
        raise ValueError("provide exactly one of --povm or --bases")
    if povm_path is not None:
        return _load_kind(povm_path, "povm", "a POVM"), None
    bs = _load_kind(bases_path, "basis_set", "a basis set")
    return bases_to_povm(bs), bs


@main.command()
@click.option("--family", required=True,
              type=click.Choice(["flammia", "flammia-seq", "goyeneche", "random", "local-random"]))
@click.option("-d", "--dim", type=int, required=True)
@click.option("-r", "--rank", type=int, default=1, show_default=True)
@click.option("-b", "--bases", "n_bases", type=int, default=None,
              help="Basis count (random families).")
@click.option("-o", "--out", type=click.Path(dir_okay=False), required=True)
@click.pass_obj
@_guard
def build(obj, family, dim, rank, n_bases, out):
    """Construct a measurement family and write it to a JSON artifact."""
    t0 = time.time()
    seed = obj["seed"]
    stream = RandomStream(seed)
    out_path = Path(out)
    if family == "flammia":
        povm = build_flammia_rankr(dim, rank)
        payload = povm_to_dict(povm)
        report = validate_povm(povm, obj["tol"])
    elif family == "flammia-seq":
        povms = build_flammia_sequential(dim, rank)
        payload = {"kind": "povm_sequence", "dim": dim,
                   "povms": [povm_to_dict(p) for p in povms]}
        report = validate_povm(povms[0], obj["tol"])
        for p in povms[1:]:
            rep = validate_povm(p, obj["tol"])
            if not rep.is_valid:
                report = rep
    elif family == "goyeneche":
        bs = build_goyeneche_bases(dim, rank)
        payload = basis_set_to_dict(bs)
        report = validate_povm(bases_to_povm(bs), obj["tol"])
    else:
        if n_bases is None:
            raise ValueError("--bases is required for random families")
        if family == "random":
            bs = build_random_bases(dim, n_bases, stream)
        else:
            n_qubits = int(round(math.log2(dim)))
            if 2**n_qubits != dim:
                raise ValueError(f"dimension {dim} is not a power of two")
            bs = build_local_random_bases(n_qubits, n_bases, stream)
        payload = basis_set_to_dict(bs)
        report = validate_povm(bases_to_povm(bs), obj["tol"])
    dump_json(out_path, payload)
    click.echo(json.dumps({
        "written": str(out_path),
        "valid_povm": report.is_valid,
        "min_eigenvalue": report.min_eigenvalue,
        "identity_residual": report.identity_residual,
    }))
    _write_manifest(out_path.with_suffix(out_path.suffix + ".manifest.json"), "build",
                    {"family": family, "dim": dim, "rank": rank, "bases": n_bases},
                    seed, [str(out_path)], t0)
    if not report.is_valid:
        raise BrqstError("constructed measurement failed validation")


@main.command()
@click.option("--povm", "povm_path", type=click.Path(exists=False), default=None)
@click.option("--bases", "bases_path", type=click.Path(exists=False), default=None)
@click.option("--state", "state_path", type=click.Path(exists=False), default=None)
@click.option("--random-rank", type=int, default=None,
              help="Draw a random state of this rank instead of reading --state.")
@click.option("--shots", type=int, default=0, show_default=True,
              help="Multinomial shots per basis; 0 gives ideal probabilities.")
@click.option("--state-out", type=click.Path(dir_okay=False), default=None,
              help="Where to save a randomly drawn state.")
@click.option("-o", "--out", type=click.Path(dir_okay=False), required=True)
@click.pass_obj
@_guard
def measure(obj, povm_path, bases_path, state_path, random_rank, shots, state_out, out):
    """Measure a state: ideal probabilities or simulated multinomial counts."""
    t0 = time.time()
    seed = obj["seed"]
    povm, bs = _load_measurement(povm_path, bases_path)
    if (state_path is None) == (random_rank is None):
        raise ValueError("provide exactly one of --state or --random-rank")
    if state_path is not None:
        rho = _load_kind(state_path, "state", "a state")
    else:
        rho = random_rank_r_state(povm.dim, random_rank, RandomStream(seed).derive(17))
        if state_out:
            dump_json(Path(state_out), state_to_dict(rho.mat))
    if shots > 0:
        if bs is None:
            raise ValueError("count simulation needs --bases (per-basis multinomials)")
        mv = simulate_counts(bs, rho.mat, shots, RandomStream(seed).derive(23))
    else:
        mv = apply_measurement_map(povm, rho)
    n_bases = len(bs.bases) if bs is not None else None
    meta = {"dim": povm.dim, "n_bases": n_bases, "shots_per_basis": shots or None}
    out_path = Path(out)
    dump_json(out_path, record_to_dict(mv, meta))
    outputs = [str(out_path)] + ([state_out] if state_out else [])
    _write_manifest(out_path.with_suffix(out_path.suffix + ".manifest.json"), "measure",
                    {"povm": povm_path, "bases": bases_path, "state": state_path,
                     "random_rank": random_rank, "shots": shots},
                    seed, outputs, t0)
    click.echo(json.dumps({"written": str(out_path), "entries": len(mv)}))


@main.command("complete")
@click.option("--povm", "povm_path", type=click.Path(exists=False), default=None)
@click.option("--bases", "bases_path", type=click.Path(exists=False), default=None)
@click.option("--record", "record_path", type=click.Path(exists=False), required=True)
@click.option("-r", "--rank", type=int, required=True)
@click.option("-o", "--out", type=click.Path(dir_okay=False), required=True)
@click.pass_obj
@_guard
def complete_cmd(obj, povm_path, bases_path, record_path, rank, out):
    """Algebraic completion: extract measured entries and fill the rest."""
    t0 = time.time()
    mv, _meta = _load_kind(record_path, "record", "a record")
    povm, bs = _load_measurement(povm_path, bases_path)
    if bs is not None:
        if bs.provenance.get("construction") != "goyeneche":
            raise ValueError("completion from bases requires the paired-basis family")
        partial = extract_goyeneche(bs, split_by_basis(mv, povm))
        plan = default_plan("goyeneche", bs.dim, rank)
    else:
        partial = extract_flammia(povm, mv)
        plan = default_plan("flammia", povm.dim, rank)
    rho = complete_rankr(partial, rank, plan, tol=obj["tol"])
    out_path = Path(out)
    dump_json(out_path, state_to_dict(rho.mat))
    _write_manifest(out_path.with_suffix(out_path.suffix + ".manifest.json"), "complete",
                    {"record": record_path, "rank": rank}, obj["seed"],
                    [str(out_path)], t0)
    click.echo(json.dumps({"written": str(out_path), "dim": rho.dim}))


@main.command()
@click.option("--povm", "povm_path", type=click.Path(exists=False), default=None)
@click.option("--bases", "bases_path", type=click.Path(exists=False), default=None)
@click.option("--record", "record_path", type=click.Path(exists=False), required=True)
@click.option("--method", type=click.Choice(["ls", "trace", "mle"]), required=True)
@click.option("--eps", type=float, default=None,
              help="Residual-ball radius; defaults from record metadata.")
@click.option("-o", "--out", type=click.Path(dir_okay=False), required=True)
@click.pass_obj
@_guard
def estimate(obj, povm_path, bases_path, record_path, method, eps, out):
    """Reconstruct a state from a record with one of the convex programs."""
    t0 = time.time()
    mv, meta = _load_kind(record_path, "record", "a record")
    povm, _bs = _load_measurement(povm_path, bases_path)
    cfg = SolverConfig(max_iterations=obj["max_iter"])
    if method != "ls" and eps is None:
        n_bases = meta.get("n_bases")
        shots = None if mv.kind == "ideal_probabilities" else meta.get("shots_per_basis")
        if shots and not n_bases:
            raise ValueError("record metadata lacks basis count; pass --eps")
        eps = _union_radius(n_bases, povm.dim, shots)
    if method == "ls":
        report = estimate_ls(povm, mv, cfg)
    elif method == "trace":
        report = estimate_trace_min(povm, mv, eps, cfg)
    else:
        report = estimate_mle(povm, mv, eps, cfg)
    out_path = Path(out)
    dump_json(out_path, report_to_dict(report))
    _write_manifest(out_path.with_suffix(out_path.suffix + ".manifest.json"), "estimate",
                    {"record": record_path, "method": method, "eps": eps},
                    obj["seed"], [str(out_path)], t0)
    click.echo(json.dumps({"written": str(out_path), "converged": report.converged,
                           "residual_norm": report.residual_norm}))
    if not report.converged:
        raise BrqstError("estimator did not converge")


@main.command()
@click.option("--povm", "povm_path", type=click.Path(exists=False), default=None)
@click.option("--bases", "bases_path", type=click.Path(exists=False), default=None)
@click.option("-r", "--rank", type=int, required=True)
@click.option("--trials", type=int, default=10_000, show_default=True)
@click.option("-o", "--out", type=click.Path(dir_okay=False), required=True)
@click.pass_obj
@_guard
def certify(obj, povm_path, bases_path, rank, trials, out):
    """Kernel dimension, diagonal-coverage check, and strictness falsification."""
    t0 = time.time()
    povm, bs = _load_measurement(povm_path, bases_path)
    kernel = kernel_basis(povm, tol=obj["tol"])
    prop1 = None
    prov = bs.provenance if bs is not None else povm.provenance
    construction = prov.get("construction")
    if construction in ("goyeneche", "flammia_rankr"):
        prop1 = check_proposition1(measured_mask(construction, povm.dim, prov["rank"]),
                                   rank_complete=True)
    report = falsify_strictness(povm, rank, trials, RandomStream(obj["seed"]).derive(29))
    payload = {
        "kind": "certify_report",
        "kernel_dim": report.kernel_dim,
        "proposition1": prop1,
        "falsified": report.falsified,
        "has_psd_witness": report.witness is not None,
        "has_kernel_violation": report.kernel_violation is not None,
        "trials_run": report.trials_run,
    }
    out_path = Path(out)
    dump_json(out_path, payload)
    _write_manifest(out_path.with_suffix(out_path.suffix + ".manifest.json"), "certify",
                    {"rank": rank, "trials": trials}, obj["seed"], [str(out_path)], t0)
    click.echo(json.dumps(payload))


_TABLE_SCHEMA = {
    "dims": (list, True),
    "ranks": (list, True),
    "family": (str, True),
    "states_per_dim": (int, False),
    "threshold": (float, False),
    "max_bases": (int, False),
}

_FIG_SCHEMA = {
    "dims": (list, True),
    "family": (str, True),
    "n_states": (int, False),
    "q": (float, False),
    "shots_per_basis": (int, False),
    "basis_counts": (list, True),
}


def _validate_config(cfg: dict, schema: dict) -> list[str]:
    errors = []
    for key, (typ, required) in schema.items():
        if key not in cfg:
            if required:
                errors.append(f"missing required key {key!r}")
            continue
        val = cfg[key]
        if typ is float and isinstance(val, int):
            val = float(val)
        if not isinstance(val, typ):
            errors.append(f"key {key!r} must be {typ.__name__}")
        elif typ is list and not val:
            errors.append(f"key {key!r} must be a nonempty list")
    for key in cfg:
        if key not in schema:
            errors.append(f"unknown key {key!r}")
    return errors


@main.command()
@click.option("--kind", "sweep_kind", type=click.Choice(["table1", "fig2"]), required=True)
@click.option("--config", "config_path", type=click.Path(exists=False), required=True)
@click.option("--out-dir", type=click.Path(file_okay=False), required=True)
@click.pass_obj
@_guard
def sweep(obj, sweep_kind, config_path, out_dir):
    """Run a full campaign from a JSON config; writes CSV rows and a JSON summary."""
    t0 = time.time()
    cfg = load_json(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = RandomStream(obj["seed"])
    if sweep_kind == "table1":
        errors = _validate_config(cfg, _TABLE_SCHEMA)
        if errors:
            raise ValueError("config errors: " + "; ".join(errors))
        results = run_strictness_sweep(
            dims=[int(d) for d in cfg["dims"]],
            ranks=[int(r) for r in cfg["ranks"]],
            family=cfg["family"],
            states_per_dim=cfg.get("states_per_dim"),
            threshold=float(cfg.get("threshold", 1e-5)),
            max_bases=int(cfg.get("max_bases", 12)),
            rng=rng,
            threads=obj["threads"],
        )
        rows, summary = strictness_rows(results), strictness_summary(results)
    else:
        errors = _validate_config(cfg, _FIG_SCHEMA)
        if errors:
            raise ValueError("config errors: " + "; ".join(errors))
        noise = NoiseModel(q=float(cfg.get("q", 1e-3)),
                           shots_per_basis=cfg.get("shots_per_basis"))
        results = run_robustness_sweep(
            dims=[int(d) for d in cfg["dims"]],
            family=cfg["family"],
            n_states=int(cfg.get("n_states", 50)),
            noise=noise,
            basis_range=[int(b) for b in cfg["basis_counts"]],
            rng=rng,
            threads=obj["threads"],
        )
        rows, summary = robustness_rows(results), robustness_summary(results)
    csv_path = out / "rows.csv"
    json_path = out / "summary.json"
    write_csv(csv_path, rows)
    write_json(json_path, summary)
    _write_manifest(out / "manifest.json", f"sweep:{sweep_kind}", cfg, obj["seed"],
                    [str(csv_path), str(json_path)], t0)
    click.echo(json.dumps({"rows": str(csv_path), "summary": str(json_path)}))


if __name__ == "__main__":
    main()
