"""Command-line front end for band geometry and topology computations.

Subcommands: bands, audit, gap, chern, z2, z2-3d, wannier, sweep. Structured
results are JSON (schema versioned, deterministic up to the timestamp field);
bulk numeric tables (band structures, curvature fields, Wannier sets, center
flows) are CSV. Exit codes: 0 success, 1 usage or configuration error or a
closed stdout, 2 physics error (gapless family, topological obstruction).
"""

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .core import make_grid
from .errors import BlochtopoError, PhysicsError
from .frames import smooth_periodic_frame, z2_3d, z2_boundary_winding, z2_wilson_flow
from .geometry import (
    berry_curvature,
    chern_number_curvature,
    chern_number_plaquette,
    export_curvature_csv,
)
from .models import (
    BUILTIN_DEFAULTS,
    bloch_hamiltonian_batch,
    build_builtin,
    exact_symmetry_residuals,
    load_model,
    verify_model_symmetries,
)
from .projectors import (
    BandSelection,
    ProjectorFamily,
    gap_check,
    verify_projector_symmetries,
)
from .wannier import (
    decay_fit,
    export_wannier_csv,
    localization_moments,
    wannier_from_frame,
)

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags or config file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # physics errors, so usage problems are rerouted through exit code 1
    def error(self, message):
        raise UsageError(message)


def _utc_stamp():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _jsonable(obj):
    """``obj`` as plain JSON values; a non-finite float becomes None (null)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _parse_grid(text):
    if not text:
        raise UsageError("grid: at least one size is required")
    if not isinstance(text, str):
        raise UsageError(f"grid: sizes must be a string such as '16,16', got {text!r}")
    try:
        sizes = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise UsageError(f"grid: sizes must be integers, got {text!r}")
    if any(n <= 0 for n in sizes):
        raise UsageError(f"grid: sizes must be positive, got {sizes}")
    return sizes


def _parse_selection(text, model):
    if text is not None and not isinstance(text, str):
        raise UsageError(f"bands: selection must be a string such as 'lowest:1', got {text!r}")
    if not text:
        return BandSelection.lowest(model.n_occ)
    kind, _, rest = text.partition(":")
    if kind not in ("lowest", "window", "energy"):
        raise UsageError(
            f"bands: unknown selection kind {kind!r} (use lowest:/window:/energy:)"
        )
    try:
        if kind == "energy":
            low, high = rest.split(",")
            return BandSelection.energy_window(float(low), float(high))
        if kind == "lowest":
            selection = BandSelection.lowest(int(rest))
        else:
            start, count = rest.split(",")
            selection = BandSelection.index_window(int(start), int(count))
    except (ValueError, TypeError):
        raise UsageError(f"bands: malformed selection {text!r}")
    if selection.start + selection.count > model.fiber_dim:
        raise UsageError(f"bands: {text!r} selects past the {model.fiber_dim} bands of the model")
    return selection


def _parse_path(text, dim):
    if not text:
        defaults = {
            1: "-0.5;0.0;0.5",
            2: "0,0;0.5,0;0.5,0.5;0,0",
            3: "0,0,0;0.5,0,0;0.5,0.5,0;0.5,0.5,0.5;0,0,0",
        }
        text = defaults[dim]
    points = []
    for piece in text.split(";"):
        coords = piece.split(",")
        if len(coords) != dim:
            raise UsageError(
                f"path: point {piece!r} has {len(coords)} coordinates, expected {dim}"
            )
        try:
            points.append([float(c) for c in coords])
        except ValueError:
            raise UsageError(f"path: point {piece!r} is not numeric")
    if len(points) < 2:
        raise UsageError("path: need at least two points")
    return np.array(points)


def _merge_config(args, dests):
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            stored = json.load(fh)
    except OSError as exc:
        raise UsageError(f"config: cannot read {args.config}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config: {args.config} is not valid JSON: {exc}")
    if not isinstance(stored, dict):
        raise UsageError("config: top level must be an object")
    for key, value in stored.items():
        if key not in dests:
            raise UsageError(f"config: unknown field {key!r}")
        if getattr(args, key) is None:
            setattr(args, key, value)


def _build_model(args):
    if args.model_file:
        if args.model:
            raise UsageError("model: give either --model or --model-file, not both")
        try:
            return load_model(args.model_file)
        except OSError as exc:
            raise UsageError(f"model_file: cannot read {args.model_file}: {exc}")
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"model_file: {args.model_file}: {type(exc).__name__}: {exc}")
    if not args.model:
        raise UsageError("model: --model or --model-file is required")
    return build_builtin(args.model, _params(args))


def _params(args):
    """The parameter overrides, from name=value text or a config object, checked finite."""
    params = args.params
    if params is None or isinstance(params, str):
        text, params = params or "", {}
        for piece in filter(None, text.split(",")):
            if "=" not in piece:
                raise UsageError(f"params: expected name=value, got {piece!r}")
            name, _, value = piece.partition("=")
            try:
                params[name.strip()] = float(value)
            except ValueError:
                raise UsageError(f"params: value for {name.strip()!r} is not a number")
    if not isinstance(params, dict):
        raise UsageError(f"params: expected name=value text or an object, got {params!r}")
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
            raise UsageError(f"params: value for {name!r} must be a finite number, got {value!r}")
    return params


def _positive(args, dest, kind, default):
    """args.<dest> as a finite positive ``kind``; ``default`` only when it is absent."""
    value = getattr(args, dest)
    if value is None:
        return default
    try:
        if 0 < kind(value) < np.inf:
            return kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise UsageError(f"{dest}: must be a finite positive number, got {value!r}")


def _finite(args, dest, kind):
    """Required args.<dest> as a finite float, or (``kind=int``) a whole number."""
    value = getattr(args, dest)
    if value is None:
        raise UsageError(f"{dest}: required for sweep")
    try:
        number = kind(value)
        if not isinstance(value, bool) and np.isfinite(number) and number == float(value):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    what = "an integer" if kind is int else "a finite number"
    raise UsageError(f"{dest}: must be {what}, got {value!r}")


def _require_plaquette_grid(grid):
    """Refuse, before any eigensolve, a grid too coarse for the plaquette Chern number."""
    if grid.dim >= 2 and min(grid.sizes) < 8:
        raise UsageError(
            f"grid: the plaquette method needs at least 8 points per axis, got {list(grid.sizes)}"
        )


def _require_dim(model, what, dim):
    if dim is not None and model.lattice.dim != dim:
        raise UsageError(f"model: {what} needs a {dim}-dimensional model, got {model.lattice.dim}")


def _make_grid(args, model):
    """The --grid sizes as a grid of the model's lattice; one size is broadcast."""
    if args.grid is None:
        raise UsageError("grid: --grid is required for this command")
    sizes = _parse_grid(args.grid)
    if len(sizes) == 1 and model.lattice.dim > 1:
        sizes = sizes * model.lattice.dim
    if len(sizes) != model.lattice.dim:
        raise UsageError(
            f"grid: {len(sizes)} sizes for a {model.lattice.dim}-dimensional model"
        )
    return make_grid(model.lattice, sizes)


def _family_and_grid(args, gapped=None, plaquette=False):
    """Model, family and grid, the model's dimension checked against the command's."""
    model = _build_model(args)
    family = ProjectorFamily.from_model(model, _parse_selection(args.bands, model))
    grid = _make_grid(args, model)
    dim = _COMMANDS[args.command][2]
    if plaquette and dim in (None, grid.dim):
        # a model of the wrong dimension gets the dimension error below instead
        _require_plaquette_grid(grid)
    if gapped:
        # first: a gapless family is a physics error whatever its dimension
        gap_check(family, grid).require(gapped)
    _require_dim(model, args.command, dim)
    return model, family, grid


def _model_summary(model):
    return {"name": model.name, "params": model.params}


def cmd_bands(args):
    model = _build_model(args)
    if not args.output:
        raise UsageError("output: bands writes CSV and needs --output")
    vertices = _parse_path(args.path, model.lattice.dim)
    steps = _positive(args, "path_steps", int, 50)
    points = []
    for a, b in zip(vertices[:-1], vertices[1:]):
        for t in range(steps):
            points.append(a + (b - a) * (t / steps))
    points.append(vertices[-1])
    points = np.array(points)
    energies = np.linalg.eigvalsh(bloch_hamiltonian_batch(model, points))
    kcart = model.lattice.kcart(points)
    arc = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(kcart, axis=0), axis=1))])
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = model.lattice.dim
        writer.writerow(
            ["s"] + [f"k{i + 1}" for i in range(dim)]
            + [f"e{n + 1}" for n in range(energies.shape[1])]
        )
        for s, k, row in zip(arc, points, energies):
            writer.writerow(
                [f"{s:.9f}"] + [f"{c:.9f}" for c in k] + [f"{e:.12e}" for e in row]
            )
    return {"model": _model_summary(model), "rows": len(points), "output": args.output}


def cmd_audit(args):
    model, family, grid = _family_and_grid(args)
    tol = _positive(args, "tolerance", float, 1e-9)
    fam_audit = verify_projector_symmetries(family, grid, tol=tol)
    model_audit = verify_model_symmetries(model, grid, tol=tol)
    exact = exact_symmetry_residuals(model, model.time_reversal, model.space_reflection)
    exact = {name: None if res is None else res[0] for name, res in exact.items()}
    exact["verdicts"] = {
        name: None if res is None else res <= tol * model.scale for name, res in exact.items()
    }
    return {
        "model": _model_summary(model),
        "grid": list(grid.sizes),
        "projector_audit": fam_audit.to_json(),
        "model_audit": {
            "tr_residual": model_audit.tr_residual,
            "sr_residual": model_audit.sr_residual,
            "tau_residual": model_audit.tau_residual,
            "spectrum_parity": model_audit.spectrum_parity,
            "verdicts": model_audit.verdicts,
            "exact": exact,
        },
    }


def cmd_gap(args):
    model, family, grid = _family_and_grid(args)
    report = gap_check(family, grid, threshold=_positive(args, "tolerance", float, None))
    return {
        "model": _model_summary(model),
        "grid": list(grid.sizes),
        **report.to_json(),
    }


def cmd_chern(args):
    model, family, grid = _family_and_grid(args, gapped="Chern number", plaquette=True)
    field = berry_curvature(family, grid)
    curvature = chern_number_curvature(field)
    plaquette = chern_number_plaquette(family, grid)
    if args.curvature_csv:
        export_curvature_csv(field, args.curvature_csv)
    return {
        "model": _model_summary(model),
        "grid": list(grid.sizes),
        "curvature_method": curvature.to_json(),
        "plaquette_method": plaquette.to_json(),
        "agree": int(curvature.value) == int(plaquette.value),
    }


def cmd_z2(args):
    model, family, grid = _family_and_grid(args)
    winding = z2_boundary_winding(family, grid)
    flow = z2_wilson_flow(family, grid)
    if args.flow_csv:
        with open(args.flow_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            m = flow.flow["phases"].shape[1]
            writer.writerow(["k2"] + [f"phase{j + 1}" for j in range(m)])
            for k2, row in zip(flow.flow["k2"], flow.flow["phases"]):
                writer.writerow([f"{k2:.9f}"] + [f"{p:.12e}" for p in row])
    return {
        "model": _model_summary(model),
        "grid": list(grid.sizes),
        "boundary_winding": winding.to_json(),
        "wilson_flow": flow.to_json(),
        "agree": winding.delta == flow.delta,
        "delta": int(winding.delta),
    }


def cmd_z2_3d(args):
    model, family, grid = _family_and_grid(args)
    result = z2_3d(family, grid)
    return {
        "model": _model_summary(model),
        "grid": list(grid.sizes),
        **result.to_json(),
    }


def cmd_wannier(args):
    model, family, grid = _family_and_grid(args, plaquette=True)
    if not args.output:
        raise UsageError("output: wannier writes the set as CSV and needs --output")
    frame = smooth_periodic_frame(family, grid)
    wset = wannier_from_frame(grid, frame.columns)
    export_wannier_csv(wset, args.output)
    report = localization_moments(wset)
    fit = decay_fit(wset)
    return {
        "model": _model_summary(model),
        "grid": list(grid.sizes),
        "output": args.output,
        "norm_defect": wset.diagnostics["norm_defect"],
        "orthonormality_defect": wset.orthonormality_defect(),
        "localization": report.to_json(),
        "decay": fit.to_json(),
    }


def _sweep_invariant(kind, family, grid):
    if kind == "z2":
        return int(z2_wilson_flow(family, grid).delta)
    if kind == "chern":
        return int(chern_number_plaquette(family, grid).value)


def cmd_sweep(args):
    if not args.vary:
        raise UsageError("vary: --vary names the parameter to sweep")
    start = _finite(args, "start", float)
    stop = _finite(args, "stop", float)
    steps = _finite(args, "steps", int)
    if steps < 2:
        raise UsageError("steps: need at least 2 sweep points")
    values = np.linspace(start, stop, steps)

    if not args.model:
        raise UsageError("model: --model is required")
    base_params = _params(args)
    base = build_builtin(args.model, base_params)
    invariant_kind = args.invariant
    if invariant_kind is None:
        if base.lattice.dim == 2 and base.time_reversal is not None and base.time_reversal.sign == -1:
            invariant_kind = "z2"
        elif base.lattice.dim == 2:
            invariant_kind = "chern"
        else:
            invariant_kind = "none"
    if invariant_kind not in ("z2", "chern", "none"):
        raise UsageError(f"invariant: unknown kind {invariant_kind!r}")

    if args.vary not in BUILTIN_DEFAULTS.get(args.model, {}):
        raise UsageError(
            f"vary: {args.vary!r} is not a parameter of {args.model!r}"
        )
    # builtin lattices do not depend on the parameters, so one grid serves every point
    grid = _make_grid(args, base)
    if invariant_kind != "none":
        _require_dim(base, f"sweep --invariant {invariant_kind}", 2)
    if invariant_kind == "chern":
        _require_plaquette_grid(grid)

    points = []
    for value in values:
        params = dict(base_params)
        params[args.vary] = float(value)
        model = build_builtin(args.model, params)
        family = ProjectorFamily.from_model(model, _parse_selection(args.bands, model))
        report = gap_check(family, grid)
        record = {
            "value": float(value),
            "min_gap": report.min_gap,
            "gapless": bool(report.gapless),
            "invariant": None,
        }
        if not report.gapless and invariant_kind != "none":
            try:
                record["invariant"] = _sweep_invariant(invariant_kind, family, grid)
            except PhysicsError as exc:
                record["invariant_error"] = str(exc)
        points.append(record)

    transitions = []
    last = None
    for rec in points:
        if rec["invariant"] is None:
            continue
        if last is not None and rec["invariant"] != last["invariant"]:
            transitions.append([last["value"], rec["value"]])
        last = rec
    return {
        "model": {"name": args.model, "params": base_params},
        "vary": args.vary,
        "invariant_kind": invariant_kind,
        "points": points,
        "transitions": transitions,
    }


# dest -> (flag, argparse keywords); a config file names options by dest
_OPTIONS = {
    "model": ("--model", {"help": "builtin model name"}),
    "params": ("--params", {"help": "comma-separated name=value overrides"}),
    "model_file": ("--model-file", {"help": "JSON model file"}),
    "grid": ("--grid", {"help": "comma-separated grid sizes (even)"}),
    "bands": ("--bands", {"help": "selection: lowest:M | window:N0,M | energy:LO,HI"}),
    "tolerance": ("--tolerance", {"type": float, "help": "tolerance override"}),
    "output": ("--output", {"help": "output path (CSV commands)"}),
    "path": ("--path", {"help": "semicolon-separated reduced k-points"}),
    "path_steps": ("--path-steps", {"type": int, "help": "samples per path segment (default 50)"}),
    "curvature_csv": ("--curvature-csv", {"help": "also write the curvature field as CSV"}),
    "flow_csv": ("--flow-csv", {"help": "also write the Wannier-center flow as CSV"}),
    "report": ("--report", {"help": "write the JSON report here instead of stdout"}),
    "vary": ("--vary", {"help": "parameter to sweep"}),
    "start": ("--from", {"type": float, "help": "sweep start"}),
    "stop": ("--to", {"type": float, "help": "sweep end"}),
    "steps": ("--steps", {"type": int, "help": "number of sweep points"}),
    "invariant": ("--invariant", {"choices": ["z2", "chern", "none"],
                                  "help": "per-point invariant (default by symmetry)"}),
}

_MODEL = ("model", "params", "model_file")
_FAMILY = _MODEL + ("grid", "bands")

# subcommand -> (handler, the options it reads, the model dimension it needs)
_COMMANDS = {
    "bands": (cmd_bands, _MODEL + ("output", "path", "path_steps"), None),
    "audit": (cmd_audit, _FAMILY + ("tolerance",), None),
    "gap": (cmd_gap, _FAMILY + ("tolerance",), None),
    "chern": (cmd_chern, _FAMILY + ("curvature_csv",), 2),
    "z2": (cmd_z2, _FAMILY + ("flow_csv",), 2),
    "z2-3d": (cmd_z2_3d, _FAMILY, 3),
    "wannier": (cmd_wannier, _FAMILY + ("output", "report"), None),
    # a sweep needs dimension 2 only for its invariant, checked in cmd_sweep
    "sweep": (cmd_sweep, ("model", "params", "grid", "bands",
                          "vary", "start", "stop", "steps", "invariant"), None),
}


def build_parser():
    parser = _Parser(prog="blochtopo", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, dests, _) in _COMMANDS.items():
        # no abbreviations: a prefix such as --to would otherwise reach --tolerance
        sub = subs.add_parser(name, prog=f"blochtopo {name}", allow_abbrev=False)
        sub.add_argument("--config", help="JSON file mirroring the flags")
        for dest in dests:
            flag, kwargs = _OPTIONS[dest]
            sub.add_argument(flag, dest=dest, **kwargs)
    return parser


def _parse_args(argv):
    """argv parsed, with the --config file filling the options left unset."""
    args = build_parser().parse_args(argv)
    _merge_config(args, _COMMANDS[args.command][1])
    return args


def main(argv=None):
    try:
        args = _parse_args(argv)
        payload = _COMMANDS[args.command][0](args)
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, BlochtopoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    document = _jsonable({
        "schema": 1,
        "command": args.command,
        "generated_at": _utc_stamp(),
        **payload,
    })
    # strict JSON: _jsonable already mapped every non-finite float to null
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    if getattr(args, "report", None):
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader left: what is still buffered goes to devnull, not to the exit flush
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print("error: stdout closed before the report was written", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
