"""Command-line surface: train, predict, certify, eval, synth, bench, gates-enum.

Exit codes: 0 success, 2 usage or I/O failure, 3 verification failure.
Settings resolve once: flags > config file (--config, JSON or TOML) > the
library's defaults (``AdmmConfig``'s fields). Every command takes --seed and
is fully deterministic for fixed seeds and flags; for training the seed
draws the gates and starts the power iteration of the FISTA verification
oracle (the ADMM u-solve is exact and has no settings). Wall-clock
measurements go to the log sink (stderr or --log), never into result files.
The CLD_THREADS environment variable is only validated (a value that is not
a positive integer exits 2): block loops run sequentially in a fixed order,
and BLAS threads follow OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .admm import AdmmConfig, GateConfig, train
from .cert import certify_batch, certified_accuracy
from .cvxprog import MODES, PENALTY_KINDS, ConvexProblem, objective
from .dataio import (
    DataFormatError,
    LabelSet,
    atomic_write,
    load_manifest,
    pool_masked_mean,
    read_features,
    read_sequence,
    write_features,
    write_labels,
    write_manifest,
)
from .gates import enumerate_patterns
from .head import INFERENCE_MODES, load_model, predict_batch, save_model
from .linops import GatedOperator
from .metrics import evaluate
from .oracle import FistaConfig, dense_solve_smallest, fista_solve, _DENSE_GUARD
from .synth import SynthSpec, generate, split

_USAGE_ERRORS = (ValueError, OSError)   # the library's input errors all subclass ValueError


class VerificationFailure(RuntimeError):
    """Oracle cross-check exceeded tolerance."""


# --- small helpers ---------------------------------------------------------

def _write_csv(path, header, rows) -> None:
    """Write the header and then each row, both sequences of cells, as CSV lines."""
    atomic_write(path, "".join(",".join(map(str, line)) + "\n" for line in [header, *rows]))


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


@contextlib.contextmanager
def _log_sink(path):
    """A JSON-lines record writer: to stderr, or appending to ``path`` until exit."""
    with contextlib.nullcontext(sys.stderr) if path is None else open(
            path, "a", encoding="utf-8") as fh:
        yield lambda rec: print(json.dumps(rec, sort_keys=True), file=fh, flush=True)


# every setting a --config file may set, by its flag's dest, with the flag's type
_SETTINGS = {"seed": int, "stop_tol": float, "rho": float, "beta": float, "admm_iters": int,
             "mode": str, "penalty": str, "gates": int}


def _settings(args) -> dict:
    """The solver settings given by flags, then by the --config file (JSON or TOML).

    A config value must have its flag's type; an int stands for a float. A
    setting given in neither place is left out, so the library's own
    default applies.
    """
    settings = {}
    if args.config is not None:
        path = Path(args.config)
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() == ".toml":
            import tomllib

            settings = tomllib.loads(text)
        else:
            settings = json.loads(text)
        if not isinstance(settings, dict):
            raise ValueError(f"config file {path} must hold one object of settings")
        unknown = sorted(set(settings) - set(_SETTINGS))
        if unknown:
            raise ValueError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
        for key, value in settings.items():
            kind = _SETTINGS[key]
            if kind is float and type(value) is int:
                settings[key] = float(value)
            elif type(value) is not kind:
                raise ValueError(f"config file {path}: {key} must be a {kind.__name__}, "
                                 f"got {value!r}")
    settings.update((key, getattr(args, key)) for key in _SETTINGS
                    if getattr(args, key) is not None)
    return settings


def _solver_configs(args, K: int) -> tuple[GateConfig, AdmmConfig]:
    settings = _settings(args)
    count = settings.pop("gates", 10 if K == 2 else 32)
    if "penalty" in settings:
        settings["penalty_kind"] = settings.pop("penalty")
    cfg = AdmmConfig(**settings)
    return GateConfig(count=count, seed=cfg.seed, enumerate_all=args.enumerate_gates), cfg


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON or TOML file with default-overriding settings")
    p.add_argument("--beta", type=float, help=f"group-penalty weight (default {AdmmConfig.beta:g})")
    p.add_argument("--rho", type=float, help=f"consensus penalty (default {AdmmConfig.rho:g})")
    p.add_argument("--admm-iters", dest="admm_iters", type=int,
                   help=f"outer iterations (default {AdmmConfig.admm_iters})")
    p.add_argument("--gates", type=int,
                   help="activation patterns to sample (default 10 binary / 32 multiclass)")
    p.add_argument("--enumerate-gates", dest="enumerate_gates", action="store_true",
                   help="enumerate the complete pattern set (tiny instances only)")
    p.add_argument("--mode", choices=MODES,
                   help=f"training mode (default {AdmmConfig.mode})")
    p.add_argument("--penalty", choices=PENALTY_KINDS,
                   help=f"penalty kind (default {AdmmConfig.penalty_kind})")
    p.add_argument("--stop-tol", dest="stop_tol", type=float,
                   help="stop early once both residuals fall below this")
    p.add_argument("--seed", type=int,
                   help="seed for the gates, for the power iteration of the FISTA oracle "
                        "that verification runs, and for bench's data and split "
                        f"(default {AdmmConfig.seed})")


_FISTA_VERIFY_GUARD = 1_000_000   # n * P * d budget for the accelerated oracle


def _cross_check(head, X, labels, tol: float, log) -> None:
    """Compare a relaxed head's objective against the reference solvers.

    The dense oracle only runs when the instance is small enough for it; the
    accelerated one's budget was checked before training.
    """
    admm = head.train_meta["admm"]
    prob = ConvexProblem(GatedOperator.relaxed(X, head.gates, head.K), labels.one_hot(),
                         admm["beta"], head.penalty_kind)
    fista = fista_solve(prob, FistaConfig(max_iters=20000, seed=admm["seed"]))
    values = {"admm": objective(prob, head.V).total, "fista": fista.objective}
    if X.shape[0] * head.P * head.d <= _DENSE_GUARD:
        values["dense"] = dense_solve_smallest(prob).objective
    lo, hi = min(values.values()), max(values.values())
    rel = (hi - lo) / max(abs(hi), 1e-300)
    log({"verify": {"objectives": values, "relative_spread": rel, "tolerance": tol}})
    if rel > tol:
        raise VerificationFailure(
            f"solver objectives disagree: spread {rel:.3e} > tolerance {tol:.1e} ({values})"
        )


# --- subcommands -----------------------------------------------------------

def _synth_spec(args, seed: int) -> SynthSpec:
    """The dataset that the synth flags of ``synth`` and ``bench`` describe."""
    return SynthSpec(
        languages=args.languages,
        accents_per_language=tuple(int(x) for x in args.accents.split(",")),
        dim=args.dim,
        language_separation=args.separation,
        accent_spread=args.spread,
        noise_sigma=args.sigma,
        samples_per_accent=args.samples_per_accent,
        seed=seed,
    )


def cmd_synth(args, log) -> int:
    data = generate(_synth_spec(args, args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_features(out / "features.cldf", data.features)
    write_labels(out / "labels.csv", data.labels)
    write_manifest(out / "manifest.json", "features.cldf", "labels.csv", data.labels.label_map)
    names = data.labels.names
    _write_csv(out / "accents.csv", ["id", "accent_id", "label"],
               ((i, a, names[y]) for i, (a, y) in
                enumerate(zip(data.accent_ids, data.labels.class_ids))))
    print(f"wrote {data.features.n} x {data.features.d} features to {out} "
          f"(nearest-center accuracy {data.nearest_center_accuracy:.4f})")
    return 0


def cmd_train(args, log) -> int:
    """Train on --manifest, logging every phase; --verify cross-checks before saving.

    Verification covers relaxed-mode training only. Exact mode, sampled gates
    whose n * count * d bound is over the oracle's budget, and a --verify-tol
    that is not a finite number >= 0 are refused before training;
    enumeration's own limits keep n * P * d within the budget.
    """
    if not 0 <= args.verify_tol < float("inf"):
        raise ValueError(f"--verify-tol must be a finite number >= 0, got {args.verify_tol}")
    X, labels = load_manifest(args.manifest)
    gate_cfg, cfg = _solver_configs(args, labels.K)
    if args.verify and cfg.mode != "relaxed":
        raise ValueError("oracle verification covers relaxed-mode training only")
    if args.verify and not gate_cfg.enumerate_all:
        size = X.n * gate_cfg.count * X.d   # sampling gives P <= count
        if size > _FISTA_VERIFY_GUARD:
            raise ValueError(f"instance too large to verify (n*P*d = {size} > "
                             f"{_FISTA_VERIFY_GUARD}); verify a subsample instead")
    t0 = time.perf_counter()
    head = train(X, labels, gate_cfg, cfg, log=log)
    log({"phase": "train", "seconds": time.perf_counter() - t0})
    if args.verify:
        _cross_check(head, X.values, labels, args.verify_tol, log)
    save_model(head, args.out)
    print(f"model written to {args.out} (B_l21 {head.cert.B_l21:.6g})")
    return 0


def _pooled_inputs(path):
    """Pool one CLDS file or a directory of them into embedding rows."""
    path = Path(path)
    files = sorted(path.glob("*.clds")) if path.is_dir() else [path]
    if not files:
        raise DataFormatError(f"no .clds sequence files under {path}")
    return [f.stem for f in files], np.vstack([pool_masked_mean(read_sequence(f)) for f in files])


def cmd_predict(args, log) -> int:
    head = load_model(args.model)
    if args.pool:
        ids, H = _pooled_inputs(args.features)
    else:
        fm = read_features(args.features)
        ids, H = [str(i) for i in range(fm.n)], fm.values
    t0 = time.perf_counter()
    logits = predict_batch(head, H, args.inference)
    log({"rows": len(ids), "latency_ms": (time.perf_counter() - t0) * 1e3})
    names = head.class_names
    _write_csv(args.out, ["id", "pred_class", "pred_label", *(f"logit_{k}" for k in range(head.K))],
               ((ex_id, pred, names[pred], *map(_fmt, row))
                for ex_id, pred, row in zip(ids, logits.argmax(axis=1), logits)))
    print(f"predictions for {len(ids)} examples written to {args.out}")
    return 0


def _parse_grid(text: str) -> np.ndarray:
    """The --eps-grid radii: a non-empty comma list of finite numbers >= 0."""
    try:
        values = np.array([float(x) for x in text.split(",") if x.strip() != ""])
        if values.size and np.all(np.isfinite(values) & (values >= 0)):
            return values
    except ValueError:
        pass
    raise ValueError(f"--eps-grid must be a comma list of finite numbers >= 0, got {text!r}")


def cmd_certify(args, log) -> int:
    eps = _parse_grid(args.eps_grid)   # before anything is read or written
    head = load_model(args.model)
    X, labels = load_manifest(args.manifest)
    labels = labels.relabel(head.label_map)
    certs = certify_batch(head, X.values, labels.class_ids, L_E=args.L_E)
    audio = certs.radius_audio if certs.radius_audio is not None else [None] * labels.n
    columns = (labels.ids, certs.pred, labels.class_ids, map(_fmt, certs.margin),
               map(_fmt, certs.radius_feature), map(_fmt, audio),
               (str(c).lower() for c in certs.certified))
    _write_csv(args.out, ["id", "pred", "true", "margin", "radius_feature", "radius_audio",
                          "certified"], zip(*columns, strict=True))
    curve = certified_accuracy(certs, labels.class_ids, eps)
    summary = {
        "n": labels.n,
        "bounds": {"B_l21": head.cert.B_l21, "B_fro_scaled": head.cert.B_fro_scaled,
                   "B_amgm": head.cert.B_amgm},
        "relu_accuracy": float(np.mean(certs.pred == labels.class_ids)),
        "certified_fraction": float(np.mean(certs.certified)),
        "mean_radius": float(certs.radius_feature.mean()),
        "median_radius": float(np.median(certs.radius_feature)),
        "L_E": args.L_E,
        "certified_accuracy": {"eps": eps.tolist(), "accuracy": curve.tolist()},
        "inference_mode": "relu",
        "note": ("head trained in relaxed mode: certificates describe relu-mode "
                 "inference, which may differ from gated training predictions off "
                 "the training set" if head.mode == "relaxed" else None),
    }
    atomic_write(args.summary, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"certificates for {labels.n} examples written to {args.out}")
    return 0


def cmd_eval(args, log) -> int:
    head = load_model(args.model)
    X, labels = load_manifest(args.manifest)
    labels = labels.relabel(head.label_map)
    logits = predict_batch(head, X.values, args.inference)
    accents = None
    if args.accents:
        rows = Path(args.accents).read_text(encoding="utf-8").strip().splitlines()[1:]
        by_id = {}   # accent_id by example id, the first column
        for line, row in enumerate(rows, start=2):
            try:
                by_id[row.split(",")[0].strip()] = int(row.split(",")[1])
            except (IndexError, ValueError):
                raise DataFormatError(
                    f"{args.accents}: line {line} has no integer accent_id: {row!r}") from None
        missing = [ex_id for ex_id in labels.ids if ex_id not in by_id]
        if missing:
            raise DataFormatError(f"{args.accents}: no row for example id {missing[0]!r}")
        accents = np.array([by_id[ex_id] for ex_id in labels.ids])
    report = evaluate(logits.argmax(axis=1), labels, accents=accents)
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    if args.confusion_csv:
        names = labels.names
        _write_csv(args.confusion_csv, ["true\\pred", *names],
                   ((names[k], *map(int, row)) for k, row in enumerate(report.confusion)))
    return 0


def _stratified_order(group_ids: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Round-robin over groups: any prefix splits samples evenly across them.

    Benchmarks pass accent ids here so every training subset covers all
    accents equally, the same protocol the evaluation set follows.
    """
    by_group = [pool[group_ids[pool] == g] for g in np.unique(group_ids[pool])]
    order = []
    for i in range(max(len(b) for b in by_group)):
        for b in by_group:
            if i < len(b):
                order.append(b[i])
    return np.array(order)


def cmd_bench(args, log) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    if min(sizes) < 1:
        raise ValueError(f"--sizes must be positive, got {min(sizes)}")
    gate_cfg, cfg = _solver_configs(args, args.languages)
    data = generate(_synth_spec(args, cfg.seed))
    train_idx, test_idx, _val_idx = split(data.labels.class_ids, seed=cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    order = _stratified_order(data.accent_ids, train_idx)
    X = data.features.values
    X_test, y_test = X[test_idx], data.labels.class_ids[test_idx]
    accents_test = data.accent_ids[test_idx]
    names = data.labels.names
    accent_langs = {int(a): names[y] for a, y in zip(accents_test, y_test)}
    rows = []
    for size in sizes:
        n_train = min(size, order.size)
        if size > order.size:
            print(f"cld: warning: size {size} exceeds the {order.size} available training rows; "
                  f"capping to {n_train}", file=sys.stderr)
        sub = order[:n_train]
        sub_labels = LabelSet(data.labels.class_ids[sub], data.labels.label_map)
        t0 = time.perf_counter()
        # bench records are keyed by training size, which overrides u_factor's Gram size
        head = train(X[sub], sub_labels, gate_cfg, cfg,
                     log=lambda rec: log({**rec, "size": size}))
        log({"size": size, "phase": "train", "seconds": time.perf_counter() - t0})
        t0 = time.perf_counter()
        logits = predict_batch(head, X_test)
        report = evaluate(logits.argmax(axis=1), y_test, accents=accents_test, class_names=names)
        log({"size": size, "phase": "eval", "seconds": time.perf_counter() - t0})
        t0 = time.perf_counter()
        certs = certify_batch(head, X_test, y_test)
        log({"size": size, "phase": "certify", "seconds": time.perf_counter() - t0})
        radii = certs.radius_feature
        certified = float(np.mean(certs.certified))
        atomic_write(out / f"metrics_{size}.json",
                     json.dumps({**report.to_json_dict(),
                                 "certified_fraction": certified,
                                 "mean_radius": float(radii.mean()),
                                 "n_train": int(n_train)},
                                indent=2, sort_keys=True) + "\n")
        _write_csv(out / f"per_accent_{size}.csv", ["accent_id", "label", "n", "accuracy"],
                   ((a, accent_langs[a], int(np.sum(accents_test == a)), _fmt(acc))
                    for a, acc in sorted(report.per_accent.items())))
        rows.append((size, n_train, _fmt(report.accuracy), _fmt(certified), _fmt(radii.mean())))
        print(f"size {size}: accuracy {report.accuracy:.4f}, certified {certified:.4f}")
    _write_csv(out / "accuracy_vs_size.csv",
               ["size", "n_train", "accuracy", "certified_fraction", "mean_radius"], rows)
    return 0


def cmd_gates_enum(args, log) -> int:
    fm = read_features(args.features)
    gates = enumerate_patterns(fm.values)
    print(f"{gates.P} activation patterns over {fm.n} rows")
    if args.out:
        doc = {
            "n": fm.n,
            "d": fm.d,
            "count": gates.P,
            "patterns": gates.bitstrings(),
            "witnesses": gates.generators.tolist(),
        }
        atomic_write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cld",
        description="Convex language-detection head: training, inference, certificates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_synth_flags(p):
        p.add_argument("--languages", type=int, default=5)
        p.add_argument("--accents", default="5,5,5,5,4",
                       help="comma list: accents per language")
        p.add_argument("--dim", type=int, default=64)
        p.add_argument("--separation", type=float, default=6.0,
                       help="floor on the distance between the two nearest language "
                            "centers: centers drawn closer are scaled up, farther ones "
                            "are left as drawn (at --dim 64 they are about 10 apart)")
        p.add_argument("--spread", type=float, default=1.0)
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--samples-per-accent", dest="samples_per_accent", type=int, default=500)

    p = sub.add_parser("synth", help="generate a synthetic embedding dataset")
    add_synth_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a detection head from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--verify", action="store_true",
                   help="cross-check the final objective against the oracles (exit 3 on mismatch)")
    p.add_argument("--verify-tol", dest="verify_tol", type=float, default=1e-4)
    p.add_argument("--log", help="JSON-lines log file (default stderr)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write logits and predicted labels as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True, help="CLDF/CSV matrix, or CLDS file/dir with --pool")
    p.add_argument("--pool", action="store_true", help="inputs are frame sequences; pool them first")
    p.add_argument("--inference", choices=INFERENCE_MODES, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="JSON-lines log file (default stderr)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("certify", help="emit per-example robustness certificates")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="certificate CSV path")
    p.add_argument("--summary", required=True, help="summary JSON path")
    p.add_argument("--L-E", dest="L_E", type=float, default=None,
                   help="encoder Lipschitz bound for audio-space radii")
    p.add_argument("--eps-grid", dest="eps_grid", default="0,0.01,0.02,0.05,0.1,0.2,0.5")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("eval", help="score a model against labelled features")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--inference", choices=INFERENCE_MODES, default=None)
    p.add_argument("--accents", help="accents.csv for per-accent accuracy")
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.add_argument("--confusion-csv", dest="confusion_csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="train/eval/certify across training sizes")
    add_synth_flags(p)
    p.add_argument("--sizes", default="100,500,1000,10000")
    p.add_argument("--out", required=True, help="results directory")
    p.add_argument("--log", help="JSON-lines log file (default stderr)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gates-enum", help="enumerate all activation patterns (tiny inputs)")
    p.add_argument("--features", required=True)
    p.add_argument("--out", help="JSON output path")
    p.set_defaults(func=cmd_gates_enum)

    return parser


def main(argv=None) -> int:
    """Run one command; every diagnostic goes to stderr as one ``cld:`` line."""
    try:
        with warnings.catch_warnings():   # the format changes, the filters stay
            warnings.showwarning = lambda message, *_: print(f"cld: warning: {message}",
                                                             file=sys.stderr)
            threads = os.environ.get("CLD_THREADS", "1")
            try:
                if int(threads) < 1:
                    raise ValueError
            except ValueError:
                raise ValueError(f"CLD_THREADS must be a positive integer, got {threads!r}") from None
            args = build_parser().parse_args(argv)
            with _log_sink(getattr(args, "log", None)) as log:   # stderr without --log
                return args.func(args, log)
    except VerificationFailure as exc:
        print(f"cld: verification failed: {exc}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"cld: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
