"""Command-line surface: train, predict, certify, eval, synth, bench, gates-enum.

Exit codes: 0 success, 2 usage or I/O failure, 3 verification failure.
Settings resolve once: flags > config file (--config, JSON or TOML, held to the
flags' types and choices) > the library's defaults (``AdmmConfig``,
``GateConfig`` and ``SynthSpec`` fields). Every command takes --seed and is
fully deterministic for fixed seeds and flags; for training the seed draws the
gates and starts the power iteration of the FISTA verification oracle (the ADMM
u-solve is exact and has no settings). Wall-clock measurements go to the log
sink (stderr or --log), never into result files. CLD_THREADS is only validated
(a value that is not a positive integer exits 2): block loops run sequentially
in a fixed order, and BLAS threads follow OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
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
from .dataio import (DataFormatError, LabelSet, atomic_write, csv_rows, load_manifest,
                     pool_masked_mean, read_document, read_features, read_sequence,
                     write_features, write_labels, write_manifest)
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


def _check_out_dirs(*paths) -> None:
    """Refuse, before any work, an output path (None: not given) whose directory is missing."""
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"cannot write {path}: directory {Path(path).parent} "
                                    "does not exist")


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


@contextlib.contextmanager
def _log_sink(path):
    """A JSON-lines record writer: to stderr, or appending to ``path`` until exit."""
    with contextlib.nullcontext(sys.stderr) if path is None else open(
            path, "a", encoding="utf-8") as fh:
        yield lambda rec: print(json.dumps(rec, sort_keys=True), file=fh, flush=True)


# each solver flag, by its dest: (type, choices, help); --config may set each one
_SETTINGS = {
    "beta": (float, None, f"group-penalty weight (default {AdmmConfig.beta:g})"),
    "rho": (float, None, f"consensus penalty (default {AdmmConfig.rho:g})"),
    "admm_iters": (int, None, f"outer iterations (default {AdmmConfig.admm_iters})"),
    "gates": (int, None, "activation patterns to sample (default 10 binary / 32 multiclass)"),
    "mode": (str, MODES, f"training mode (default {AdmmConfig.mode})"),
    "penalty": (str, PENALTY_KINDS, f"penalty kind (default {AdmmConfig.penalty_kind})"),
    "stop_tol": (float, None, "stop early once both residuals fall below this"),
    "seed": (int, None, "seed for the gates, for the power iteration of the FISTA oracle "
                        "that verification runs, and for bench's data and split "
                        f"(default {AdmmConfig.seed})"),
}


def _settings(args) -> dict:
    """The solver settings given by flags, then by the --config file (JSON or TOML).

    A config value must have its flag's type, and one of its choices if it
    has them; an int stands for a float. A setting given in neither place is
    left out, so the library's own default applies.
    """
    settings = {}
    if args.config is not None:
        path = Path(args.config)
        parse = json.loads
        if path.suffix.lower() == ".toml":
            import tomllib

            parse = tomllib.loads
        settings = read_document(path, "config file", parse)
        unknown = sorted(set(settings) - set(_SETTINGS))
        if unknown:
            raise ValueError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
        for key, value in settings.items():
            kind, choices, _ = _SETTINGS[key]
            if kind is float and type(value) is int:
                settings[key] = value = float(value)
            if type(value) is not kind or (choices and value not in choices):
                rule = f"one of {', '.join(choices)}" if choices else f"a {kind.__name__}"
                raise ValueError(f"config file {path}: {key} must be {rule}, got {value!r}")
    settings.update((key, getattr(args, key)) for key in _SETTINGS
                    if getattr(args, key) is not None)
    return settings


def _solver_configs(args) -> tuple[GateConfig, AdmmConfig]:
    settings = _settings(args)
    count = settings.pop("gates", None)
    if "penalty" in settings:
        settings["penalty_kind"] = settings.pop("penalty")
    cfg = AdmmConfig(**settings)
    return GateConfig(count=count, seed=cfg.seed, enumerate_all=args.enumerate_gates), cfg


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON or TOML file with default-overriding settings")
    p.add_argument("--enumerate-gates", dest="enumerate_gates", action="store_true",
                   help="enumerate the complete pattern set (tiny instances only)")
    for dest, (kind, choices, text) in _SETTINGS.items():
        p.add_argument("--" + dest.replace("_", "-"), type=kind, choices=choices, help=text)


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
        accents_per_language=tuple(_comma_list("--accents", args.accents, int, 1)),
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

    A missing --out directory, a --verify-tol that is not a finite number
    >= 0, a bad setting and exact mode under --verify (which covers relaxed
    mode only) are refused before the manifest is read; sampled gates whose
    n * count * d bound is over the oracle's budget, before training.
    Enumeration's own limits keep n * P * d within the budget.
    """
    _check_out_dirs(args.out)
    if not 0 <= args.verify_tol < float("inf"):
        raise ValueError(f"--verify-tol must be a finite number >= 0, got {args.verify_tol}")
    gate_cfg, cfg = _solver_configs(args)
    if args.verify and cfg.mode != "relaxed":
        raise ValueError("oracle verification covers relaxed-mode training only")
    X, labels = load_manifest(args.manifest)
    if args.verify and not gate_cfg.enumerate_all:
        size = X.n * gate_cfg.count_for(labels.K) * X.d   # sampling gives P <= count
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


def _check_width(source, d: int, head) -> None:
    """Refuse rows of width ``d``, read from ``source``, that the head cannot take."""
    if d != head.d:
        raise DataFormatError(f"{source}: embeddings have dimension {d}, head expects {head.d}")


def _labelled_inputs(args):
    """--model, and --manifest's rows and labels checked against it and numbered by its classes."""
    head = load_model(args.model)
    X, labels = load_manifest(args.manifest)
    _check_width(args.manifest, X.d, head)
    return head, X, labels.relabel(head.label_map)


def _pooled_inputs(path, head):
    """Pool one CLDS file or a directory of them into embedding rows; a bad file is named."""
    path = Path(path)
    files = sorted(path.glob("*.clds")) if path.is_dir() else [path]
    if not files:
        raise DataFormatError(f"no .clds sequence files under {path}")
    rows = []
    for f in files:
        seq = read_sequence(f)
        _check_width(f, seq.frames.shape[1], head)
        try:
            rows.append(pool_masked_mean(seq))
        except DataFormatError as exc:
            raise DataFormatError(f"{f}: {exc}") from None
    return [f.stem for f in files], np.vstack(rows)


def cmd_predict(args, log) -> int:
    _check_out_dirs(args.out)
    head = load_model(args.model)
    if args.pool:
        ids, H = _pooled_inputs(args.features, head)
    else:
        fm = read_features(args.features)
        _check_width(args.features, fm.d, head)
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


def _comma_list(flag: str, text: str, kind, low) -> list:
    """A comma-list flag's items, each a finite ``kind`` >= ``low``; a bad item names the flag."""
    items = [item.strip() for item in text.split(",")]
    for item in items:
        with contextlib.suppress(ValueError):   # an item that does not parse is refused
            if low <= kind(item) < float("inf"):   # nan and inf fail too
                continue
        raise ValueError(f"{flag} must be a comma list of "
                         f"{'integers' if kind is int else 'finite numbers'} >= {low}, "
                         f"got {item or repr(item)} in {text!r}")
    return [kind(item) for item in items]


def cmd_certify(args, log) -> int:
    _check_out_dirs(args.out, args.summary)
    eps = _comma_list("--eps-grid", args.eps_grid, float, 0)   # before anything is read or written
    head, X, labels = _labelled_inputs(args)
    certs = certify_batch(head, X.values, labels.class_ids, L_E=args.L_E)
    audio = certs.radius_audio if certs.radius_audio is not None else [None] * labels.n
    columns = (labels.ids, certs.pred, labels.class_ids, map(_fmt, certs.margin),
               map(_fmt, certs.radius_feature), map(_fmt, audio),
               (str(c).lower() for c in certs.certified))
    _write_csv(args.out, ["id", "pred", "true", "margin", "radius_feature", "radius_audio",
                          "certified"], zip(*columns, strict=True))
    curve = certified_accuracy(certs, labels.class_ids, eps)
    radii = np.sort(certs.radius_feature)   # np.median would load numpy.ma for a NaN check
    summary = {
        "n": labels.n,
        "bounds": {"B_l21": head.cert.B_l21, "B_fro_scaled": head.cert.B_fro_scaled,
                   "B_amgm": head.cert.B_amgm},
        "relu_accuracy": float(np.mean(certs.pred == labels.class_ids)),
        "certified_fraction": float(np.mean(certs.certified)),
        "mean_radius": float(certs.radius_feature.mean()),
        "median_radius": float(np.mean(radii[(len(radii) - 1) // 2:len(radii) // 2 + 1])),
        "L_E": args.L_E,
        "certified_accuracy": {"eps": eps, "accuracy": curve.tolist()},
        "inference_mode": "relu",
        "note": ("head trained in relaxed mode: certificates describe relu-mode "
                 "inference, which may differ from gated training predictions off "
                 "the training set" if head.mode == "relaxed" else None),
    }
    atomic_write(args.summary, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"certificates for {labels.n} examples written to {args.out}")
    return 0


def cmd_eval(args, log) -> int:
    _check_out_dirs(args.out, args.confusion_csv)
    head, X, labels = _labelled_inputs(args)
    logits = predict_batch(head, X.values, args.inference)
    accents = None
    if args.accents:
        by_id = {}   # accent_id by example id, the first column
        for lineno, cells in itertools.islice(csv_rows(args.accents), 1, None):   # past the header
            try:
                by_id[cells[0]] = int(cells[1])
            except (IndexError, ValueError):
                raise DataFormatError(f"{args.accents}: line {lineno + 1} has no integer "
                                      f"accent_id: {','.join(cells)!r}") from None
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
    by_group = [pool[group_ids[pool] == g] for g in sorted(set(group_ids[pool].tolist()))]
    return np.array([i for row in itertools.zip_longest(*by_group) for i in row if i is not None])


def cmd_bench(args, log) -> int:
    sizes = _comma_list("--sizes", args.sizes, int, 1)
    gate_cfg, cfg = _solver_configs(args)
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
    _check_out_dirs(args.out)
    fm = read_features(args.features)
    gates = enumerate_patterns(fm.values)
    print(f"{gates.P} activation patterns over {fm.n} rows")
    if args.out:
        codes = gates.patterns(fm.values).view(np.uint8) + ord("0")
        doc = {
            "n": fm.n,
            "d": fm.d,
            "count": gates.P,
            "patterns": [row.tobytes().decode("ascii") for row in codes],
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
        p.add_argument("--languages", type=int, default=SynthSpec.languages)
        p.add_argument("--accents", default=",".join(map(str, SynthSpec.accents_per_language)),
                       help="comma list: accents per language")
        p.add_argument("--dim", type=int, default=SynthSpec.dim)
        p.add_argument("--separation", type=float, default=SynthSpec.language_separation,
                       help="floor on the distance between the two nearest language "
                            "centers: centers drawn closer are scaled up, farther ones "
                            "are left as drawn (at --dim 64 they are about 10 apart)")
        p.add_argument("--spread", type=float, default=SynthSpec.accent_spread)
        p.add_argument("--sigma", type=float, default=SynthSpec.noise_sigma)
        p.add_argument("--samples-per-accent", type=int, default=SynthSpec.samples_per_accent)

    p = sub.add_parser("synth", help="generate a synthetic embedding dataset")
    add_synth_flags(p)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
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
