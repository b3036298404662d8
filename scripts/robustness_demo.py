#!/usr/bin/env python3
"""Certified-robustness walkthrough on synthetic embeddings.

Trains a head, prints its variation-norm bounds, certifies a held-out set,
and empirically attacks a few certified points with random perturbations at
99% of their certified radii (zero flips expected, by the margin-stability
guarantee).
"""

import argparse
import sys

import numpy as np

from cld.admm import AdmmConfig, GateConfig, train
from cld.cert import amgm_bound, certify_batch, var_bound_fro, var_bound_l21
from cld.dataio import LabelSet
from cld.head import predict_batch, to_relu
from cld.synth import SynthSpec, generate, split


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=2000, help="perturbations per point")
    args = ap.parse_args()

    data = generate(SynthSpec(languages=3, accents_per_language=(2, 2, 2), dim=64,
                              samples_per_accent=200, seed=args.seed))
    tr, te, _ = split(data.labels.class_ids, seed=args.seed)
    X = data.features.values
    labels = LabelSet(data.labels.class_ids[tr], data.labels.label_map)
    cfg = AdmmConfig(rho=10.0, beta=1e-3, admm_iters=150, stop_tol=1e-8)
    head = train(X[tr], labels, GateConfig(count=32, seed=args.seed), cfg)

    net = to_relu(head)
    print(f"trained head: {head.P} gates, {net.m} ReLU atoms")
    print(f"variation-norm bounds: B_l21={var_bound_l21(head):.4f}  "
          f"sqrtK*B_fro={var_bound_fro(head):.4f}  B_amgm={amgm_bound(net):.4f}")

    true = data.labels.class_ids[te]
    gated_acc = np.mean(predict_batch(head, X[te], "gated").argmax(axis=1) == true)
    relu_acc = np.mean(predict_batch(head, X[te], "relu").argmax(axis=1) == true)
    certs = certify_batch(head, X[te], true)
    radii, certified = certs.radius_feature, certs.certified
    print(f"\nheld-out set: {true.size} points")
    print(f"gated accuracy {gated_acc:.3f} | relu accuracy {relu_acc:.3f} "
          f"(certificates describe relu-mode inference only)")
    print(f"certified: {certified.mean():.1%}, median radius {np.median(radii):.4f}, "
          f"median certified radius {np.median(radii[certified]):.4f}")

    rng = np.random.default_rng(args.seed)
    attacked = flips = 0
    for idx in np.flatnonzero(certified)[:20]:
        deltas = rng.standard_normal((args.trials, head.d))
        deltas *= (0.99 * radii[idx]) / np.linalg.norm(deltas, axis=1, keepdims=True)
        preds = predict_batch(head, X[te[idx]] + deltas, "relu").argmax(axis=1)
        attacked += 1
        flips += int(np.sum(preds != certs.pred[idx]))
    print(f"random attack at 0.99x certified radius: {attacked} points x "
          f"{args.trials} trials -> {flips} flips")
    return 0 if flips == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
