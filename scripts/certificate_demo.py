"""End-to-end certificate demonstration on a max-cut instance.

Builds the cycle C_n max-cut polynomial, computes brute-force, inner and
outer values, then emits and verifies an explicit weighted sum-of-squares
identity for f - f_min + delta. Exits 1, naming the failed check, if the
outer Gram matrix or the certificate does not verify.

Usage: python scripts/certificate_demo.py [--n 8] [--r 4]
"""

import argparse
import sys

import numpy as np

from cubesos.cube_fourier import brute_force_min
from cubesos.inner_hierarchy import inner_cube
from cubesos.instances import maxcut_instance
from cubesos.kernel_certifier import RESIDUAL_TOL, certify
from cubesos.outer_hierarchy import outer_cube, verify_sos_certificate


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--r", type=int, default=4)
    args = ap.parse_args()

    n, r = args.n, args.r
    W = np.zeros((n, n))
    for i in range(n):
        W[i, (i + 1) % n] = W[(i + 1) % n, i] = 1.0
    f = maxcut_instance(W)

    fmin, argmin = brute_force_min(f)
    print(f"cycle C_{n}: f_min = {fmin} at {''.join(map(str, argmin))}")

    res = outer_cube(f, r)
    ver = verify_sos_certificate(res, f)
    print(f"outer value at r={r}: {res.value:.9f} "
          f"(Gram residual {ver.max_residual:.2e}, PSD: {ver.psd})")
    print(f"inner value at r={r}: {inner_cube(f, r).value:.9f}")

    cert = certify(f, r, tight=True)
    check = cert.verify(f)
    print(f"certificate: delta = {cert.delta_original:.6f}, "
          f"residual = {check['max_residual']:.2e}, "
          f"min weight = {check['min_weight']:.2e}")
    print(f"hence the order-{r} bound is >= {fmin - cert.delta_original:.6f}")

    failed = [name for name, ok in [
        ("outer Gram certificate", ver.ok),
        ("certificate residual", check["max_residual"] <= RESIDUAL_TOL),
        ("certificate weights", check["min_weight"] >= 0.0),
    ] if not ok]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
