"""Print one sha256 over the outputs of `Pipeline.fit`, to show that a change
keeps the estimator bitwise.

Run from the repository root, on two checkouts, and compare the lines:

    python tools/fit_digest.py

The digest covers ``k_hat`` and the density bytes of both methods, for
2 noises x 4 targets x n in {500, 2000, 10 000} x 6 replications (seed 7),
on the default frequency grid and x-grid.  One pipeline serves each noise,
as in the Monte-Carlo experiments.  Only the package's public names and
numpy are used, so the script runs on any commit that has
`Pipeline.fit(method, sample)`.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mellin_deconv as md  # noqa: E402

NOISES = ("noise_uniform", "noise_beta")
TARGETS = ("beta25", "loggamma", "gamma5", "lognormal")
SIZES = (500, 2000, 10_000)
REPLICATIONS = 6
SEED = 7
C = 1.0


def main() -> None:
    digest = hashlib.sha256()
    fits = 0
    for noise in NOISES:
        pipeline = md.Pipeline(
            md.catalog_mellin(noise, C),
            md.table1_selection_config(noise, C),
            md.QuadratureConfig(),
            md.default_x_grid(),
        )
        for target in TARGETS:
            for n in SIZES:
                for rep in range(REPLICATIONS):
                    key = ("fit_digest", target, noise, n, rep)
                    x = md.sample(md.density_spec(target), n,
                                  md.RngStream(SEED, md.stream_id_for("x", *key)))
                    u = md.RngStream(SEED, md.stream_id_for("u", *key))
                    em = md.EmpiricalMellin(C, md.contaminate(x, md.density_spec(noise), u))
                    for method in ("ridge", "cutoff"):
                        result, estimate = pipeline.fit(method, em)
                        digest.update(f"{method} {result.k_hat};".encode())
                        digest.update(estimate.values.tobytes())
                        fits += 1
    print(f"{digest.hexdigest()}  {fits} fits")


if __name__ == "__main__":
    main()
