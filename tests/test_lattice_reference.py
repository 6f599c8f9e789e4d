"""An arbitrary-precision reference for every coefficient of the lattice table.

On the lattice kind the coefficient of a row k factors as
C(k) = G(w1, w2) mu(t1, m1) mu(t2, m2), with the ambient coordinates
(w1, m1, m2) and (w2, t1, t2) of :func:`point_parts`:

* G = exp(-(pi/2) |T w1 + w2|^2 / Im T), the Gaussian factor;
* mu(t, m) = sum over n of e^{-(pi / theta2) (n^2 + (n + m)^2)}
  cos(pi (2n + m) t), with theta2 the inverse of the structure's lattice
  decay, the mode factor of one discrete axis. This is the defining series
  e^{-pi m^2 / theta2 - i pi m t} jtheta(3, pi (-t + i m / theta2),
  e^{-2 pi / theta2}) with its terms n and -(n + m) paired; the reference
  sums it directly, since ``mpmath.jtheta`` at that argument loses about 30
  digits when m / theta2 is large.

The reference evaluates both in mpmath from the package's floats (the
coordinates, T and the decay), read as exact binary numbers, so it checks
everything the table computes after :func:`point_parts`; the validate check
``element-linearity`` covers :func:`point_parts` itself. G runs once per
distinct (w1, w2), mu once per distinct (t, m) and their product once per
distinct (t1, m1, t2, m2). A row is resolved when both its factors agree at
two precisions; its reference, the product of the two factors rounded to
double, must then match the table to TABLE_REL relative.
"""

import mpmath
import numpy as np

from nctheta.embedding import point_parts
from nctheta.qtheta import quantum_theta_series

PRECISIONS = (30, 40)  # decimal digits
RESOLVED_REL = 1e-25  # agreement between the two precisions
TABLE_REL = 1e-12


def _gaussian(tee, w1, w2):
    z = tee * w1 + w2
    return mpmath.exp(-mpmath.pi / 2 * abs(z) ** 2 / tee.imag)


def _mode(t, m, theta2):
    # n^2 + (n + m)^2 = 2 j^2 + m^2 / 2 with j = n + m/2, so past |j| = reach
    # a term is below 10^-dps of the largest
    reach = int(mpmath.sqrt(mpmath.mp.dps * mpmath.log(10) * theta2 / (2 * mpmath.pi))) + 2
    m, t = int(m), mpmath.mpf(t)
    return mpmath.fsum(mpmath.exp(-mpmath.pi / theta2 * (n * n + (n + m) ** 2))
                       * mpmath.cos(mpmath.pi * (2 * n + m) * t)
                       for n in range(-m // 2 - reach, -m // 2 + reach + 1))


def reference_factors(series, dps):
    """G and P = mu(t1, m1) mu(t2, m2) of a lattice series at dps digits: the
    keys (w1, w2) and (t1, m1, t2, m2) of each row, and the value of each
    distinct key."""
    (w1, m1, m2), (w2, t1, t2) = (part.T.tolist() for part in point_parts(
        series.embedding, series.indices))
    keys = list(zip(w1, w2)), list(zip(t1, m1, t2, m2))
    with mpmath.workdps(dps):
        tee = mpmath.mpc(complex(series.structure.T[0, 0]))
        theta2 = 1 / mpmath.mpf(series.structure.lattice_decay)
        gauss = {key: _gaussian(tee, *key) for key in set(keys[0])}
        axes = {key[i:i + 2] for key in set(keys[1]) for i in (0, 2)}
        mode = {axis: _mode(*axis, theta2) for axis in axes}
        modes = {key: mode[key[:2]] * mode[key[2:]] for key in set(keys[1])}
    return keys, (gauss, modes)


def test_canonical_lattice_table_matches_the_reference(lattice_config):
    emb = lattice_config.build_embedding()
    series = quantum_theta_series(emb, lattice_config.build_structure(emb), radius=4)
    (keys, low), (_, high) = (reference_factors(series, dps) for dps in PRECISIONS)
    with mpmath.workdps(max(PRECISIONS)):
        unresolved = {key for lows, highs in zip(low, high) for key, value in highs.items()
                      if not abs(lows[key] - value) <= RESOLVED_REL * abs(value)}
    rows = [tuple(k) for k, *row_keys in zip(series.indices.tolist(), *keys)
            if unresolved.intersection(row_keys)]
    assert not rows, f"{len(rows)} rows unresolved, first {rows[:5]}"
    ref = np.ones(len(series.values), dtype=complex)
    for row_keys, values in zip(keys, high):
        factor = {key: complex(value) for key, value in values.items()}
        ref *= [factor[key] for key in row_keys]
    assert len(ref) == 9 ** 4
    rel = np.abs(series.values - ref) / np.abs(ref)
    worst = int(np.argmax(rel))
    assert rel[worst] <= TABLE_REL, (series.indices[worst].tolist(), rel[worst])
