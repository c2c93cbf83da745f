"""Agreement statistics between paired measurement series.

Bland-Altman bias and spread use the sample (n-1) standard deviation with
limits at exactly +/-2 SD. Correlation is the standard product-moment
coefficient. R squared is the squared correlation, which for one predictor
equals the coefficient of determination of the least-squares line.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StatsError

FIELD_COLUMNS = {
    "E": "e_mps",
    "A": "a_mps",
    "EA": "ea_ratio",
    "DT": "dt_ms",
}

AGREEMENT_CSV_HEADER = "field,n,bias,sd,loa_low,loa_high,pearson_r,r_squared"


@dataclass(frozen=True)
class AgreementStats:
    n: int
    bias: float
    sd: float
    loa_low: float
    loa_high: float
    pearson_r: float
    r_squared: float


def _paired(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise StatsError("series must be one-dimensional")
    if len(a) != len(b):
        raise StatsError(f"series lengths differ: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise StatsError(f"need at least 2 pairs, got {len(a)}")
    return a, b


def bland_altman(a, b):
    """(bias, sd, loa_low, loa_high) of the paired differences a - b."""
    a, b = _paired(a, b)
    diffs = a - b
    bias = float(np.mean(diffs))
    sd = float(np.std(diffs, ddof=1))
    return bias, sd, bias - 2.0 * sd, bias + 2.0 * sd


def pearson(a, b) -> float:
    """Product-moment correlation; errors on a zero-variance series."""
    a, b = _paired(a, b)
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt(np.sum(da * da) * np.sum(db * db))
    # a constant series can leave residues of 1e-16 in a - a.mean(), so
    # its values are compared, not only its deviations
    if denom == 0 or a.min() == a.max() or b.min() == b.max():
        raise StatsError("correlation undefined: a series has zero variance")
    return float(np.sum(da * db) / denom)


def r_squared(a, b) -> float:
    """Coefficient of determination of the least-squares line through the
    pairs: for one predictor, the squared correlation."""
    return pearson(a, b) ** 2


def compare(a_by_key, b_by_key):
    """AgreementStats of two {key: value} series, paired by key.

    Keys missing on either side are dropped.
    """
    common = sorted(set(a_by_key) & set(b_by_key))
    if not common:
        raise StatsError("no overlapping keys between the two series")
    a = np.array([a_by_key[k] for k in common], dtype=np.float64)
    b = np.array([b_by_key[k] for k in common], dtype=np.float64)
    if len(common) < 2:
        raise StatsError(f"need at least 2 overlapping keys, got {len(common)}")
    bias, sd, lo, hi = bland_altman(a, b)
    r = pearson(a, b)
    return AgreementStats(
        n=len(common),
        bias=bias,
        sd=sd,
        loa_low=lo,
        loa_high=hi,
        pearson_r=r,
        r_squared=r ** 2,
    )


def agreement_csv_text(rows) -> str:
    """rows: iterable of (field_name, AgreementStats)."""
    lines = [AGREEMENT_CSV_HEADER]
    for name, s in rows:
        lines.append(
            f"{name},{s.n},{s.bias:.6f},{s.sd:.6f},{s.loa_low:.6f},{s.loa_high:.6f},"
            f"{s.pearson_r:.6f},{s.r_squared:.6f}"
        )
    return "\n".join(lines) + "\n"
