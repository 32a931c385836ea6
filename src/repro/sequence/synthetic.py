"""Synthetic databases with controlled length distributions.

The paper's experiments are driven entirely by the *distribution of sequence
lengths* (Figures 2, 3, 5, 6; Table II's "% over threshold" column), so real
databases are substituted by log-normal synthetic ones — the paper itself
notes that "the distribution of sequence lengths in a typical protein
database, such as Swissprot, resembles a log-normal distribution" and uses
log-normal databases for its own Figure 2.

Two parameterizations are provided:

* :func:`lognormal_lengths` — by arithmetic mean and standard deviation
  (Figure 2 sweeps the standard deviation between 100 and 2700);
* :class:`DatabaseProfile` — by median length and tail mass over the
  dispatch threshold, fitted with :func:`fit_lognormal_sigma`; the six
  profiles of the paper's Table II are predefined in
  :data:`PAPER_DATABASES`.

``scipy.stats`` is imported by the functions that evaluate the normal
quantiles, not at module import: ``repro.sequence`` loads this module
eagerly, and a cold ``repro search`` never draws a synthetic database.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.alphabet import PROTEIN, Alphabet
from repro.sequence.database import Database
from repro.sequence.frequencies import SWISSPROT_AA_FREQUENCIES
from repro.sequence.sequence import Sequence

__all__ = [
    "random_protein",
    "lognormal_lengths",
    "lognormal_database",
    "fit_lognormal_sigma",
    "DatabaseProfile",
    "PAPER_DATABASES",
    "SWISSPROT_PROFILE",
    "CUDASW_QUERY_LENGTHS",
]

#: Query-sequence lengths of the original CUDASW++ study (144..5478
#: residues), used for Figure 7 and Table II.
CUDASW_QUERY_LENGTHS = (
    144, 189, 222, 375, 464, 567, 657, 729, 850, 1000,
    1500, 2005, 2504, 3005, 3564, 4061, 4548, 4743, 5147, 5478,
)

_MIN_LENGTH = 10  # shorter "proteins" are not meaningful workloads


def random_protein(
    length: int,
    rng: np.random.Generator,
    *,
    id: str = "query",
    alphabet: Alphabet = PROTEIN,
) -> Sequence:
    """A random protein sequence drawn from Swiss-Prot residue frequencies."""
    freq = SWISSPROT_AA_FREQUENCIES if alphabet is PROTEIN else None
    return Sequence.random(id, length, rng, alphabet, frequencies=freq)


def _mean_std_to_mu_sigma(mean: float, std: float) -> tuple[float, float]:
    """Convert arithmetic mean/std of a log-normal to its (mu, sigma)."""
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    if std <= 0:
        raise ValueError(f"std must be positive, got {std}")
    sigma2 = math.log1p((std / mean) ** 2)
    mu = math.log(mean) - sigma2 / 2.0
    return mu, math.sqrt(sigma2)


def lognormal_lengths(
    n: int,
    mean: float,
    std: float,
    rng: np.random.Generator,
    *,
    stratified: bool = False,
) -> np.ndarray:
    """Draw ``n`` log-normal sequence lengths with given arithmetic mean/std.

    Parameters
    ----------
    stratified:
        When true, lengths are taken at evenly spaced quantiles of the
        distribution (then shuffled) instead of sampled i.i.d.  This pins
        the empirical distribution to the target — in particular the tail
        fraction over a threshold — which keeps small-scale experiment runs
        reproducible and faithful.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    mu, sigma = _mean_std_to_mu_sigma(mean, std)
    if stratified:
        from scipy import stats

        probs = (np.arange(n) + 0.5) / n
        raw = np.exp(mu + sigma * stats.norm.ppf(probs))
        rng.shuffle(raw)
    else:
        raw = rng.lognormal(mean=mu, sigma=sigma, size=n)
    return np.maximum(np.rint(raw).astype(np.int64), _MIN_LENGTH)


def _materialize(
    lengths: np.ndarray,
    rng: np.random.Generator,
    alphabet: Alphabet,
    name: str,
) -> Database:
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    freq = SWISSPROT_AA_FREQUENCIES if alphabet is PROTEIN else None
    codes = alphabet.random_codes(int(offsets[-1]), rng, frequencies=freq)
    return Database(lengths, codes, offsets, None, alphabet, name)


def lognormal_database(
    n: int,
    mean: float,
    std: float,
    rng: np.random.Generator,
    *,
    materialize: bool = True,
    stratified: bool = False,
    alphabet: Alphabet = PROTEIN,
    name: str | None = None,
) -> Database:
    """A synthetic database with log-normal lengths.

    ``materialize=False`` produces a lengths-only database for the analytic
    performance experiments.
    """
    lengths = lognormal_lengths(n, mean, std, rng, stratified=stratified)
    name = name or f"lognormal(n={n},mean={mean:g},std={std:g})"
    if not materialize:
        return Database.from_lengths(lengths, alphabet, name)
    return _materialize(lengths, rng, alphabet, name)


def _check_tail_fit(median: float, threshold: int, frac_over: float) -> None:
    """Reject tail constraints :func:`fit_lognormal_sigma` cannot fit."""
    if median <= 0:
        raise ValueError(f"median must be positive, got {median}")
    if threshold <= median:
        raise ValueError(
            f"threshold ({threshold}) must exceed the median ({median})"
        )
    if not 0 < frac_over < 0.5:
        raise ValueError(f"frac_over must be in (0, 0.5), got {frac_over}")


def fit_lognormal_sigma(median: float, threshold: int, frac_over: float) -> float:
    """Solve for the log-normal sigma hitting a tail constraint.

    Finds ``sigma`` such that a log-normal with median ``median`` satisfies
    ``P(L >= threshold) == frac_over``.
    """
    _check_tail_fit(median, threshold, frac_over)
    from scipy import stats

    z = stats.norm.ppf(1.0 - frac_over)
    return float((math.log(threshold) - math.log(median)) / z)


@dataclass(frozen=True)
class DatabaseProfile:
    """A database described by count, median length and dispatch-tail mass.

    The six profiles in :data:`PAPER_DATABASES` substitute the real
    databases of the paper's Table II.  The paper reports the fraction of
    sequences over the default threshold (3072) per database; sequence
    counts and medians are representative values for the 2010-era releases
    (documented in DESIGN.md — only the tail fraction enters the results).

    Real protein databases have a heavier extreme tail than a fitted
    log-normal: Swiss-Prot's longest entries (titin and friends) run to
    ~35,000 residues.  ``heavy_fraction`` of all sequences are therefore
    drawn uniformly from ``heavy_range`` instead of the log-normal; they
    count toward ``frac_over_threshold`` (the log-normal component is
    fitted to the remaining tail mass), and they are what gives the
    intra-task kernel its realistic share of the residue workload.
    """

    name: str
    n_sequences: int
    median_length: float
    frac_over_threshold: float
    threshold: int = 3072
    heavy_fraction: float = 0.0
    heavy_range: tuple[int, int] = (8000, 35000)

    def __post_init__(self) -> None:
        if self.n_sequences <= 0:
            raise ValueError("n_sequences must be positive")
        if not 0 <= self.heavy_fraction < self.frac_over_threshold:
            if self.heavy_fraction != 0.0:
                raise ValueError(
                    "heavy_fraction must be a sub-share of frac_over_threshold"
                )
        if self.heavy_range[0] < self.threshold or (
            self.heavy_range[1] <= self.heavy_range[0]
        ):
            raise ValueError(
                "heavy_range must be an increasing range above the threshold"
            )
        # Validate the fit eagerly so broken profiles fail at construction;
        # the fit itself runs (and loads scipy) whenever ``sigma`` is read.
        _check_tail_fit(
            self.median_length, self.threshold, self._lognormal_tail_mass
        )

    @property
    def _lognormal_tail_mass(self) -> float:
        """Over-threshold mass carried by the log-normal component."""
        remaining = 1.0 - self.heavy_fraction
        return (self.frac_over_threshold - self.heavy_fraction) / remaining

    @property
    def mu(self) -> float:
        return math.log(self.median_length)

    @property
    def sigma(self) -> float:
        return fit_lognormal_sigma(
            self.median_length, self.threshold, self._lognormal_tail_mass
        )

    @property
    def mean_length(self) -> float:
        """Arithmetic mean of the fitted log-normal."""
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def expected_fraction_over(self, threshold: int) -> float:
        """Model tail mass ``P(L >= threshold)`` for an arbitrary threshold."""
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        from scipy import stats

        z = (math.log(threshold) - self.mu) / self.sigma
        lognormal_part = float(stats.norm.sf(z)) * (1.0 - self.heavy_fraction)
        lo, hi = self.heavy_range
        if threshold <= lo:
            heavy_part = self.heavy_fraction
        elif threshold >= hi:
            heavy_part = 0.0
        else:
            heavy_part = self.heavy_fraction * (hi - threshold) / (hi - lo)
        return lognormal_part + heavy_part

    def sample_lengths(
        self,
        rng: np.random.Generator,
        *,
        scale: float = 1.0,
        stratified: bool = True,
    ) -> np.ndarray:
        """Draw lengths; ``scale`` shrinks the sequence count proportionally."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        n = max(int(round(self.n_sequences * scale)), 1)
        n_heavy = min(int(round(n * self.heavy_fraction)), n - 1)
        n_log = n - n_heavy
        lo, hi = self.heavy_range
        if stratified:
            from scipy import stats

            probs = (np.arange(n_log) + 0.5) / n_log
            raw = np.exp(self.mu + self.sigma * stats.norm.ppf(probs))
            if n_heavy:
                heavy_probs = (np.arange(n_heavy) + 0.5) / n_heavy
                raw = np.concatenate([raw, lo + heavy_probs * (hi - lo)])
            rng.shuffle(raw)
        else:
            raw = rng.lognormal(mean=self.mu, sigma=self.sigma, size=n_log)
            if n_heavy:
                raw = np.concatenate(
                    [raw, rng.uniform(lo, hi, size=n_heavy)]
                )
                rng.shuffle(raw)
        return np.maximum(np.rint(raw).astype(np.int64), _MIN_LENGTH)

    def build(
        self,
        rng: np.random.Generator,
        *,
        scale: float = 1.0,
        materialize: bool = False,
        stratified: bool = True,
    ) -> Database:
        """Generate a database following this profile."""
        lengths = self.sample_lengths(rng, scale=scale, stratified=stratified)
        name = self.name if scale == 1.0 else f"{self.name}(x{scale:g})"
        if not materialize:
            return Database.from_lengths(lengths, PROTEIN, name)
        return _materialize(lengths, rng, PROTEIN, name)


#: Fitted stand-ins for the six databases of the paper's Table II.  The
#: "% over threshold" column reproduces the paper exactly; counts/medians
#: are representative of the 2010-era releases, and ~15% of the
#: over-threshold mass sits in the uniform heavy tail (titin-class
#: entries; see :class:`DatabaseProfile`).
PAPER_DATABASES = (
    DatabaseProfile("Ensembl Dog Proteins", 25_160, 340.0, 0.0053,
                    heavy_fraction=0.0008),
    DatabaseProfile("Ensembl Rat Proteins", 32_971, 348.0, 0.0035,
                    heavy_fraction=0.0005),
    DatabaseProfile("NCBI RefSeq Human Proteins", 38_556, 390.0, 0.0056,
                    heavy_fraction=0.0008),
    DatabaseProfile("NCBI RefSeq Mouse Proteins", 29_906, 382.0, 0.0054,
                    heavy_fraction=0.0008),
    DatabaseProfile("TAIR Arabidopsis Proteins", 35_386, 250.0, 0.0006,
                    heavy_fraction=0.0001),
    DatabaseProfile("UniProtKB/Swiss-Prot", 516_081, 270.0, 0.0012,
                    heavy_fraction=0.0002),
)

#: The Swiss-Prot stand-in (0.12% of sequences over the default threshold).
SWISSPROT_PROFILE = PAPER_DATABASES[-1]
