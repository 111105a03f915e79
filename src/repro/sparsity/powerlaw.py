"""Power-law activation frequency synthesis (paper Insight-1, Figure 5).

The paper reports that neuron activation follows a skewed power law: in a
single MLP layer, 26% (OPT-30B) / 43% (LLaMA-ReGLU-70B) of neurons account
for 80% of all activations, and roughly 10% of MLP neurons fire per token.
This module synthesizes per-neuron activation probabilities matching any
such (hot_fraction -> hot_mass) target:

1. Draw a bounded-Zipf frequency profile ``f_i ~ i^-alpha`` and solve for
   ``alpha`` so the top ``hot_fraction`` of neurons carries ``hot_mass`` of
   the total frequency (bisection on the monotone top-share function).
2. Scale frequencies so the mean activation probability equals the target
   per-token activation rate, clipping at 1.  The clipped mean is
   piecewise linear in the scale, so one sort and one cumulative sum give
   the root in closed form; a short search over neighbouring floats then
   returns the smallest scale whose floating-point mean reaches the rate.

The synthesized probabilities drive the activation sampler, the profiler's
synthetic traces, and — through :func:`repro.models.weights.init_weights` —
the biases of the numpy models, so the numerical substrate exhibits the same
distribution *mechanically* through its ReLUs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "zipf_weights",
    "fit_zipf_alpha",
    "top_share",
    "synthesize_activation_probs",
    "activation_cdf",
    "neuron_fraction_for_mass",
]


def zipf_weights(n: int, alpha: float) -> np.ndarray:
    """Unnormalized Zipf weights ``(i+1)^-alpha`` for ``n`` ranks."""
    if n <= 0:
        raise ValueError("n must be positive")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return ranks**-alpha


def top_share(weights: np.ndarray, fraction: float) -> float:
    """Share of total mass held by the largest ``fraction`` of entries."""
    return _descending_top_share(np.sort(weights)[::-1], fraction)


def _descending_top_share(ordered: np.ndarray, fraction: float) -> float:
    """:func:`top_share` of entries already sorted in descending order."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if ordered.size == 0:
        raise ValueError("weights must be non-empty")
    k = max(1, int(round(fraction * ordered.size)))
    total = ordered.sum()
    if total <= 0:
        raise ValueError("weights must have positive mass")
    return float(ordered[:k].sum() / total)


def fit_zipf_alpha(
    n: int,
    hot_fraction: float,
    hot_mass: float,
    tol: float = 1e-4,
    max_iter: int = 100,
) -> float:
    """Solve for the Zipf exponent giving ``top_share(hot_fraction) = hot_mass``.

    The top share is monotonically increasing in ``alpha`` (alpha=0 is
    uniform, giving share == fraction), so bisection converges.

    Raises:
        ValueError: If ``hot_mass < hot_fraction`` (impossible: the top k
            items always hold at least a proportional share).
    """
    if not 0.0 < hot_fraction < 1.0:
        raise ValueError("hot_fraction must be in (0, 1)")
    if not 0.0 < hot_mass < 1.0:
        raise ValueError("hot_mass must be in (0, 1)")
    if hot_mass < hot_fraction:
        raise ValueError(
            "hot_mass must be >= hot_fraction (top items hold at least a "
            "proportional share of a sorted distribution)"
        )
    lo, hi = 0.0, 8.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        share = top_share(zipf_weights(n, mid), hot_fraction)
        if abs(share - hot_mass) < tol:
            return mid
        if share < hot_mass:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_MAX_FINITE_BITS = int(np.array(np.finfo(np.float64).max).view(np.int64))


def _scale_for_mean(weights: np.ndarray, ascending: np.ndarray, rate: float) -> float:
    """Smallest float ``s`` with ``mean(minimum(s * weights, 1)) >= rate``.

    ``ascending`` is ``np.sort(weights)``.  With the ``k`` largest weights
    clipped at 1, the clipped mean is ``(k + s * tail_k) / n``, where
    ``tail_k`` sums the other ``n - k`` weights, so the cumulative sum of
    ``ascending`` gives the root in closed form.  The floating-point mean
    rounds differently from that formula, so the root only seeds a
    gallop-then-bisect search over float64 bit patterns (ordered like the
    floats they encode for non-negative values).  The predicate is monotone
    in ``s``, so the search returns the one smallest float that reaches the
    rate.

    Raises:
        ValueError: If no finite scale reaches ``rate``.
    """
    n = ascending.size
    head = np.cumsum(ascending)  # head[i]: mass of the i + 1 smallest weights

    def reaches(bits: int) -> bool:
        scale = np.array(bits, dtype=np.int64).view(np.float64)
        return float(np.minimum(scale * weights, 1.0).mean()) >= rate

    # At s = 1 / ascending[i] the entries from i up are clipped; the mean
    # there, times n * ascending[i], is the left side below.  Entries whose
    # breakpoint mean is still short of the rate are clipped at the root.
    at_breaks = (n - np.arange(n)) * ascending + head - ascending
    k = int(np.count_nonzero(at_breaks < n * rate * ascending))
    tail = head[n - k - 1] if k < n else 0.0  # mass of the n - k unclipped weights
    if tail <= 0.0:
        raise ValueError("cannot reach the requested activation rate")
    root = (n * rate - k) / tail
    bits = int(np.clip(np.array(root).view(np.int64), 0, _MAX_FINITE_BITS))

    step = 1
    if reaches(bits):
        hi, lo = bits, bits - 1
        while lo >= 0 and reaches(lo):
            hi, step = lo, 2 * step
            lo = hi - step
        lo = max(lo, -1)  # -1 stands for "below +0.0"; it is never evaluated
    else:
        lo, hi = bits, min(bits + 1, _MAX_FINITE_BITS)
        while not reaches(hi):
            if hi == _MAX_FINITE_BITS:
                raise ValueError("cannot reach the requested activation rate")
            lo, step = hi, 2 * step
            hi = min(lo + step, _MAX_FINITE_BITS)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return float(np.array(hi, dtype=np.int64).view(np.float64))


def synthesize_activation_probs(
    n_neurons: int,
    rng: np.random.Generator,
    hot_fraction: float = 0.26,
    hot_mass: float = 0.80,
    mean_activation_rate: float = 0.10,
    shuffle: bool = True,
    jitter: float = 0.05,
) -> np.ndarray:
    """Per-neuron activation probabilities matching a paper-style power law.

    Calibration happens on the final distribution: the Zipf exponent is
    chosen by bisection so that *after* scaling to the target mean rate and
    clipping at probability 1, the hottest ``hot_fraction`` of neurons still
    carries ``hot_mass`` of the total activation mass.

    Args:
        n_neurons: Neuron count (e.g. ``d_ffn`` for an MLP layer).
        rng: Seeded generator for shuffling and jitter.
        hot_fraction: Fraction of neurons that should carry ``hot_mass``.
        hot_mass: Activation mass the hot set carries (paper: 0.80).
        mean_activation_rate: Average per-token activation probability
            (paper: ~0.10 for OPT MLP layers).
        shuffle: Randomly permute neuron ranks (real layers are not sorted).
        jitter: Multiplicative log-normal noise on each probability.

    Returns:
        Array of shape ``(n_neurons,)`` with values in (0, 1].
    """
    if not 0.0 < mean_activation_rate < 1.0:
        raise ValueError("mean_activation_rate must be in (0, 1)")
    if hot_mass < hot_fraction:
        raise ValueError("hot_mass must be >= hot_fraction")
    # Feasibility: the hot set must be able to carry hot_mass of the total
    # mass (n * rate) without any probability exceeding 1.
    if mean_activation_rate * hot_mass > hot_fraction:
        raise ValueError(
            f"infeasible target: mean rate {mean_activation_rate} with "
            f"{hot_fraction:.0%} of neurons carrying {hot_mass:.0%} of mass "
            f"requires per-neuron probabilities above 1 "
            f"(rate must be <= hot_fraction / hot_mass = "
            f"{hot_fraction / hot_mass:.3f})"
        )
    noise = (
        np.exp(rng.normal(0.0, jitter, size=n_neurons)) if jitter > 0 else 1.0
    )

    def share_for_alpha(alpha: float) -> tuple[float, np.ndarray]:
        weights = zipf_weights(n_neurons, alpha) * noise
        ascending = np.sort(weights)
        scale = _scale_for_mean(weights, ascending, mean_activation_rate)
        # Scaling and clipping keep the order, so this is np.sort(probs)[::-1].
        ordered = np.minimum(scale * ascending, 1.0)[::-1]
        return _descending_top_share(ordered, hot_fraction), np.minimum(scale * weights, 1.0)

    lo, hi = 0.0, 12.0
    probs = None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        share, probs = share_for_alpha(mid)
        if abs(share - hot_mass) < 1e-4:
            break
        if share < hot_mass:
            lo = mid
        else:
            hi = mid
    assert probs is not None
    probs = np.clip(probs, 1e-6, 1.0)
    if shuffle:
        rng.shuffle(probs)
    return probs


def activation_cdf(frequencies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CDF of activation mass vs. neuron proportion (paper Figure 5 axes).

    Returns ``(neuron_proportion, cumulative_activation_share)`` with
    neurons sorted by descending frequency.
    """
    if frequencies.size == 0:
        raise ValueError("frequencies must be non-empty")
    ordered = np.sort(np.asarray(frequencies, dtype=np.float64))[::-1]
    total = ordered.sum()
    if total <= 0:
        raise ValueError("frequencies must have positive mass")
    cum = np.cumsum(ordered) / total
    proportion = np.arange(1, ordered.size + 1) / ordered.size
    return proportion, cum


def neuron_fraction_for_mass(frequencies: np.ndarray, mass: float) -> float:
    """Smallest neuron fraction whose activations cover ``mass`` of the total.

    This is the statistic of Figure 5 ("26% of neurons account for 80% of
    activations" -> returns 0.26 for mass=0.80).
    """
    if not 0.0 < mass <= 1.0:
        raise ValueError("mass must be in (0, 1]")
    proportion, cum = activation_cdf(frequencies)
    idx = int(np.searchsorted(cum, mass))
    idx = min(idx, proportion.size - 1)
    return float(proportion[idx])
