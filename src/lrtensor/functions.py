"""Registry of test functions with known smoothness and spectra.

Each entry is a deterministic, bounded function on the unit box. The ids
are the stable names used by CLI configs; each entry lists the `params`
its evaluator reads, and no others are accepted. Evaluators are
vectorized over broadcastable coordinate arrays, one array per scalar axis.

Each entry's one layout sets its subdomain dims and weights: `any` takes
any dims (default m scalar ones, m = 2), `pair` is dims (1, 1), `kernel` is
two equal subdomains of dimension `n` (default 1), and `weighted` is m
scalar subdomains with weights gamma (default `default_gamma` of `k` and
`delta_prime`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

ANALYTIC = "analytic"


class UnknownFunctionError(KeyError):
    """Function id not present in the registry."""


def subdomain_dims(dims) -> tuple:
    """`dims` as a tuple of ints: at least one subdomain, each of dimension >= 1."""
    dims = tuple(int(n) for n in dims)
    if not dims:
        raise ValueError("dims must list at least one subdomain")
    if any(n < 1 for n in dims):
        raise ValueError(f"subdomain dimensions must be >= 1, got {dims}")
    return dims


@dataclass(frozen=True)
class FunctionSpec:
    """A registered test function bound to a concrete domain layout."""

    id: str
    dims: tuple
    smoothness_k: object
    gamma: Optional[tuple] = None
    parameters: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "dims", subdomain_dims(self.dims))
        if self.gamma is not None:
            object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        object.__setattr__(self, "parameters", tuple(sorted(dict(self.parameters).items())))

    @property
    def params(self) -> dict:
        return dict(self.parameters)


def default_gamma(m: int, k: float = 1.0, delta_prime: float = 2.0) -> tuple:
    """Algebraically decaying weights j^(-(1+delta')/k)."""
    return tuple(float(j) ** (-(1.0 + delta_prime) / k) for j in range(1, m + 1))


def _eval_rank_one(spec, coords):
    out = 1.0
    for c in coords:
        out = out * np.sin(np.pi * c)
    return out


def _eval_brownian_bridge(spec, coords):
    x, y = coords
    return np.minimum(x, y) - x * y


def _eval_weighted_product(spec, coords):
    gamma = spec.gamma
    out = 1.0
    for j, c in enumerate(coords):
        out = out * (1.0 + gamma[j] * np.sin(np.pi * c))
    return out


def _eval_gauss_kernel(spec, coords):
    n = spec.dims[0]
    c = spec.params.get("c", 1.0)
    # Squared where computed; the sum (the one full-size array, 0-d for scalars) is then updated in place.
    squares = [np.square(d, out=d) for d in (np.asarray(coords[i] - coords[n + i]) for i in range(n))]
    sq = np.asarray(sum(squares[1:], squares[0]))
    np.multiply(sq, -c, out=sq)
    return np.exp(sq, out=sq)


def _eval_abs_diff(spec, coords):
    x, y = coords
    return np.abs(x - y)


def _eval_weighted_exp(spec, coords):
    gamma = spec.gamma
    out = 0.0
    for j, c in enumerate(coords):
        out = out + gamma[j] * c
    return np.exp(out)


class _Entry(NamedTuple):
    """A registered function: its evaluator, smoothness order, layout (see above) and the params it reads."""

    evaluator: Callable
    smoothness_k: object
    layout: str
    params: tuple = ()


_REGISTRY: Dict[str, _Entry] = {
    "rank_one": _Entry(_eval_rank_one, ANALYTIC, "any"),
    "brownian_bridge": _Entry(_eval_brownian_bridge, 1.5, "pair"),
    "weighted_product": _Entry(_eval_weighted_product, ANALYTIC, "weighted", ("k", "delta_prime")),
    "gauss_kernel": _Entry(_eval_gauss_kernel, ANALYTIC, "kernel", ("n", "c")),
    "abs_diff": _Entry(_eval_abs_diff, 1.5, "pair"),
    "weighted_exp": _Entry(_eval_weighted_exp, ANALYTIC, "weighted", ("k", "delta_prime")),
}


def registered_ids() -> tuple:
    return tuple(sorted(_REGISTRY))


def make_function(
    fn_id: str,
    dims=None,
    m: Optional[int] = None,
    gamma=None,
    **parameters,
) -> FunctionSpec:
    """Build a FunctionSpec, filling in defaults per its entry's layout; a field it leaves unread is an error."""
    try:
        entry = _REGISTRY[fn_id]
    except KeyError:
        raise UnknownFunctionError(
            f"unknown function id {fn_id!r}; known: {registered_ids()}"
        ) from None
    unknown = sorted(set(parameters) - set(entry.params))
    if unknown:
        raise ValueError(f"{fn_id} takes no parameters {unknown}")
    layout = entry.layout
    # A field given where this entry would not read it is an error, not ignored.
    unread = {"m": dims is not None or layout in ("pair", "kernel"), "n": dims is not None,
              "gamma": layout != "weighted", "k": gamma is not None, "delta_prime": gamma is not None}
    ignored = sorted(f for f, v in {"m": m, "gamma": gamma, **parameters}.items() if v is not None and unread.get(f))
    if ignored:
        raise ValueError(f"{fn_id} does not read {ignored} with the other fields given")
    if dims is None and layout == "kernel":
        n = parameters.pop("n", 1)
        if n != int(n):
            raise ValueError(f"{fn_id} needs an integer n, got {n!r}")
        dims = (n, n)
    elif dims is None:
        dims = (1, 1) if layout == "pair" else (1,) * (m if m is not None else 2)
    dims = tuple(int(n) for n in dims)
    if layout == "pair" and dims != (1, 1):
        raise ValueError(f"{fn_id} is defined on dims (1, 1)")
    if layout == "kernel" and (len(dims) != 2 or dims[0] != dims[1]):
        raise ValueError(f"{fn_id} needs two subdomains of equal dimension")
    if layout == "weighted":
        if any(n != 1 for n in dims):
            raise ValueError(f"{fn_id} is defined on one-dimensional subdomains")
        if gamma is None:
            gamma = default_gamma(
                len(dims),
                k=parameters.get("k", 1.0),
                delta_prime=parameters.get("delta_prime", 2.0),
            )
        if len(gamma) != len(dims):
            raise ValueError("gamma must supply one weight per subdomain")
    return FunctionSpec(
        id=fn_id,
        dims=dims,
        smoothness_k=entry.smoothness_k,
        gamma=gamma,
        parameters=tuple(parameters.items()),
    )


def vectorized_evaluator(spec: FunctionSpec) -> Callable:
    """Evaluator over broadcastable coordinate arrays (one per axis)."""
    entry = _REGISTRY.get(spec.id)
    if entry is None:
        raise UnknownFunctionError(f"unknown function id {spec.id!r}")
    evaluator = entry.evaluator

    def call(coords):
        if len(coords) != sum(spec.dims):
            raise ValueError(
                f"{spec.id} expects {sum(spec.dims)} coordinates, got {len(coords)}"
            )
        return evaluator(spec, coords)

    return call

