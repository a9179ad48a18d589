"""Discretized flat weighted Minkowski spaces.

A space is a uniform tensor grid over a 1D or 2D flat domain, a single
Minkowski norm (constant across the domain), and a weight Psi sampled at
the nodes.  The reference measure assigns each node the cell mass

    m_i = exp(-(Psi(x_i) - min Psi)) * w_i,   sum_i m_i = 1 after normalization,

where the cell volume w_i is the product over the axes of the node's weight
and spacing on that axis (``Domain.axis_grid``; trapezoid lumping: weight 1/2
at the ends of a no-flux axis) and the minimum is over the nodes.  Shifting Psi
by a constant therefore leaves the space unchanged, at any size of the shift.
A Psi whose range over the grid makes some m_i underflow to 0 is rejected:
every node carries positive mass.

Scalar fields are flat arrays of shape (M,); vector and covector fields are
arrays of shape (M, dim), M the node count.  Grid, norm and measure never
change, and nothing else is stored on a space.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Union

import numpy as np

from .norms import MinkowskiNorm

__all__ = ["Domain", "WeightedSpace", "build_space", "integrate", "variance",
           "entropy_of_density", "fisher_information"]

MIN_RESOLUTION = 8

# geometry -> (periodic, dim)
_GEOMETRIES = {"interval": (False, 1), "circle": (True, 1), "box": (False, 2),
               "torus": (True, 2)}

# Namespace for Psi / initial-datum expressions evaluated on the grid.
_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh, "cosh": np.cosh,
    "sinh": np.sinh, "pi": np.pi, "e": np.e,
}
_OPERATORS = {ast.UAdd: operator.pos, ast.USub: operator.neg, ast.Add: operator.add,
              ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv,
              ast.Pow: operator.pow}


@dataclass(frozen=True)
class Domain:
    """Flat computational domain: geometry name, side lengths, nodes per axis.

    Geometries: ``interval`` / ``box`` are no-flux with vertex-centered nodes
    on [-L/2, L/2]; ``circle`` / ``torus`` are periodic on [0, L).  The space
    takes its nodes, h and cell volumes from each axis's ``axis_grid``.
    """

    geometry: str
    lengths: tuple
    resolution: tuple

    def __post_init__(self):
        if self.geometry not in _GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        lengths = tuple(float(L) for L in np.atleast_1d(self.lengths))
        resolution = tuple(int(r) for r in np.atleast_1d(self.resolution))
        dim = _GEOMETRIES[self.geometry][1]
        if len(lengths) != dim or len(resolution) != dim:
            raise ValueError(f"{self.geometry} needs {dim} length(s) and resolution(s)")
        if not all(0 < L < np.inf for L in lengths):
            raise ValueError("lengths must be finite and positive")
        if any(r < MIN_RESOLUTION for r in resolution):
            raise ValueError(f"resolution must be >= {MIN_RESOLUTION} per axis")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "resolution", resolution)

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def periodic(self) -> bool:
        return _GEOMETRIES[self.geometry][0]

    def axis_grid(self, axis: int) -> tuple:
        """(node coordinates, spacing h, cell weights) of one axis: from 0,
        h = L/n and weights 1 if periodic; from -L/2, h = L/(n-1) and weights
        1 but 1/2 at the two end nodes if no-flux."""
        L, n = self.lengths[axis], self.resolution[axis]
        weights = np.ones(n)
        if self.periodic:
            h = L / n
            return h * np.arange(n), h, weights
        h = L / (n - 1)
        weights[[0, -1]] = 0.5
        return -L / 2 + h * np.arange(n), h, weights


class WeightedSpace:
    """Grid + norm + normalized weighted measure; see module docstring."""

    def __init__(self, domain: Domain, norm: MinkowskiNorm, psi: np.ndarray):
        if norm.dim != domain.dim:
            raise ValueError(f"norm dimension {norm.dim} != domain dimension {domain.dim}")
        self.domain = domain
        self.norm = norm
        self.shape = domain.resolution
        self.n_nodes = int(np.prod(self.shape))

        psi = np.asarray(psi, dtype=float).reshape(self.n_nodes)
        if not np.all(np.isfinite(psi)):
            raise ValueError("Psi has non-finite values on the grid")
        self.psi = psi

        self.coords = _node_coords(domain)
        _, self.h, weights = zip(*map(domain.axis_grid, range(domain.dim)))
        cell = reduce(np.multiply.outer, weights) * float(np.prod(self.h))
        mass = np.exp(-(psi - psi.min())) * cell.reshape(-1)
        self.cell_mass = mass / mass.sum()
        if not np.all(self.cell_mass > 0):
            raise ValueError(f"the cell mass underflows to 0 at {np.sum(self.cell_mass == 0)} "
                             f"nodes: Psi spans {np.ptp(psi):.6g} over the grid")

    @property
    def dim(self) -> int:
        return self.domain.dim

    def field_from_expression(self, expr: str) -> np.ndarray:
        """Evaluate a closed-form expression of x (and y in 2D) at the nodes."""
        return _evaluate(expr, self.coords)

    def translates(self) -> np.ndarray:
        """Lattice translates to add to a displacement, shape (T, dim): each
        combination of -L, 0 and L on periodic axes (0 alone on the others)."""
        shifts = [(-L, 0.0, L) if self.domain.periodic else (0.0,)
                  for L in self.domain.lengths]
        return np.stack(np.meshgrid(*shifts, indexing="ij"), axis=-1).reshape(-1, self.dim)


def _node_coords(domain: Domain) -> np.ndarray:
    """Node coordinates, shape (M, dim), the first axis varying slowest."""
    mesh = np.meshgrid(*(domain.axis_grid(a)[0] for a in range(domain.dim)), indexing="ij")
    return np.stack([g.reshape(-1) for g in mesh], axis=1)


def _evaluate(expr: str, coords: np.ndarray) -> np.ndarray:
    """A closed-form expression of x (and y in 2D) at ``coords``, read as a
    syntax tree of numbers, x and y, the names of ``_EXPR_NAMES``, calls of
    its functions on one argument, unary +- and binary + - * / **; any
    other construct, any failure, or a non-finite value is a ValueError."""
    names = dict(_EXPR_NAMES, **dict(zip("xy", coords.T)))

    def value(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, (ast.UnaryOp, ast.BinOp)) and type(node.op) in _OPERATORS:
            operands = [node.operand] if isinstance(node, ast.UnaryOp) else [node.left, node.right]
            return _OPERATORS[type(node.op)](*map(value, operands))
        # one positional argument: a second would be a ufunc's output array
        if isinstance(node, ast.Call) and len(node.args) == 1 and not node.keywords \
                and callable(f := value(node.func)):
            return f(value(node.args[0]))
        raise ValueError(f"{ast.unparse(node)!r} is not a number, a known name, a "
                         "call of a known function on one argument, or + - * / **")

    try:
        with np.errstate(all="ignore"):
            values = value(ast.parse(expr, mode="eval").body)
            field = np.broadcast_to(np.asarray(values, dtype=float), (len(coords),)).copy()
    except Exception as exc:
        raise ValueError(f"cannot evaluate expression {expr!r}: {exc}") from exc
    if not np.all(np.isfinite(field)):
        raise ValueError(f"expression {expr!r} produced non-finite values")
    return field


def build_space(domain: Domain, norm: MinkowskiNorm,
                psi: Union[str, np.ndarray, float] = 0.0) -> WeightedSpace:
    """Construct a validated WeightedSpace; ``psi`` may be an expression
    string of x (and y in 2D), a nodal array, or a constant."""
    if isinstance(psi, str):
        psi = _evaluate(psi, _node_coords(domain))
    n_nodes = int(np.prod(domain.resolution))
    return WeightedSpace(domain, norm, np.broadcast_to(np.asarray(psi, dtype=float),
                                                       (n_nodes,)).copy())


def integrate(space: WeightedSpace, f: np.ndarray) -> float:
    """Integral of a scalar field against the normalized reference measure."""
    return float(space.cell_mass @ np.asarray(f, dtype=float))


def variance(space: WeightedSpace, f: np.ndarray) -> float:
    """Centered variance int (f - int f dm)^2 dm."""
    centered = f - integrate(space, f)
    return integrate(space, centered * centered)


def entropy_of_density(space: WeightedSpace, f: np.ndarray) -> float:
    """int_{f>0} f log f dm for a nonnegative density f."""
    pos = f > 1e-300
    return integrate(space, np.where(pos, f * np.log(np.where(pos, f, 1.0)), 0.0))


def fisher_information(space: WeightedSpace, f: np.ndarray, grad_sq: np.ndarray) -> float:
    """int_{f>0} F*^2(Df)/f dm for a nonnegative f, given grad_sq = F*^2(Df)."""
    pos = f > 1e-300
    return integrate(space, np.where(pos, grad_sq / np.where(pos, f, 1.0), 0.0))
