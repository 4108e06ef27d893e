"""Exact SU(2) spin-network evaluation, generating series, Monte-Carlo
integration and stationary-phase asymptotics."""

__version__ = "0.1.0"

from .errors import (
    AdmissibilityError,
    DomainError,
    HypothesisError,
    InputError,
    NumericalError,
    PreconditionError,
    RegimeError,
    ResourceError,
    SpinnetError,
)
from .graphs import (
    Graph,
    Holonomy,
    admissible_colorings,
    crossing_sign,
    internal_coloring,
    is_admissible,
    load_coloring,
    load_graph,
    load_holonomy,
)
from .rational import QQi

__all__ = [
    "Graph",
    "Holonomy",
    "QQi",
    "SpinnetError",
    "InputError",
    "PreconditionError",
    "AdmissibilityError",
    "RegimeError",
    "DomainError",
    "HypothesisError",
    "NumericalError",
    "ResourceError",
    "admissible_colorings",
    "crossing_sign",
    "internal_coloring",
    "is_admissible",
    "load_coloring",
    "load_graph",
    "load_holonomy",
    "bundled_graph_path",
]


def bundled_graph_path(name: str):
    """Path of a bundled example graph (theta, tetrahedron, prism3,
    tetrahedron_nonplanar)."""
    from importlib.resources import files

    p = files("spinnets.data").joinpath(name + ".json")
    if not p.is_file():
        raise InputError(f"no bundled graph named {name!r}")
    return p
