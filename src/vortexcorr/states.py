"""Catalog of the shipped state families.

One table, _FAMILIES, holds each family's canonical spec, constructor,
default basis and config parameters. A StateSpec, the plain-data state
description shared by the CLI, the evaluators, the oracle and provenance,
checks itself against the table when it is made. The canonical coherent
state obeys alpha_x = i*alpha_y with unit intensity (ring-shaped density).
"""

import math
import re
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from functools import partial

from .errors import VortexError
from .fock import (Basis, Statistics, make_cothermal, make_coherent,
                   make_fock, make_noon, make_thermal)

# Bound on n, m, nbar and |alpha|^2. A mode's largest moment is
# <adag^2 a^2> <= 2 (|alpha|^2 + nbar)^2, or n (n - 1) for a Fock mode, so
# every correlator stays below 1e301 and every law summed from them stays
# finite.
MAX_OCCUPATION = 1e150


class SpecError(VortexError, ValueError):
    """Malformed state description."""


@dataclass(frozen=True)
class StateSpec:
    kind: str
    n: int = 1
    m: int = 1
    alpha_a: complex = 0.0j
    alpha_b: complex = 0.0j
    nbar_a: float = 1.0
    nbar_b: float = 1.0
    basis: str = ""        # ""  -> the family's default

    def __post_init__(self):
        family = _family(self.kind)
        basis = self.basis or family.basis
        if basis not in ("vortex", "dipole"):
            raise SpecError(f"unknown basis {basis!r}")
        if not (0 <= self.n <= MAX_OCCUPATION
                and 0 <= self.m <= MAX_OCCUPATION):
            raise SpecError(f"occupations must be in [0, {MAX_OCCUPATION:g}]"
                            f", got n={self.n}, m={self.m}")
        names = {field: key for key, field in family.parameters.items()}
        for name in ("nbar_a", "nbar_b"):
            value = getattr(self, name)
            if not 0.0 <= value <= MAX_OCCUPATION:
                raise SpecError(f"{names.get(name, name)} must be in "
                                f"[0, {MAX_OCCUPATION:g}], got {value}")
        for name in ("alpha_a", "alpha_b"):
            value = getattr(self, name)
            if not abs(value) <= math.sqrt(MAX_OCCUPATION):
                raise SpecError(f"|{names.get(name, name)}|^2 must be <= "
                                f"{MAX_OCCUPATION:g}, got {value}")
        object.__setattr__(self, "basis", basis)


_FIELD_TYPES = {f.name: f.type for f in fields(StateSpec)}


def fermi_fock(basis=""):
    return StateSpec(kind="fermi-fock", n=1, m=1, basis=basis)


def bose_fock(n=1, m=1, basis=""):
    return StateSpec(kind="bose-fock", n=n, m=m, basis=basis)


def coherent(alpha_a=1.0j, alpha_b=1.0 + 0.0j):
    return StateSpec(kind="coherent", alpha_a=alpha_a, alpha_b=alpha_b)


def thermal(nbar_a=1.0, nbar_b=1.0):
    return StateSpec(kind="thermal", nbar_a=nbar_a, nbar_b=nbar_b)


def cothermal(alpha=math.sqrt(0.5), nbar=0.5):
    # alpha_a is the displacement, nbar_a the thermal part of each mode
    return StateSpec(kind="cothermal", alpha_a=alpha, nbar_a=nbar)


def noon():
    return StateSpec(kind="noon")


# One row per family, in CLI-choice and verify order; `make` takes the
# StateSpec fields that `parameters` maps config names to, then a Basis.
_Family = namedtuple("_Family", "canonical make basis parameters")
_FOCK = {"n": "n", "m": "m"}
_FAMILIES = {
    "fermi-fock": _Family(fermi_fock,
                          partial(make_fock, statistics=Statistics.FERMI),
                          "vortex", _FOCK),
    "bose-fock": _Family(bose_fock,
                         partial(make_fock, statistics=Statistics.BOSE),
                         "vortex", _FOCK),
    "coherent": _Family(coherent, make_coherent, "dipole",
                        {"alpha_x": "alpha_a", "alpha_y": "alpha_b"}),
    "thermal": _Family(thermal, make_thermal, "vortex",
                       {"nbar_a": "nbar_a", "nbar_b": "nbar_b"}),
    "cothermal": _Family(cothermal, make_cothermal, "dipole",
                         {"alpha": "alpha_a", "nbar": "nbar_a"}),
    "noon": _Family(noon, make_noon, "vortex", {}),
}
KINDS = tuple(_FAMILIES)

# every family's config parameters; the basis belongs to all of them
_PARAMETERS = {key for row in _FAMILIES.values() for key in row.parameters}


def _family(kind):
    # a dict lookup of an unhashable kind would raise TypeError
    if not isinstance(kind, str) or kind not in _FAMILIES:
        raise SpecError(f"unknown state kind {kind!r}; expected one of "
                        + ", ".join(KINDS))
    return _FAMILIES[kind]


def canonical(kind):
    """The spec of family `kind` at its constructor's defaults."""
    return _family(kind).canonical()


def build_state(spec):
    """The state a StateSpec describes, which keeps it as its `spec`."""
    family = _FAMILIES[spec.kind]
    state = family.make(*(getattr(spec, field)
                          for field in family.parameters.values()),
                        basis=Basis(spec.basis))
    return replace(state, spec=spec)


# ---------------------------------------------------------------------------
# plain-data round trip (config files, provenance blocks)
# ---------------------------------------------------------------------------

_COMPLEX_RE = re.compile(
    r"^\s*(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?"
    r"\s*(?P<im>[+-]\s*(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?)?\s*"
    r"(?P<unit>[ij])?\s*$")


def parse_complex(text):
    """Parse 'a+bi' style complex literals ('i' or 'j', either part may be
    omitted). Also accepts plain numbers, but no boolean."""
    if isinstance(text, (int, float, complex)) and not isinstance(text, bool):
        try:
            return complex(text)
        except OverflowError:   # an int beyond the float range
            raise SpecError(f"number out of range: {text!r}") from None
    if not isinstance(text, str):
        raise SpecError(f"cannot parse complex literal {text!r}")
    s = text.strip()
    if not s:
        raise SpecError("empty complex literal")
    match = _COMPLEX_RE.match(s)
    if not match or (match.group("re") is None and match.group("unit") is None):
        raise SpecError(f"cannot parse complex literal {text!r}")
    re_part, im_part, unit = match.group("re", "im", "unit")
    if unit is None:
        if im_part is not None:
            raise SpecError(f"cannot parse complex literal {text!r}")
        return complex(float(re_part), 0.0)
    if im_part is None:
        # forms like '2i', 'i', '-1.5i': the leading number is the imag part
        if re_part is None:
            return complex(0.0, 1.0)
        return complex(0.0, float(re_part))
    im_clean = im_part.replace(" ", "")
    if im_clean in ("+", "-"):
        im_clean += "1"
    return complex(float(re_part or 0.0), float(im_clean))


def format_complex(z):
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def spec_to_dict(spec):
    out = {"kind": spec.kind, "basis": spec.basis}
    for key, field in _FAMILIES[spec.kind].parameters.items():
        value = getattr(spec, field)
        out[key] = (format_complex(value) if _FIELD_TYPES[field] is complex
                    else value)
    return out


def strict_cast(value, kind):
    """kind(value) for a value of the JSON type `kind` names: bool takes
    only true and false, str only strings, int and float neither a boolean
    nor a string, and int no fraction, which int() would truncate."""
    if (kind is bool) != isinstance(value, bool) or (
            kind is str) != isinstance(value, str) or (
            kind is int and isinstance(value, float)
            and not value.is_integer()):
        raise TypeError(f"{value!r} is not {kind.__name__}-valued")
    return kind(value)


def _cast(value, key, kind):
    """A config value as a StateSpec field of type `kind`."""
    if kind is complex:
        return parse_complex(value)
    try:
        return strict_cast(value, kind)
    except (TypeError, ValueError, OverflowError):
        raise SpecError(f"{key} must be a number, got {value!r}") from None


def spec_from_dict(data):
    """The StateSpec of `data`, laid over its family's canonical spec."""
    try:
        kind = data["kind"]
    except (KeyError, TypeError):
        raise SpecError("state description needs a 'kind' entry") from None
    parameters = _family(kind).parameters
    foreign = sorted((_PARAMETERS - set(parameters)).intersection(data))
    if foreign:
        raise SpecError(f"{kind} takes no {', '.join(foreign)} (its "
                        f"parameters: {', '.join([*parameters, 'basis'])})")
    # entries of no family are ignored: older frames headers carry cutoff
    values = {field: _cast(data[key], key, _FIELD_TYPES[field])
              for key, field in parameters.items() if key in data}
    return replace(canonical(kind), basis=data.get("basis", ""), **values)
