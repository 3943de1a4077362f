"""Catalog of the shipped state families.

A StateSpec is the plain-data description used by the CLI, the closed-form
evaluators, the oracle and output provenance; build_state turns it into a
state. Defaults follow the canonical configurations: the coherent
state obeys alpha_x = i*alpha_y with unit intensity (ring-shaped one-body
density) and thermal/cothermal default to unit mean occupancy per mode.
"""

import math
import re
from dataclasses import dataclass, replace

from .errors import VortexError
from .fock import (Basis, Statistics, make_cothermal, make_coherent,
                   make_fock, make_noon, make_thermal)

KINDS = ("fermi-fock", "bose-fock", "coherent", "thermal", "cothermal",
         "noon")

_DEFAULT_BASIS = {"coherent": "dipole", "cothermal": "dipole"}

# Bound on n, m, nbar and |alpha|^2. A mode's largest moment is
# <adag^2 a^2> <= 2 (|alpha|^2 + nbar)^2, or n (n - 1) for a Fock mode, so
# every correlator stays below 1e301 and every law summed from them stays
# finite.
MAX_OCCUPATION = 1e150

# config-file names of the fields, where they differ
_PARAMETER_NAMES = {"coherent": {"alpha_a": "alpha_x", "alpha_b": "alpha_y"},
                    "cothermal": {"alpha_a": "alpha", "nbar_a": "nbar"}}


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
    basis: str = ""        # ""  -> per-kind default

    def normalized(self):
        kind = self.kind
        if kind not in KINDS:
            raise SpecError(f"unknown state kind {kind!r}; expected one of "
                            + ", ".join(KINDS))
        basis = self.basis or _DEFAULT_BASIS.get(kind, "vortex")
        if basis not in ("vortex", "dipole"):
            raise SpecError(f"unknown basis {basis!r}")
        if not (0 <= self.n <= MAX_OCCUPATION
                and 0 <= self.m <= MAX_OCCUPATION):
            raise SpecError(f"occupations must be in [0, {MAX_OCCUPATION:g}]"
                            f", got n={self.n}, m={self.m}")
        names = _PARAMETER_NAMES.get(kind, {})
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
        return replace(self, basis=basis)


def fermi_fock(basis=""):
    return StateSpec(kind="fermi-fock", n=1, m=1, basis=basis).normalized()


def bose_fock(n=1, m=1, basis=""):
    return StateSpec(kind="bose-fock", n=n, m=m, basis=basis).normalized()


def coherent(alpha_a=1.0j, alpha_b=1.0 + 0.0j):
    return StateSpec(kind="coherent", alpha_a=alpha_a,
                     alpha_b=alpha_b).normalized()


def thermal(nbar_a=1.0, nbar_b=1.0):
    return StateSpec(kind="thermal", nbar_a=nbar_a,
                     nbar_b=nbar_b).normalized()


def cothermal(alpha=math.sqrt(0.5), nbar=0.5):
    # alpha_a is the displacement, nbar_a the thermal part of each mode
    return StateSpec(kind="cothermal", alpha_a=alpha,
                     nbar_a=nbar).normalized()


def noon():
    return StateSpec(kind="noon").normalized()


def canonical(kind):
    """The spec of family `kind` at its constructor's defaults: the
    family's canonical configuration."""
    families = dict(zip(KINDS, (fermi_fock, bose_fock, coherent, thermal,
                                cothermal, noon)))
    # normalized() refuses an unknown kind
    return families[StateSpec(kind=kind).normalized().kind]()


def build_state(spec):
    """Construct the state a StateSpec describes; the state keeps the
    normalized spec as its `spec`."""
    spec = spec.normalized()
    basis = Basis(spec.basis)
    if spec.kind == "fermi-fock":
        state = make_fock(spec.n, spec.m, Statistics.FERMI, basis)
    elif spec.kind == "bose-fock":
        state = make_fock(spec.n, spec.m, Statistics.BOSE, basis)
    elif spec.kind == "coherent":
        state = make_coherent(spec.alpha_a, spec.alpha_b, basis)
    elif spec.kind == "thermal":
        state = make_thermal(spec.nbar_a, spec.nbar_b, basis)
    elif spec.kind == "cothermal":
        state = make_cothermal(spec.alpha_a, spec.nbar_a, basis)
    else:   # noon: normalized() admits no other kind
        state = make_noon(basis)
    return replace(state, spec=spec)


# ---------------------------------------------------------------------------
# plain-data round trip (config files, provenance blocks)
# ---------------------------------------------------------------------------

_COMPLEX_RE = re.compile(
    r"^\s*(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?"
    r"\s*(?P<im>[+-]\s*(?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)?\s*"
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
    spec = spec.normalized()
    out = {"kind": spec.kind, "basis": spec.basis}
    if spec.kind in ("fermi-fock", "bose-fock"):
        out.update(n=spec.n, m=spec.m)
    elif spec.kind == "coherent":
        out.update(alpha_x=format_complex(spec.alpha_a),
                   alpha_y=format_complex(spec.alpha_b))
    elif spec.kind == "thermal":
        out.update(nbar_a=spec.nbar_a, nbar_b=spec.nbar_b)
    elif spec.kind == "cothermal":
        out.update(alpha=format_complex(spec.alpha_a), nbar=spec.nbar_a)
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


def _number(data, key, cast):
    try:
        return strict_cast(data[key], cast)
    except (TypeError, ValueError, OverflowError):
        raise SpecError(f"{key} must be a number, got {data[key]!r}") \
            from None


def spec_from_dict(data):
    try:
        kind = data["kind"]
    except (KeyError, TypeError):
        raise SpecError("state description needs a 'kind' entry") from None
    kwargs = {"kind": kind}
    if "basis" in data:
        kwargs["basis"] = data["basis"]
    # other entries are ignored: older frames headers carry one more
    for key in ("n", "m"):
        if key in data:
            kwargs[key] = _number(data, key, int)
    if "alpha_x" in data:
        kwargs["alpha_a"] = parse_complex(data["alpha_x"])
    if "alpha_y" in data:
        kwargs["alpha_b"] = parse_complex(data["alpha_y"])
    if "alpha" in data:
        kwargs["alpha_a"] = parse_complex(data["alpha"])
    for key in ("nbar_a", "nbar_b"):
        if key in data:
            kwargs[key] = _number(data, key, float)
    if "nbar" in data:
        kwargs["nbar_a"] = _number(data, "nbar", float)
    return StateSpec(**kwargs).normalized()
