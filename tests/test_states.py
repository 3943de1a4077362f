"""The state catalogue: one family table behind StateSpec, build_state and
the plain-data round trip of config files and provenance blocks."""

import json
from dataclasses import replace

import pytest

from vortexcorr import cli, states
from vortexcorr.fock import Basis
from vortexcorr.states import (KINDS, SpecError, StateSpec, build_state,
                               canonical, spec_from_dict, spec_to_dict)

_DEFAULT_BASES = {"fermi-fock": "vortex", "bose-fock": "vortex",
                  "coherent": "dipole", "thermal": "vortex",
                  "cothermal": "dipole", "noon": "vortex"}
_ALL_PARAMETERS = set().union(*(family.parameters
                                for family in states._FAMILIES.values()))


def test_kinds_keep_their_order():
    # the CLI choices and the verify table follow this order
    assert KINDS == ("fermi-fock", "bose-fock", "coherent", "thermal",
                     "cothermal", "noon")


@pytest.mark.parametrize("kind", KINDS)
def test_default_basis(kind):
    assert StateSpec(kind=kind).basis == _DEFAULT_BASES[kind]
    assert canonical(kind).basis == _DEFAULT_BASES[kind]
    for basis in ("vortex", "dipole"):
        assert StateSpec(kind=kind, basis=basis).basis == basis


@pytest.mark.parametrize("kind", KINDS)
def test_build_state_keeps_the_spec(kind):
    spec = canonical(kind)
    state = build_state(spec)
    assert state.spec == spec
    assert state.basis is Basis(_DEFAULT_BASES[kind])


def test_spec_round_trip():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    values = {int: st.integers(0, 10 ** 12),
              float: st.floats(0.0, 1e150),
              complex: st.complex_numbers(max_magnitude=1e75,
                                          allow_nan=False,
                                          allow_infinity=False)}

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        kind = data.draw(st.sampled_from(KINDS))
        fields = {field: data.draw(values[states._FIELD_TYPES[field]])
                  for field in states._FAMILIES[kind].parameters.values()}
        basis = data.draw(st.sampled_from(("vortex", "dipole")))
        spec = StateSpec(kind=kind, basis=basis, **fields)
        plain = spec_to_dict(spec)
        assert list(plain) == ["kind", "basis",
                               *states._FAMILIES[kind].parameters]
        assert spec_from_dict(plain) == spec
        # as a frames header or provenance block carries it
        assert spec_from_dict(json.loads(json.dumps(plain))) == spec

    check()


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind in KINDS for key in sorted(
        _ALL_PARAMETERS - set(states._FAMILIES[kind].parameters))])
def test_foreign_parameter_is_refused(kind, key):
    with pytest.raises(SpecError, match=f"{kind} takes no {key} "):
        spec_from_dict({"kind": kind, key: 1})


def test_foreign_parameters_are_named_together():
    with pytest.raises(SpecError, match="fermi-fock takes no alpha_x, nbar "):
        spec_from_dict({"kind": "fermi-fock", "nbar": 3, "alpha_x": 7})


@pytest.mark.parametrize("kind", KINDS)
def test_own_parameters_are_read(kind):
    parameters = states._FAMILIES[kind].parameters
    spec = spec_from_dict({"kind": kind, **dict.fromkeys(parameters, 0)})
    assert all(getattr(spec, field) == 0 for field in parameters.values())


@pytest.mark.parametrize("kind", KINDS)
def test_entries_of_no_family_are_ignored(kind):
    # older frames headers carry a Fock-space cutoff
    plain = {**spec_to_dict(canonical(kind)), "cutoff": 40}
    assert spec_from_dict(plain) == canonical(kind)


@pytest.mark.parametrize("kind", KINDS)
def test_left_out_parameters_are_canonical(kind):
    assert spec_from_dict({"kind": kind}) == canonical(kind)


@pytest.mark.parametrize("kind", ["squeezed", "", [1], {"a": 1}, 3, None])
def test_unknown_kind_is_refused(kind):
    with pytest.raises(SpecError, match="unknown state kind"):
        StateSpec(kind=kind)
    with pytest.raises(SpecError, match="unknown state kind"):
        spec_from_dict({"kind": kind})
    with pytest.raises(SpecError, match="unknown state kind"):
        canonical(kind)


@pytest.mark.parametrize("data", [{}, [], "fermi-fock", None])
def test_missing_kind_is_refused(data):
    with pytest.raises(SpecError, match="needs a 'kind' entry"):
        spec_from_dict(data)


@pytest.mark.parametrize("basis", ["diagonal", 5, ["vortex"]])
def test_unknown_basis_is_refused(basis):
    with pytest.raises(SpecError, match="unknown basis"):
        StateSpec(kind="noon", basis=basis)
    with pytest.raises(SpecError, match="unknown basis"):
        spec_from_dict({"kind": "thermal", "basis": basis})


@pytest.mark.parametrize("kind, key, value, message", [
    ("cothermal", "nbar", 1e200, r"nbar must be in \[0, 1e\+150\]"),
    ("cothermal", "alpha", "1e80", r"\|alpha\|\^2 must be <= 1e\+150"),
    ("coherent", "alpha_x", "1e80i", r"\|alpha_x\|\^2 must be <= 1e\+150"),
    ("coherent", "alpha_y", -1e80, r"\|alpha_y\|\^2 must be <= 1e\+150"),
    ("thermal", "nbar_a", -0.5, r"nbar_a must be in \[0, 1e\+150\]"),
    ("thermal", "nbar_b", 1e151, r"nbar_b must be in \[0, 1e\+150\]"),
    ("bose-fock", "n", -1, r"occupations must be in .* n=-1, m=1"),
    ("fermi-fock", "m", -2, r"occupations must be in .* n=1, m=-2"),
])
def test_bound_messages_name_the_config_key(kind, key, value, message):
    with pytest.raises(SpecError, match=message):
        spec_from_dict({"kind": kind, key: value})


def test_a_spec_is_checked_whenever_it_is_made():
    spec = canonical("cothermal")
    with pytest.raises(SpecError, match="nbar must be in"):
        replace(spec, nbar_a=-1.0)
    # the one field the check fills in: the family's default basis
    assert replace(spec, basis="") == spec


def test_cli_state_rows_are_the_table_parameters():
    rows = {s.name for s in cli.SETTINGS if s.group == cli._STATE}
    assert rows - {"state", "basis"} == _ALL_PARAMETERS
    state, = (s for s in cli.SETTINGS if s.name == "state")
    assert state.choices == KINDS
