"""Fuzz every JSON input parser and every JSON report validator.

The contracts under test (see :mod:`repro.core.shapes`):

* **Parse or refuse** — each input's ``from_dict`` on any JSON value
  either returns an instance or raises a
  :class:`~repro.core.errors.ModelError`; never a ``TypeError``,
  ``ValueError`` or ``AttributeError``.
* **Validators answer** — each report validator returns a list for
  any JSON value, including real reports damaged at one spot.
* **Round trip** — ``from_dict(to_dict(x)) == x`` for valid inputs.
* **Finite bounds** — every number field of an input declares a field
  bound, so an accepted input never holds NaN or +-inf (the fuzzer
  draws both).
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import typing

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.__main__ import main
from repro.analysis import validate_lint_report, validate_verify_report
from repro.analysis.verify.examples import example_payload
from repro.compiler.commgen import CommOp, CommPlan
from repro.core.errors import ModelError
from repro.core.patterns import AccessPattern
from repro.faults import (
    DepositFault,
    FaultPlan,
    FragmentFault,
    LinkFault,
    NodeFault,
    RetryPolicy,
    validate_faults_report,
)
from repro.load import (
    ADMISSION_POLICIES,
    LoadEngine,
    LoadProfile,
    OverloadSpec,
    profile_by_name,
    validate_load_report,
)
from repro.sweep import SweepSpec
from repro.sweep.spec import MACHINE_KEYS
from repro.trace import Tracer, chrome_trace, validate_chrome_trace

FUZZ = settings(max_examples=60, deadline=None, derandomize=True)

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

PARSERS = {
    "sweep-spec": (SweepSpec.from_dict, SweepSpec().to_dict()),
    "fault-plan": (FaultPlan.from_dict, FaultPlan.chaos(7).to_dict()),
    "overload-spec": (
        OverloadSpec.from_dict,
        OverloadSpec(admission="adaptive", target_p99_ns=1e6).to_dict(),
    ),
    "load-profile": (
        LoadProfile.from_dict, profile_by_name("bursty").to_dict()
    ),
    "comm-plan": (
        CommPlan.from_dict,
        CommPlan([CommOp(0, 1, AccessPattern.parse("1"),
                         AccessPattern.parse("64"), 16)]).to_dict(),
    ),
}


def _damaged(data, payload):
    """``payload`` with one value, somewhere inside it, replaced."""
    payload = copy.deepcopy(payload)
    node = payload
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        if not keys:
            return data.draw(JSON)
        key = data.draw(st.sampled_from(list(keys)))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(
            st.booleans()
        ):
            node = child
            continue
        node[key] = data.draw(JSON)
        return payload


_BOUNDS = {"minimum", "maximum", "above", "below"}


def _assert_finite_bounded(value):
    """Every float field in input ``value`` is bounded and finite."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _assert_finite_bounded(item)
        return
    if not dataclasses.is_dataclass(value):
        return
    hints = typing.get_type_hints(type(value))
    for spec in dataclasses.fields(value):
        item = getattr(value, spec.name)
        if hints[spec.name] is float:
            where = f"{type(value).__name__}.{spec.name}"
            assert _BOUNDS & set(spec.metadata.get("shape", {})), where
            assert math.isfinite(item), f"{where} = {item!r}"
        elif "parse" not in spec.metadata:
            _assert_finite_bounded(item)


def _parses_or_refuses(parse, payload):
    try:
        parsed = parse(payload)
    except ModelError as exc:
        assert "\n" not in str(exc)
    else:
        _assert_finite_bounded(parsed)


class TestParseOrRefuse:
    @pytest.mark.parametrize("name", sorted(PARSERS))
    @FUZZ
    @given(payload=JSON)
    def test_any_json_value(self, name, payload):
        _parses_or_refuses(PARSERS[name][0], payload)

    @pytest.mark.parametrize("name", sorted(PARSERS))
    @FUZZ
    @given(data=st.data())
    def test_valid_payload_damaged_at_one_spot(self, name, data):
        parse, valid = PARSERS[name]
        payload = json.loads(json.dumps(valid))
        _parses_or_refuses(parse, _damaged(data, payload))


def _faults_report():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["faults", "--json"]) == 0
    return json.loads(out.getvalue())


def _lint_report():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["lint", "--json", "64C1 o 2C1"])
    return json.loads(out.getvalue())


def _trace():
    tracer = Tracer()
    tracer.span("pack", track="phase", start_ns=0, duration_ns=400,
                category="phase")
    tracer.count("runtime.transfers")
    return chrome_trace(tracer)


_REPORTS = {
    "lint": (validate_lint_report, _lint_report),
    "verify": (validate_verify_report,
               lambda: example_payload("t3d", "racy")),
    "faults": (validate_faults_report, _faults_report),
    "load": (validate_load_report, lambda: LoadEngine(
        profile_by_name("steady"), seed=7).run(2e6).to_dict()),
    "trace": (validate_chrome_trace, _trace),
}


@pytest.fixture(scope="module")
def reports():
    return {
        name: json.loads(json.dumps(build()))
        for name, (__, build) in _REPORTS.items()
    }


class TestValidatorsAnswer:
    @pytest.mark.parametrize("name", sorted(_REPORTS))
    def test_real_report_is_valid(self, name, reports):
        assert _REPORTS[name][0](reports[name]) == []

    @pytest.mark.parametrize("name", sorted(_REPORTS))
    @FUZZ
    @given(payload=JSON)
    def test_any_json_value(self, name, payload):
        assert isinstance(_REPORTS[name][0](payload), list)

    @pytest.mark.parametrize("name", sorted(_REPORTS))
    @FUZZ
    @given(data=st.data())
    def test_real_report_damaged_at_one_spot(self, name, data, reports):
        found = _REPORTS[name][0](_damaged(data, reports[name]))
        assert isinstance(found, list)
        assert all(isinstance(line, str) for line in found)


# -- round trips ---------------------------------------------------------------

_PROBABILITY = st.floats(min_value=0.0, max_value=0.99)

_RETRY = st.builds(
    RetryPolicy,
    timeout_ns=st.floats(min_value=0.0, max_value=1e6),
    backoff_base_ns=st.floats(min_value=0.0, max_value=1e5),
    backoff_factor=st.floats(min_value=1.0, max_value=4.0),
    backoff_cap_ns=st.floats(min_value=1e5, max_value=1e6),
    max_attempts=st.integers(min_value=1, max_value=10),
    granularity=st.sampled_from(["fragment", "message"]),
    retry_budget=st.floats(min_value=0.0, max_value=1.0),
)

_LINK = st.one_of(
    st.builds(LinkFault, derate=st.floats(min_value=0.01, max_value=1.0)),
    st.builds(
        LinkFault,
        src=st.integers(0, 15),
        dst=st.integers(0, 15),
        derate=st.floats(min_value=0.01, max_value=1.0),
        failed=st.booleans(),
    ),
)

FAULT_PLANS = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**31),
    links=st.lists(_LINK, max_size=2).map(tuple),
    nodes=st.lists(
        st.builds(NodeFault, node=st.integers(0, 15),
                  slowdown=st.floats(min_value=1.0, max_value=4.0)),
        max_size=2,
    ).map(tuple),
    deposits=st.lists(
        st.builds(DepositFault, node=st.none() | st.integers(0, 15)),
        max_size=2,
    ).map(tuple),
    fragments=st.lists(
        st.builds(FragmentFault, loss=_PROBABILITY, corrupt=_PROBABILITY),
        max_size=2,
    ).map(tuple),
    retry=_RETRY,
)

OVERLOAD_SPECS = st.builds(
    OverloadSpec,
    admission=st.sampled_from(
        [name for name in ADMISSION_POLICIES if name != "none"]
    ),
    queue_limit=st.integers(1, 256),
    station_capacity=st.integers(0, 64),
    token_rate_per_s=st.floats(min_value=1.0, max_value=1e6),
    token_burst=st.integers(1, 64),
    target_p99_ns=st.floats(min_value=1.0, max_value=1e8),
    reject_retry=st.sampled_from(["drop", "backoff"]),
    max_retries=st.integers(0, 5),
    retry_budget=st.floats(min_value=0.0, max_value=1.0),
    breaker_threshold=st.integers(0, 5),
)

LOAD_PROFILES = st.builds(
    lambda name, multiplier, nodes, overload: dataclasses.replace(
        profile_by_name(name).scaled(multiplier),
        nodes=nodes,
        overload=overload,
    ),
    name=st.sampled_from(["steady", "bursty", "closed"]),
    multiplier=st.floats(min_value=0.25, max_value=4.0),
    nodes=st.integers(2, 32),
    overload=st.none() | OVERLOAD_SPECS,
)

SWEEP_SPECS = st.builds(
    SweepSpec,
    machines=st.lists(
        st.sampled_from(MACHINE_KEYS), min_size=1, max_size=3, unique=True
    ).map(tuple),
    pairs=st.lists(
        st.tuples(st.sampled_from(["1", "64", "w"]),
                  st.sampled_from(["1", "64", "w"])),
        max_size=3, unique=True,
    ).map(tuple),
    sizes=st.lists(
        st.integers(1, 2**20), min_size=1, max_size=3, unique=True
    ).map(tuple),
    seeds=st.lists(st.integers(-1, 100), max_size=3, unique=True).map(tuple),
    rates=st.sampled_from(["simulated", "paper"]),
)

_PATTERN = st.sampled_from(["0", "1", "64", "w", "8x2"]).map(
    AccessPattern.parse
)

COMM_PLANS = st.builds(
    CommPlan,
    ops=st.lists(
        st.builds(CommOp, src=st.integers(0, 63), dst=st.integers(0, 63),
                  x=_PATTERN, y=_PATTERN, nwords=st.integers(1, 2**16)),
        max_size=6,
    ),
    name=st.text(max_size=8),
)


@pytest.mark.parametrize("strategy, cls", [
    (SWEEP_SPECS, SweepSpec),
    (FAULT_PLANS, FaultPlan),
    (OVERLOAD_SPECS, OverloadSpec),
    (LOAD_PROFILES, LoadProfile),
    (COMM_PLANS, CommPlan),
], ids=["sweep-spec", "fault-plan", "overload-spec", "load-profile",
        "comm-plan"])
@FUZZ
@given(data=st.data())
def test_round_trip(strategy, cls, data):
    value = data.draw(strategy)
    _assert_finite_bounded(value)
    payload = json.loads(json.dumps(value.to_dict()))
    assert cls.from_dict(payload) == value
