import copy
import dataclasses
import importlib.util
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_action_lab import curves, euclidean, half_line, harness, proximal
from metric_action_lab.curves import action, curve_to_csv, geodesic_curve, minimize_action
from metric_action_lab.errors import ConfigError, DomainError
from metric_action_lab.functionals import (
    FunctionalFamily,
    inverse_square,
    quadratic,
    ramp,
    strip_closed_forms,
    zero_functional,
)
from metric_action_lab.harness import (
    DEFAULTS,
    ExperimentConfig,
    ExperimentReport,
    Verdict,
    crossing_lower_bound,
    emit_report,
    certified_args,
    family_from_config,
    flow_config,
    liminf_probe,
    load_config,
    parallel_map,
    resolve_base_curve,
    run_example1,
    run_example2,
    run_liminf,
    run_positive,
    space_from_config,
)
from metric_action_lab.laws import parse_law
from metric_action_lab.proximal import resolvent

HL = half_line()
E1 = euclidean(1)


# --------------------------------------------------------------------------
# laws
# --------------------------------------------------------------------------


def test_parse_law_arithmetic():
    assert parse_law("1/h")(4) == 0.25
    assert parse_law("sqrt(h)")(16) == 4.0
    assert parse_law("pow(4, -h)")(2) == pytest.approx(1 / 16)
    assert parse_law("exp(0) + 2*h - h/2")(2) == pytest.approx(4.0)
    assert parse_law("-(h - 1)")(3) == -2.0
    assert parse_law(0.25)(99) == 0.25
    assert parse_law("h ")(3) == 3.0
    assert parse_law("1/h ")(4) == 0.25
    assert parse_law("\th\n")(5) == 5.0
    # the laws of the benchmark and the tests, bit for bit as Python computes them
    assert parse_law("1 - pow(2, -h)")(5) == 1.0 - math.pow(2.0, -5.0)
    assert parse_law("0.4 + 1/h")(3) == 0.4 + 1.0 / 3.0
    assert parse_law("1/(h*h)")(7) == 1.0 / (7.0 * 7.0)
    assert parse_law("1 + 1/(h*h)")(7) == 1.0 + 1.0 / (7.0 * 7.0)
    assert parse_law("0.5 - 1/h")(3) == 0.5 - 1.0 / 3.0
    assert parse_law("sqrt(1/h)/h")(3) == math.sqrt(1.0 / 3.0) / 3.0
    assert parse_law("pow(4, -h)")(3) == math.pow(4.0, -3.0)
    assert parse_law("1.e-1 * 2E2")(1) == 0.1 * 200.0


def test_parse_law_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_law("__import__('os')")
    with pytest.raises(ConfigError):
        parse_law("sin(h)")
    with pytest.raises(ConfigError):
        parse_law("h h")
    with pytest.raises(ConfigError):
        parse_law(math.inf)
    # Python syntax outside the law grammar; \uff48 is a fullwidth h, which Python reads as h
    for law in [
        "h**2", "h//2", "h%2", "1 if h else 2", "h[0]", "8(h)", "(h)(2)", "True",
        "sqrt(h=1)", "sqrt(*[h])", "lambda: h", "h # note", ".5", "1_0", "0x10", "1j",
        "'h'", "sqrt(h,)", "pow(2, h, )", "\uff48",
    ]:
        with pytest.raises(ConfigError):
            parse_law(law)


@pytest.mark.parametrize("law", [True, False])
def test_parse_law_rejects_booleans(law):
    with pytest.raises(ConfigError, match="not a number or a string"):
        parse_law(law)


@pytest.mark.parametrize(
    "law", ["-" * 100000 + "h", "(" * 1000 + "h" + ")" * 1000, "sqrt(" * 1000 + "h" + ")" * 1000]
)
def test_parse_law_deep_nesting_is_config_error(law):
    start = time.perf_counter()
    with pytest.raises(ConfigError):
        parse_law(law)
    assert time.perf_counter() - start < 5.0


def test_parse_law_parses_without_warnings(capsys):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError):
            parse_law("1if h else 2")
    assert seen == [] and capsys.readouterr().err == ""


@pytest.mark.parametrize("law", ["022", "h + 022", "\u0663"])
def test_parse_law_rejects_leading_zeros_and_non_ascii_digits(law):
    # the integer 022 and the Arabic-Indic digit three are not numerals
    with pytest.raises(ConfigError):
        parse_law(law)


@pytest.mark.parametrize("law", ["pow(2)", "pow(2, h, 3)", "sqrt(1,2)", "exp(h, h)"])
def test_parse_law_checks_arity_at_parse_time(law):
    with pytest.raises(ConfigError, match="argument"):
        parse_law(law)


@pytest.mark.parametrize(
    "law, h, cause",
    [
        ("1/(h-8)", 8, "division by zero"),
        ("sqrt(0-h)", 1, "math domain error"),
        ("pow(10,h*100)", 8, "range"),
        ("1e308*10*h", 1, "non-finite"),
        ("exp(h) - exp(h)", 1000, "range"),
    ],
)
def test_parse_law_failure_is_domain_error(law, h, cause):
    fn = parse_law(law)
    with pytest.raises(DomainError) as info:
        fn(h)
    msg = str(info.value)
    assert repr(law) in msg and f"h={h}" in msg and cause in msg


_LAW_ATOMS = ["h", "0", "1", "2", "8", "0.5", "1e308", "1e-300"]
_LAW_TOKENS = _LAW_ATOMS + ["+", "-", "*", "/", "(", ")", ",", "sqrt", "pow", "exp", " "]

# well-formed laws, so that evaluation is exercised, plus token soup
_law_strings = st.one_of(
    st.recursive(
        st.sampled_from(_LAW_ATOMS),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
            inner.map("-{}".format),
            inner.map("({})".format),
            inner.map("sqrt({})".format),
            inner.map("exp({})".format),
            st.tuples(inner, inner).map(lambda ab: f"pow({ab[0]}, {ab[1]})"),
        ),
        max_leaves=8,
    ),
    st.lists(st.sampled_from(_LAW_TOKENS), max_size=24).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(_law_strings, st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=4))
def test_parse_law_raises_only_documented_errors(text, hs):
    try:
        fn = parse_law(text)
    except ConfigError:
        return
    for h in hs:
        try:
            v = fn(h)
        except DomainError:
            continue
        assert isinstance(v, float) and math.isfinite(v)


# --------------------------------------------------------------------------
# config plumbing
# --------------------------------------------------------------------------


def test_space_from_config_kinds():
    assert space_from_config({"kind": "euclidean", "dim": 3}).dim == 3
    assert space_from_config({"kind": "half_line"}).kind.value == "half_line"
    assert space_from_config({"kind": "tripod"}).edge_lengths == (1.0, 1.0, 1.0)
    assert space_from_config({"kind": "quantile_1d", "grid_size": 4}).dim == 4
    with pytest.raises(ConfigError):
        space_from_config({"kind": "hyperbolic"})


def test_family_from_config_scaled():
    fam = family_from_config(E1, {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0},
                                  "scale_law": "1 + 1/h"})
    assert fam.member(1).lam == pytest.approx(2.0)
    assert fam.limit.lam == pytest.approx(1.0)


def test_family_from_config_limit_keys():
    quad = {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0}, "scale_law": "1 + 1/h"}
    scaled = family_from_config(E1, dict(quad, scale_limit=3.0)).limit
    assert scaled.lam == pytest.approx(3.0)
    assert scaled.evaluate(E1.point(1.0)) == pytest.approx(1.5)
    named = family_from_config(E1, dict(quad, limit={"name": "zero"})).limit
    assert named.id == "zero" and named.evaluate(E1.point(1.0)) == 0.0


def test_family_rejects_limit_beside_scale_limit():
    # earlier versions took the named limit and dropped scale_limit; null
    # still means the key is absent
    quad = {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0}}
    with pytest.raises(ConfigError, match="^a family takes 'limit' or 'scale_limit', not both$"):
        family_from_config(E1, dict(quad, limit={"name": "zero"}, scale_limit=2.0))
    assert family_from_config(E1, dict(quad, limit=None, scale_limit=2.0)).limit.lam == 2.0
    assert family_from_config(E1, dict(quad, limit={"name": "zero"}, scale_limit=None)).limit.id == "zero"


@pytest.mark.parametrize(
    "family, key",
    [
        ({"name": "example1", "params": {"eps": 0.5, "colour": 1}, "scale_law": "2",
          "limit": {"name": "zero"}}, "params"),
        ({"name": "example1", "eps_law": "1/h", "scale_limit": 2.0}, "scale_limit"),
        ({"name": "example2", "eps_law": "1/h"}, "eps_law"),
        ({"name": "quadratic", "eps_law": "1"}, "eps_law"),
    ],
    ids=["example1_params", "example1_scale_limit", "example2_eps_law", "catalogue_eps_law"],
)
def test_family_keys_are_checked_by_family_name(family, key):
    # the example families read only their name (and example1 its eps_law);
    # no catalogue family reads an eps_law
    with pytest.raises(ConfigError) as info:
        family_from_config(HL, family)
    assert str(info.value).startswith(f"unknown config key {key!r}")


def test_experiment_config_from_dict():
    cfg = ExperimentConfig.from_dict(
        {
            "space": {"kind": "euclidean", "dim": 1},
            "family": {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0}},
            "x0": 0.0,
            "x1": 1.0,
            "x0_law": "1/h",
            "x1_law": "1",
            "h_list": [2, 4],
        }
    )
    assert cfg.x0_seq(4).coords == (0.25,)
    assert cfg.x1_seq(4).coords == (1.0,)
    # the liminf defaults: the tail is the last index, tau = 1/h^2
    assert (cfg.tail_from, cfg.slack, cfg.tau_law(4)) == (4, 0.01, 1.0 / 16)


def test_experiment_config_reads_the_liminf_section():
    cfg = ExperimentConfig.from_dict(
        {"space": {"kind": "euclidean", "dim": 1}, "family": {"name": "zero"}, "x0": 0.0, "x1": 1.0,
         "h_list": [2, 4], "liminf": {"tail_from": 2, "slack": 0.5, "tau_law": "1/h"}}
    )
    assert (cfg.tail_from, cfg.slack, cfg.tau_law(4)) == (2, 0.5, 0.25)


@pytest.mark.parametrize(
    "family, extra",
    [({"name": "example1"}, {}), ({"name": "example2"}, {"eps_law": "1/h"})],
    ids=["no_eps_law", "no_base"],
)
def test_experiment_config_vanishing_needs_base_and_eps_law(family, extra):
    obj = {"space": {"kind": "half_line"}, "family": family, "x0": 1.0, "x1": 2.0,
           "h_list": [2, 4], "mode": "vanishing", **extra}
    with pytest.raises(ConfigError, match="eps_law"):
        ExperimentConfig.from_dict(obj)


DATA = Path(__file__).parent / "data"

# the reader of the command that takes a shipped config, by file name prefix
_READERS = {
    "flow_": flow_config,
    "gamma_example2": lambda obj: certified_args("example2", obj),
    "gamma_positive": ExperimentConfig.from_dict,
}


def _load_benchmark(name):
    """The benchmark's ``perfbench/<name>.py`` as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load_benchmark("workloads")
_TRACER = _load_benchmark("tracer")


@pytest.mark.parametrize("name", [
    "README.md",
    *sorted(p.name for p in DATA.glob("*.config.json")),
    # the benchmark's generated configs, so a stricter key set cannot fail its runs unseen
    *(f"perfbench/{workload}/{seed}" for workload in sorted(_WORKLOADS.WHY) for seed in range(3)),
])
def test_shipped_configs_load(name):
    if name.startswith("perfbench/"):
        _, workload, seed = name.split("/")
        specs = _WORKLOADS.generate(workload, int(seed))
        assert len(_WORKLOADS.build(specs)) == len(specs)
        return
    if name != "README.md":
        (reader,) = [r for prefix, r in _READERS.items() if name.startswith(prefix)]
        reader(load_config(DATA / name))
        return
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Experiment config (JSON)", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = ExperimentConfig.from_dict(json.loads(block))
    assert cfg.h_list == [8, 16, 32, 64] and cfg.base_curve_spec == {"type": "minimize_action", "N": 64}


def _stripped_flow(space, centre, x0, x1):
    return _WORKLOADS.strip_config(ExperimentConfig.from_dict(
        {"space": space, "family": {"name": "quadratic", "params": {"center": centre}}, "x0": x0,
         "x1": x1, "h_list": [4], "mode": "flow", "base_curve": {"type": "geodesic", "N": 2}}))


# flow recoveries on the numeric resolvents: Brent on a tripod, proximal gradient on quantile vectors
_STRIPPED_TRIPOD = _stripped_flow({"kind": "tripod"}, [1, 0.2], [0, 0.3], [2, 0.3])
_STRIPPED_QUANTILE = _stripped_flow({"kind": "quantile_1d", "grid_size": 3}, 0.0, [0, 0.5, 1], [1, 1.5, 2])


def test_tracer_finds_every_name_it_pins():
    # the tracer hooks functions by name and keys its resolvent metrics on
    # the solvers' ``method`` labels, so a renamed or deleted pin reads 0
    f = quadratic(HL, HL.point(1.0))
    with _TRACER.Tracer() as tracer:
        for cfg in (_STRIPPED_TRIPOD, _STRIPPED_QUANTILE):
            assert "error" not in harness.run_positive(cfg).rows[0]
        proximal.resolvent(f, HL, 0.1, HL.point(0.5))
        proximal.resolvent(strip_closed_forms(f), HL, 0.1, HL.point(0.5))
        curves.minimize_action(quadratic(E1, E1.point(0.0)), E1, E1.point(0.0), E1.point(1.0), 8)
    stats = tracer.layer_stats()
    pinned = [f"proximal.resolvent.{method}.calls" for method in _TRACER.SOLVERS]
    for name in pinned + ["curves.minimize_action.sweeps", "harness.parallel_map.calls"]:
        assert stats[name] > 0, name


@pytest.mark.parametrize("cfg, want", [
    (_STRIPPED_TRIPOD, {"spaces.distance.calls": 2694, "functionals.evaluate.calls": 2000,
                        "proximal.resolvent.per_edge_golden.calls": 96,
                        "proximal.resolvent.per_edge_golden.iterations": 1377,
                        "proximal.resolvent.proximal_gradient.calls": 0,
                        "proximal.resolvent.proximal_gradient.iterations": 0,
                        "flow.flow_times.steps": 96}),
    (_STRIPPED_QUANTILE, {"spaces.distance.calls": 5631, "functionals.evaluate.calls": 2780,
                          "proximal.resolvent.per_edge_golden.calls": 0,
                          "proximal.resolvent.per_edge_golden.iterations": 0,
                          "proximal.resolvent.proximal_gradient.calls": 96,
                          "proximal.resolvent.proximal_gradient.iterations": 288,
                          "flow.flow_times.steps": 96}),
], ids=["tripod", "quantile"])
def test_tracer_counts_of_the_stripped_flows(cfg, want):
    # the hot path's work as the benchmark's tracer counts it: an edit that
    # drops a probe point or an evaluation, or adds one, moves a count
    with _TRACER.Tracer() as tracer:
        assert "error" not in harness.run_positive(cfg).rows[0]
    stats = tracer.layer_stats()
    assert {name: stats[name] for name in want} == want


_VALID_CONFIG = {
    "space": {"kind": "euclidean", "dim": 1},
    "family": {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0},
               "scale_law": "1 + 1/h", "limit": None, "scale_limit": 1.0},
    "x0": 0.0,
    "x1": [1.0],
    "x0_law": "1/h",
    "x1_law": ["1"],
    "h_list": [8, 16],
    "mode": "resolvent",
    "base_curve": {"type": "geodesic", "N": 8},
    "tolerances": {"margin": 0.05, "d_inf_tol": 0.02},
    "liminf": {"tail_from": 8, "slack": 0.01, "tau_law": "1/(h*h)"},
}

# the keys only vanishing mode reads, on a family with a scalable base
_VALID_VANISHING = {
    **_VALID_CONFIG,
    "space": {"kind": "half_line"},
    "family": {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0}},
    "x0": 1.0,
    "x1": [2.0],
    "x0_law": "1 + 1/h",
    "mode": "vanishing",
    "eps_law": "1/h",
    "tolerances": {"margin": 0.05, "d_inf_tol": 0.02, "slope_cap": 10.0},
}


def _value_paths(value, path=()):
    """Every key path of a JSON value, nested keys and list indices included."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _value_paths(v, path + (k,))


# integers stay small, so that no replaced value builds a huge space or grid
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=64)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(["euclidean", "half_line", "tripod", "quantile_1d", "quadratic", "zero",
                       "example1", "example2", "linear", "flow", "vanishing", "1/h"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["kind", "dim", "grid_size", "edge_lengths", "name", "params", "center",
                         "lam", "eps", "h", "c", "type", "N"]) | st.text(max_size=4),
        inner,
        max_size=3,
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(base, path) for base in (_VALID_CONFIG, _VALID_VANISHING)
                        for path in _value_paths(base)]), _json_values)
def test_experiment_config_raises_only_documented_errors(base_path, value):
    base, path = base_path
    obj = copy.deepcopy(base)
    parent = obj
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    try:
        ExperimentConfig.from_dict(obj)
    except (ConfigError, DomainError):
        pass


@pytest.mark.parametrize(
    "base, path, value, message",
    [
        (_VALID_CONFIG, ("discretisation",), {"N": 8}, "unknown config key 'discretisation'"),
        (_VALID_CONFIG, ("space", "dimm"), 1, "unknown config key 'dimm'; did you mean 'dim'?"),
        (_VALID_CONFIG, ("family", "params", "lamb"), 1.0, "unknown config key 'lamb'; did you mean 'lam'?"),
        (_VALID_CONFIG, ("tolerances", "colour"), 1.0, "unknown config key 'colour'"),
        (_VALID_CONFIG, ("x0_law",), ["1/h", "1"],
         "config key 'x0_law' must give one law per coordinate (1), got 2"),
        (_VALID_CONFIG, ("x1_law",), True, "law True is not a number or a string"),
        (_VALID_VANISHING, ("eps_law",), False, "law False is not a number or a string"),
        (_VALID_CONFIG, ("base_curve", "N"), 0, "config key 'N' must be at least 1, got 0"),
        # nothing in an experiment config reads a certificate size, and the base grid
        # has one home, ``base_curve.N``
        (_VALID_CONFIG, ("discretization",), {"n_certificate": -3}, "unknown config key 'discretization'"),
        (_VALID_CONFIG, ("base_curve", "type"), "spline", "unknown base curve type 'spline'"),
        (_VALID_CONFIG, ("mode",), ["flow"],
         "config key 'mode' must be resolvent, flow or vanishing, got ['flow']"),
        (_VALID_VANISHING, ("tolerances", "slope_cap"), "10",
         "config key 'slope_cap' must be a finite number, got '10'"),
    ],
    ids=["discretisation", "dimm", "lamb", "colour", "x0_law_count", "x1_law_true", "eps_law_false",
         "N_zero", "n_certificate_negative", "base_curve_type", "mode_list", "slope_cap_string"],
)
def test_experiment_config_rejects_when_read(base, path, value, message):
    obj = copy.deepcopy(base)
    parent = obj
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(obj)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kind, obj, message",
    [
        ("positive", {**_VALID_CONFIG, "eps_law": "1/h"}, "unknown config key 'eps_law'; the vanishing mode reads it"),
        ("positive", {**_VALID_CONFIG, "tolerances": {"slope_cap": 5.0}},
         "unknown config key 'slope_cap'; the vanishing mode reads it"),
        ("positive", {**_VALID_CONFIG, "family": {"name": "quadratic", "eps_law": "1"}},
         "unknown config key 'eps_law'; the example1 family reads it"),
        ("positive", {**_VALID_CONFIG, "family": {"name": "example2", "scale_law": "2"}},
         "unknown config key 'scale_law'; the catalogue family reads it"),
        ("positive", {**_VALID_CONFIG, "base_curve": {"type": "geodesic", "path": "c.csv"}},
         "unknown config key 'path'; the csv base_curve reads it"),
        ("positive", {**_VALID_CONFIG, "space": {"kind": "tripod", "grid_size": 4}},
         "unknown config key 'grid_size'; the quantile_1d space reads it"),
        ("example1", {"h_list": [4], "discretization": {"N": 16}},
         "unknown config key 'N'; the example2 experiment reads it"),
        ("example2", {"h_list": [4], "eps_law": "1/h"}, "unknown config key 'eps_law'; the example1 experiment reads it"),
        # a vanishing family's own name reads these only outside vanishing mode, which is no fix
        ("positive", {**_VALID_VANISHING, "family": {"name": "quadratic", "scale_law": "2"}},
         "unknown config key 'scale_law'"),
        ("positive", {**_VALID_VANISHING, "family": {"name": "quadratic", "eps_law": "1"}},
         "unknown config key 'eps_law'"),
        # a certified config has no mode, so no mode is a fix
        ("example1", {"h_list": [4], "tolerances": {"d_inf_tol": 0.1}}, "unknown config key 'd_inf_tol'"),
    ],
    ids=["mode_eps_law", "mode_slope_cap", "family_eps_law", "family_scale_law", "base_curve_path",
         "space_grid_size", "example1_N", "example2_eps_law", "vanishing_family_scale_law",
         "vanishing_family_eps_law", "certified_d_inf_tol"],
)
def test_unknown_key_hint_names_the_variant_that_reads_it(kind, obj, message):
    # the nearest key of the config's own variant pointed away from the fix
    # (``eps_law`` beside ``mode: resolvent`` suggested ``x1_law``)
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(obj) if kind == "positive" else certified_args(kind, obj)
    assert str(info.value) == message


# --------------------------------------------------------------------------
# positive experiments
# --------------------------------------------------------------------------


def quadratic_positive_config(h_list=(8, 16, 32, 64), mode="resolvent"):
    return ExperimentConfig.from_dict(
        {
            "space": {"kind": "euclidean", "dim": 1},
            "family": {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0}},
            "x0": 0.0,
            "x1": 1.0,
            "x0_law": "1/h",
            "x1_law": "1",
            "h_list": list(h_list),
            "mode": mode,
            "base_curve": {"type": "minimize_action", "N": 64},
            "tolerances": {"margin": 0.05, "d_inf_tol": 0.02},
        }
    )


@pytest.fixture(scope="module")
def quadratic_positive_report():
    return run_positive(quadratic_positive_config())


def test_positive_quadratic_consistent(quadratic_positive_report):
    rep = quadratic_positive_report
    assert rep.verdict is Verdict.CONSISTENT
    last = rep.rows[-1]
    assert last["gap"] <= 0.05
    assert last["d_inf"] <= 0.02


def test_positive_quadratic_monotone_tail(quadratic_positive_report):
    rows = quadratic_positive_report.rows
    gaps = [r["gap"] for r in rows]
    dinfs = [r["d_inf"] for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(dinfs, dinfs[1:]))


def test_positive_zero_family_exact():
    cfg = ExperimentConfig.from_dict(
        {
            "space": {"kind": "euclidean", "dim": 1},
            "family": {"name": "zero"},
            "x0": 0.0,
            "x1": 1.0,
            "h_list": [2, 4, 8],
            "base_curve": {"type": "geodesic", "N": 32},
        }
    )
    rep = run_positive(cfg)
    assert rep.verdict is Verdict.CONSISTENT
    for row in rep.rows:
        assert row["theta_h"] == pytest.approx(row["theta_target"], abs=1e-12)
        assert row["d_inf"] <= 1e-12


def test_positive_law_failure_gives_error_row():
    # x0_law leaves the half-line at h=1 only: that row records the error
    # and the other rows still run
    cfg = ExperimentConfig.from_dict(
        {
            "space": {"kind": "half_line"},
            "family": {"name": "quadratic", "params": {"center": 0.0, "lam": 1.0}},
            "x0": 0.5,
            "x1": 1.0,
            "x0_law": "0.5 - 1/h",
            "h_list": [1, 8, 16],
        }
    )
    rows = run_positive(cfg).rows
    assert [r["h"] for r in rows] == [1, 8, 16]
    assert "half-line" in rows[0]["error"]
    assert rows[0]["theta_h"] == math.inf and rows[0]["pass"] is False
    for row in rows[1:]:
        assert "error" not in row
        assert math.isfinite(row["theta_h"])


def test_positive_csv_base_curve(tmp_path):
    gamma = geodesic_curve(E1, E1.point(0.0), E1.point(1.0), 16)
    (tmp_path / "gamma.csv").write_text(curve_to_csv(gamma))
    cfg = ExperimentConfig.from_dict(
        {
            "space": {"kind": "euclidean", "dim": 1},
            "family": {"name": "zero"},
            "x0": 0.0,
            "x1": 1.0,
            "h_list": [2, 4, 8],
            "base_curve": {"type": "csv", "path": str(tmp_path / "gamma.csv")},
        }
    )
    base, meta = resolve_base_curve(cfg)
    assert meta == {}
    assert base.times == pytest.approx(gamma.times)
    assert [p.coords for p in base.points] == pytest.approx([p.coords for p in gamma.points])
    assert run_positive(cfg).verdict is Verdict.CONSISTENT


def test_positive_quadratic_flow_mode():
    rep = run_positive(quadratic_positive_config(mode="flow"))
    assert rep.verdict is Verdict.CONSISTENT
    assert rep.rows[-1]["gap"] <= 0.05
    assert rep.rows[-1]["d_inf"] <= 0.02


def test_positive_vanishing_inverse_square():
    # scaled inverse-square family with fixed interior endpoints: the limit
    # potential vanishes and actions approach the kinetic-only value
    cfg = ExperimentConfig.from_dict(
        {
            "space": {"kind": "half_line"},
            "family": {"name": "example1"},
            "x0": 1.0,
            "x1": 2.0,
            "x0_law": "1",
            "x1_law": "2",
            "h_list": [1, 2, 3, 4, 5],
            "mode": "vanishing",
            "eps_law": "pow(4, -h)",
            "base_curve": {"type": "geodesic", "N": 64},
            "tolerances": {"margin": 0.05, "d_inf_tol": 0.05},
        }
    )
    rep = run_positive(cfg)
    assert rep.rows[-1]["theta_h"] == pytest.approx(1.0, abs=0.05)
    assert rep.verdict is Verdict.CONSISTENT


# --------------------------------------------------------------------------
# certified counterexamples
# --------------------------------------------------------------------------


def test_crossing_lower_bound_constant_potential():
    xs = np.linspace(0.0, 0.25, 257)
    got = crossing_lower_bound(xs, lambda x: 4.0 if x < 0.25 else 0.0)
    assert got == pytest.approx(2.0 - 2.0 / 256, rel=1e-12)


def test_example1_report_bounds_and_slopes():
    rep = run_example1([100, 1000, 10000], n_certificate=512)
    assert rep.verdict is Verdict.VIOLATED
    for row in rep.rows:
        eps = row["eps"]
        seps = math.sqrt(eps)
        two_segment_bound = 0.5 + (1 - 2 * seps) ** 2
        assert row["coarse_lower_bound"] == pytest.approx(two_segment_bound, rel=1e-9)
        assert row["certified_lower_bound"] >= two_segment_bound - 0.05
        assert row["certified_lower_bound"] > row["theta_target"] + 0.05
        assert row["slope_x0_closed"] == pytest.approx(2.0 / seps, rel=1e-9)
        assert row["slope_x0_sup"] == pytest.approx(2.0 / seps, rel=1e-2)
    assert rep.rows[0]["certified_lower_bound"] >= 0.5 + 0.8**2 - 0.05  # eps = 1e-2
    assert rep.witness is not None


def test_example1_failing_eps_gives_error_rows(tmp_path):
    # eps = 1/(h-8) is negative at h=4 and undefined at h=8; those rows
    # record the error, h=16 still runs and the verdict stays inconclusive
    rep = run_example1([4, 8, 16], n_certificate=64, eps_law="1/(h-8)")
    assert [r["h"] for r in rep.rows] == [4, 8, 16]
    bad_eps, bad_law, good = rep.rows
    assert "eps=-0.25" in bad_eps["error"] and "h=4" in bad_eps["error"]
    assert "h=8" in bad_law["error"] and "division by zero" in bad_law["error"]
    for row in (bad_eps, bad_law):
        assert math.isnan(row["certified_lower_bound"]) and math.isnan(row["eps"])
        assert row["pass"] is False
    assert "error" not in good and good["certified_lower_bound"] > good["theta_target"]
    assert rep.verdict is Verdict.INCONCLUSIVE
    _, json_path = emit_report(rep, tmp_path, "ex1")
    assert json.loads(json_path.read_text())["rows"][0]["eps"] == "nan"


def test_example1_bound_limit_value():
    # as eps -> 0 the two-segment bound approaches 1/2 + 1 = 3/2
    rep = run_example1([10**6], n_certificate=512)
    assert rep.rows[0]["coarse_lower_bound"] == pytest.approx(1.5, abs=1e-2)


def test_example2_report_certificate():
    rep = run_example2([4, 16, 64], n_certificate=1024, with_optimizer=False)
    assert rep.verdict is Verdict.VIOLATED
    for row in rep.rows:
        assert row["amgm_lower_bound"] >= 2.0 - 0.05
        assert row["amgm_lower_bound"] <= 2.0
        assert row["slope_x0"] == row["h"]
        assert row["theta_target"] == pytest.approx(1.0, abs=1e-6)
    # the certificate is h-independent
    vals = {round(r["amgm_lower_bound"], 9) for r in rep.rows}
    assert len(vals) == 1


def test_example2_optimizer_never_beats_certificate():
    rep = run_example2([4, 16], n_certificate=256, n_search=48)
    for row in rep.rows:
        assert row["optimizer_upper_bound"] >= 1.95
        assert row["optimizer_upper_bound"] >= row["amgm_lower_bound"] - 1e-9


def test_example2_sweep_upper_bounds_to_the_last_bit():
    # the golden CSV compares 12 digits; this pins the half-line sweep in full
    rep = run_example2([4, 8], n_certificate=256, n_search=16)
    assert [row["optimizer_upper_bound"] for row in rep.rows] == [2.1000080118307016, 3.0666775715974346]
    assert [row["optimizer_converged"] for row in rep.rows] == [False, False]


def test_example2_json_rows_carry_the_optimizer_flag(tmp_path):
    from metric_action_lab.harness import _example2_inits, _sweep_nodes

    rep = run_example2([4], n_certificate=64, n_search=8)
    csv_path, json_path = emit_report(rep, tmp_path, "ex2")
    row = json.loads(json_path.read_text())["rows"][0]
    # the flag of the search that gave the bound
    searches = [
        _sweep_nodes(ramp(4.0), HL, HL.point(0.0), HL.point(1.0), init)
        for init in _example2_inits(HL, 0.25, 8)
    ]
    _, best, info = min(searches, key=lambda s: s[1].total)
    assert row["optimizer_upper_bound"] == best.total
    assert row["optimizer_converged"] is info["converged"]
    assert "optimizer_converged" not in csv_path.read_text()
    assert run_example2([4], n_certificate=64, with_optimizer=False).rows[0]["optimizer_converged"] is None


def test_minimize_action_base_curve_reports_convergence(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "space": {"kind": "half_line"},
            "family": {"name": "quadratic", "params": {"center": 0.5}},
            "x0": 0.2,
            "x1": 1.0,
            "h_list": [2],
            "base_curve": {"type": "minimize_action", "N": 8},
        }
    )
    _, json_path = emit_report(run_positive(cfg), tmp_path, "pos")
    _, _, info = minimize_action(cfg.family.limit, HL, cfg.x0, cfg.x1, 8)
    assert json.loads(json_path.read_text())["meta"]["base_curve_converged"] is info["converged"] is True


def test_verdict_soundness_gate():
    # violation is only declared when the certificate clears target + margin
    rep = run_example2([4], n_certificate=128, with_optimizer=False, margin=5.0)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.witness is None


def test_example_runs_with_empty_h_list(tmp_path):
    rep = run_example1([], n_certificate=64)
    assert rep.verdict is Verdict.INCONCLUSIVE
    csv_path, _ = emit_report(rep, tmp_path, "empty1")
    assert csv_path.read_text().count("\n") == 1  # header only


@pytest.mark.parametrize("n_certificate", [-3, 0])
def test_certified_examples_reject_n_certificate_below_one(n_certificate):
    # called directly, as the library API, not through a config
    message = f"config key 'n_certificate' must be at least 1, got {n_certificate}"
    with pytest.raises(ConfigError, match=message):
        run_example1([4], n_certificate=n_certificate)
    with pytest.raises(ConfigError, match=message):
        run_example2([4], n_certificate=n_certificate, with_optimizer=False)


def test_eps_law_has_one_default(monkeypatch):
    # run_example1, a gamma example1 config and an example1 family share one written default
    import inspect

    assert inspect.signature(run_example1).parameters["eps_law"].default is DEFAULTS["eps_law"]
    monkeypatch.setitem(DEFAULTS, "eps_law", "2/h")
    assert certified_args("example1", {"h_list": [4]})["eps_law"] == "2/h"
    fam = family_from_config(HL, {"name": "example1"})
    assert fam.member(4).evaluate(HL.point(1.0)) == inverse_square(0.5).evaluate(HL.point(1.0))


def test_slope_cap_has_one_default():
    # the library default and the config default are one written value
    from metric_action_lab.recovery import RecoveryConfig, RecoveryMode

    rcfg = RecoveryConfig(RecoveryMode.VANISHING, None, None, None)
    assert rcfg.slope_cap is DEFAULTS["slope_cap"]


# --------------------------------------------------------------------------
# liminf probe
# --------------------------------------------------------------------------


def test_liminf_constant_sequence_equality():
    f = quadratic(E1, E1.point(0.0), 1.0)
    fam = FunctionalFamily(member=lambda h: f, limit=f)
    gamma = geodesic_curve(E1, E1.point(0.0), E1.point(1.0), 64)
    rep = liminf_probe(fam, [1, 2, 4], lambda h, f_h: gamma, gamma)
    assert rep.verdict is Verdict.CONSISTENT
    for row in rep.rows:
        assert row["difference"] == pytest.approx(0.0, abs=1e-12)


def test_liminf_resolvent_images_quadratic():
    f = quadratic(E1, E1.point(0.0), 1.0)
    fam = FunctionalFamily(member=lambda h: f, limit=f)
    gamma = geodesic_curve(E1, E1.point(0.0), E1.point(1.0), 64)
    rep = liminf_probe(fam, [8, 16, 32, 64],
                       lambda h, f_h: gamma.mapped(lambda p: resolvent(f_h, E1, 1.0 / h, p).point),
                       gamma, tail_from=64, slack=0.05)
    assert rep.verdict is Verdict.CONSISTENT
    # closed form: the image of the curve scales by 1/(1+tau), so its action
    # undershoots by theta (1 - 1/(1+tau)^2), vanishing along the tail
    for row in rep.rows:
        tau = 1.0 / row["h"]
        expect = row["theta_limit"] * (1.0 / (1.0 + tau) ** 2 - 1.0)
        assert row["difference"] == pytest.approx(expect, abs=1e-3)
    dinfs = [row["d_inf"] for row in rep.rows]
    assert all(b <= a for a, b in zip(dinfs, dinfs[1:]))


def test_liminf_ramp_family_straight_curve():
    fam = FunctionalFamily(member=lambda h: ramp(float(h)), limit=zero_functional(HL))
    gamma = geodesic_curve(HL, HL.point(0.0), HL.point(1.0), 256)
    rep = liminf_probe(fam, [4, 8, 16], lambda h, f_h: gamma, gamma)
    assert rep.verdict is Verdict.CONSISTENT
    for row in rep.rows:
        # potential toll of the straight curve under the ramp: about h
        assert row["difference"] == pytest.approx(row["h"], rel=0.2)


def test_liminf_failed_tail_row_is_inconclusive():
    # a failing index keeps its row, with nan values; a nan anywhere in the
    # tail leaves the verdict open (``min`` would skip one after a number)
    f = quadratic(E1, E1.point(0.0), 1.0)
    fam = FunctionalFamily(member=lambda h: f, limit=f)
    gamma = geodesic_curve(E1, E1.point(0.0), E1.point(1.0), 16)

    def curve_of(h, f_h):
        if h == 16:
            raise DomainError("no curve at h=16")
        return gamma

    rep = liminf_probe(fam, [4, 8, 16], curve_of, gamma, tail_from=4)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert [row["difference"] for row in rep.rows[:2]] == [0.0, 0.0]
    assert rep.rows[2]["error"] == "no curve at h=16"
    assert all(math.isnan(rep.rows[2][k]) for k in ("theta_h", "difference", "d_inf"))


def test_run_liminf_builds_each_member_once():
    cfg = ExperimentConfig.from_dict(
        {"space": {"kind": "euclidean", "dim": 1},
         "family": {"name": "quadratic", "params": {"center": 0.0}, "scale_law": "1 + 1/h"},
         "x0": 0.0, "x1": 1.0, "h_list": [2, 4], "base_curve": {"type": "geodesic", "N": 8}}
    )
    built = []
    member = cfg.family.member
    counted = dataclasses.replace(cfg, family=dataclasses.replace(
        cfg.family, member=lambda h: built.append(h) or member(h)))
    assert run_liminf(counted).rows == run_liminf(cfg).rows
    assert built == [2, 4]


@pytest.mark.parametrize("mode", ["resolvent", "flow"])
def test_run_positive_builds_each_member_once(mode):
    # the recovery output carries the member its pieces were built for
    cfg = ExperimentConfig.from_dict(
        {"space": {"kind": "euclidean", "dim": 1},
         "family": {"name": "quadratic", "params": {"center": 0.0}, "scale_law": "1 + 1/h"},
         "x0": 0.0, "x1": 1.0, "x0_law": "1/h", "h_list": [2, 4], "mode": mode,
         "base_curve": {"type": "geodesic", "N": 8}}
    )
    built = []
    member = cfg.family.member
    counted = dataclasses.replace(cfg, family=dataclasses.replace(
        cfg.family, member=lambda h: built.append(h) or member(h)))
    assert run_positive(counted).rows == run_positive(cfg).rows
    assert built == [2, 4]


# --------------------------------------------------------------------------
# persistence and determinism
# --------------------------------------------------------------------------


def test_emit_report_empty_rows(tmp_path):
    rep = ExperimentReport(columns=["h", "x"], rows=[], verdict=Verdict.INCONCLUSIVE)
    csv_path, json_path = emit_report(rep, tmp_path, "empty")
    assert csv_path.read_text() == "h,x\n"
    payload = json.loads(json_path.read_text())
    assert payload["verdict"] == "Inconclusive"
    assert payload["schema"] == 1


def test_emit_report_handles_infinities(tmp_path):
    rep = ExperimentReport(
        columns=["h", "v"],
        rows=[{"h": 1, "v": math.inf}],
        verdict=Verdict.INCONCLUSIVE,
    )
    csv_path, json_path = emit_report(rep, tmp_path, "inf")
    assert "inf" in csv_path.read_text()
    payload = json.loads(json_path.read_text())  # must stay valid json
    assert payload["rows"][0]["v"] == "inf"


def test_emit_report_byte_stable(tmp_path):
    rep1 = run_example2([4, 16], n_certificate=128, with_optimizer=False)
    rep2 = run_example2([4, 16], n_certificate=128, with_optimizer=False)
    p1 = emit_report(rep1, tmp_path / "a", "r")
    p2 = emit_report(rep2, tmp_path / "b", "r")
    assert p1[0].read_bytes() == p2[0].read_bytes()
    assert p1[1].read_bytes() == p2[1].read_bytes()


def test_parallel_map_matches_serial():
    items = list(range(20))
    fn = lambda x: x * x + 1
    assert parallel_map(fn, items) == [fn(x) for x in items]


def test_example2_thread_count_invariance(monkeypatch, tmp_path):
    monkeypatch.setenv("METRIC_ACTION_LAB_THREADS", "1")
    r1 = run_example2([4, 16, 64], n_certificate=256, with_optimizer=False)
    monkeypatch.setenv("METRIC_ACTION_LAB_THREADS", "8")
    r2 = run_example2([4, 16, 64], n_certificate=256, with_optimizer=False)
    a = emit_report(r1, tmp_path / "t1", "r")
    b = emit_report(r2, tmp_path / "t8", "r")
    assert a[0].read_bytes() == b[0].read_bytes()
    assert a[1].read_bytes() == b[1].read_bytes()
