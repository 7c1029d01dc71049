"""Hygiene of the package.

Four static rules over every module in `src/toruskam`, checked with `ast`:
  * every imported name is used in the module that imports it;
  * every function and class that is not a dunder is named somewhere
    besides its own definition, in `src/` or `tests/`, and every method
    is referenced there as an attribute (`obj.name`): a local variable of
    the same name does not count as a use;
  * every parameter with a default is set by some call in `src/` or
    `tests/`, by name, by position, or through `*`/`**`: a default no
    caller overrides is a constant, not a setting;
  * likewise every dataclass field with a default, which may also be set
    by a `replace(...)` call or an attribute assignment (`obj.field = ...`);
  * no function imports inside its body: a module's imports sit at its top.
One count rule: the settable values, config leaves (`config.DEFAULTS`)
plus defaulted parameters plus defaulted dataclass fields as the walkers
above find them, number at most `SETTABLE_VALUES`; a change that adds a
setting raises that ceiling in plain sight.
One policy rule: the condition cap of the lattice inversions is
`homological.COND_CAP`, which no other module names and no function takes
as a `cond_cap` parameter.
One transform rule: only `fourier` reaches `numpy.fft`, so `jets` transforms
through its embedding.  One state rule: no module imports `contextvars`; a
Lie series hands its state to each bracket as an argument.  One event rule:
no module imports `warnings`; what a run meets is an event in its report.  Four import
rules, checked in fresh interpreters: `toruskam.cli` loads no scipy
module, nor `fractions` or `decimal`; `dispatch` imports no module on the
benchmark workloads; and neither lattice-solve route loads scipy.  Four
run-path rules: `dispatch` builds no dense lattice operator
(`LatticeMatrix.to_dense`) on the benchmark workloads, nor on a
strong-coupling run that takes the dense route;
stability mode, whose B is diagonal, takes no n x n doubling scan;
kam-run's Lie series transform fewer parts than they would with no series
budget; and a fresh kam-run dispatch peaks below 8.5 MB traced.  One
reachability rule: every function in `src/` is called by a
walk of `dispatch` over one config per mode and route, or is listed in
`UNREACHED` with a test that runs it.  numpy is the only runtime
dependency in `pyproject.toml`; scipy is a test oracle.
"""

import ast
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toruskam"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(node):
    """Names an import statement binds in its module."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def _references(tree) -> tuple:
    """Every identifier a tree names outside `def`/`class` headers, and
    every one it names as an attribute."""
    refs, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
            attrs[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            refs.update(a.name.split(".")[-1] for a in node.names)
    return refs, attrs


def unused_imports() -> list:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}: import {name}"
                          for name in _bound_names(node) if name not in used]
    return found


def unreferenced_definitions() -> list:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    refs, attrs = Counter(), Counter()
    for path in files:
        r, a = _references(_parse(path))
        refs += r
        attrs += a
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                used = (attrs if id(node) in methods else refs)[name]
                if not (name.startswith("__") and name.endswith("__")) \
                        and used == 0:
                    found.append(f"{path.name}: def {name}")
    return found


def _defaulted_parameters(tree) -> list:
    """(function, parameter, position or None) of every parameter with a
    default, keyword-only ones without a position.  A method's positions
    start after self or cls, and `__init__` is listed under its class, as
    `Cls(...)` calls it."""
    owner = {id(node): cls.name for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) for node in cls.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        static = any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                     for dec in node.decorator_list)
        skip = int(id(node) in owner and not static)
        name = owner[id(node)] if node.name == "__init__" \
            and id(node) in owner else node.name
        args = node.args
        pos = args.posonlyargs + args.args
        found += [(name, pos[i].arg, i - skip)
                  for i in range(len(pos) - len(args.defaults), len(pos))]
        found += [(name, a.arg, None)
                  for a, dflt in zip(args.kwonlyargs, args.kw_defaults)
                  if dflt is not None]
    return found


def _settings() -> tuple:
    """What the calls and assignments in `src/` and `tests/` set: the
    (name called, keyword) pairs, with "**" for a `**` argument and "*"
    for a starred positional one; the most positional arguments of any
    call per name called; and every attribute name assigned
    (`obj.name = ...`) or passed by keyword to a dataclass `replace`."""
    keywords, positions, attributes = set(), Counter(), set()
    for path in sorted(PACKAGE.glob("*.py")) \
            + sorted((ROOT / "tests").glob("*.py")):
        tree = _parse(path)
        replace = {"replace"} | {
            a.asname for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "dataclasses"
            for a in node.names if a.name == "replace" and a.asname}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                attributes.update(
                    t.attr for target in targets for t in ast.walk(target)
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.ctx, ast.Store))
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            keywords.update((name, kw.arg or "**") for kw in node.keywords)
            if any(isinstance(a, ast.Starred) for a in node.args):
                keywords.add((name, "*"))
            positions[name] = max(positions[name], len(node.args))
            if name in replace:
                attributes.update(kw.arg for kw in node.keywords)
    return keywords, positions, attributes


def _is_set(keywords, positions, fn, arg, pos) -> bool:
    return (fn, arg) in keywords or (fn, "**") in keywords \
        or pos is not None and ((fn, "*") in keywords or positions[fn] > pos)


def unset_parameters() -> list:
    """Defaulted parameters no call sets.  A call is matched by the name
    it calls (`f(...)`, `obj.f(...)`), so a call of a same-named function
    elsewhere counts too: the rule can miss a parameter, never invent
    one."""
    keywords, positions, _ = _settings()
    return [f"{path.name}: {fn}({arg}=...)"
            for path in sorted(PACKAGE.glob("*.py"))
            for fn, arg, pos in _defaulted_parameters(_parse(path))
            if not _is_set(keywords, positions, fn, arg, pos)]


def _defaulted_fields(tree) -> list:
    """(class, field, position) of every dataclass field with a default."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [dec.func if isinstance(dec, ast.Call) else dec
                      for dec in cls.decorator_list]
        if not any(getattr(dec, "id", getattr(dec, "attr", None))
                   == "dataclass" for dec in decorators):
            continue
        fields = [node for node in cls.body
                  if isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)]
        found += [(cls.name, node.target.id, i)
                  for i, node in enumerate(fields) if node.value is not None]
    return found


def unset_fields() -> list:
    """Defaulted dataclass fields that no constructor call sets, by name
    or position, and no `replace` call or attribute assignment sets.
    Calls match by name as for parameters, and an assignment or `replace`
    keyword counts for every field of that name."""
    keywords, positions, attributes = _settings()
    return [f"{path.name}: {cls}.{field}"
            for path in sorted(PACKAGE.glob("*.py"))
            for cls, field, pos in _defaulted_fields(_parse(path))
            if field not in attributes
            and not _is_set(keywords, positions, cls, field, pos)]


# the ceiling of the count rule
SETTABLE_VALUES = 101


def settable_values() -> int:
    """Config leaves plus defaulted parameters plus defaulted dataclass
    fields."""
    from toruskam.config import DEFAULTS

    def leaves(tree):
        return sum(leaves(v) if isinstance(v, dict) else 1
                   for v in tree.values())
    trees = [_parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    return leaves(DEFAULTS) + sum(len(_defaulted_parameters(t))
                                  + len(_defaulted_fields(t)) for t in trees)


def function_body_imports() -> list:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(_parse(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {fn.name}"
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    return found


def cond_cap_knowledge() -> tuple:
    """Functions with a `cond_cap` parameter, and the modules that name
    `COND_CAP`."""
    params, naming = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params += [f"{path.name}: {node.name}" for arg in
                           a.posonlyargs + a.args + a.kwonlyargs
                           if arg.arg == "cond_cap"]
            elif isinstance(node, ast.Name) and node.id == "COND_CAP" \
                    or isinstance(node, ast.Attribute) \
                    and node.attr == "COND_CAP":
                naming.add(path.name)
    return params, naming


def test_no_unused_imports():
    assert unused_imports() == []


def test_no_unreferenced_definitions():
    assert unreferenced_definitions() == []


def test_every_default_is_overridden_somewhere():
    assert unset_parameters() == []


def test_every_dataclass_default_is_set_somewhere():
    assert unset_fields() == []


def test_settable_values_within_ceiling():
    assert settable_values() <= SETTABLE_VALUES


def test_no_imports_inside_functions():
    assert function_body_imports() == []


def test_condition_cap_lives_in_homological():
    assert cond_cap_knowledge() == ([], {"homological.py"})


def _fresh_python(code: str, *args: str) -> str:
    """Standard output of `code` run in a fresh interpreter that imports
    toruskam from `src/`."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def fft_uses(path) -> list:
    """Where a module reaches `numpy.fft`: an import of it or of a name
    from it, or an attribute `.fft` of `np`/`numpy`."""
    found = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("numpy.fft") \
                or isinstance(node, ast.ImportFrom) \
                and node.module == "numpy" \
                and any(a.name == "fft" for a in node.names) \
                or isinstance(node, ast.Import) \
                and any(a.name.startswith("numpy.fft") for a in node.names) \
                or isinstance(node, ast.Attribute) and node.attr == "fft" \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            found.append(f"{path.name}:{node.lineno}")
    return found


def imported_modules(path) -> set:
    """The top-level names of every module a file imports."""
    found = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_no_context_variables():
    # state travels as arguments and lives with its owner: a Lie series'
    # budget and memos on its generator's side, handed to each bracket
    assert [m.name for m in sorted(PACKAGE.glob("*.py"))
            if "contextvars" in imported_modules(m)] == []


def test_src_imports_no_warnings():
    # what a run meets -- a capped cutoff, a dropped mean of R^x -- is an
    # event in its report, never a Python warning
    assert [m.name for m in sorted(PACKAGE.glob("*.py"))
            if "warnings" in imported_modules(m)] == []


def test_jets_transforms_only_through_fourier():
    # the bracket kernel reaches the FFT only through `fourier`'s embedding
    # (`_wrapped_transform`, `_kept_inverse`), so a test that patches those
    # sees every transform; `fourier` is the one module that calls numpy.fft
    assert fft_uses(PACKAGE / "jets.py") == []
    assert [m.name for m in sorted(PACKAGE.glob("*.py")) if fft_uses(m)] \
        == ["fourier.py"]


def test_cli_import_loads_no_scipy():
    code = "import sys, toruskam.cli; print(*sorted(sys.modules))"
    loaded = _fresh_python(code).split()
    assert "toruskam.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_cli_import_loads_no_fractions_or_decimal():
    # the CSV kernel's power table comes from int arithmetic: either module
    # would add its import to every run's set-up
    code = "import sys, toruskam.cli; print(*sorted(sys.modules))"
    loaded = _fresh_python(code).split()
    assert "toruskam.csvfmt" in loaded
    assert {"fractions", "decimal"}.isdisjoint(loaded)


GOLDEN = (1.0 + 5.0 ** 0.5) / 2.0

# the three benchmark workloads' configs at seed 1, to three digits
WORKLOAD_CONFIGS = {
    "kam-run": {
        "mode": "run", "seed": 1, "omega": [1.0, GOLDEN], "Omega": [1.17],
        "caps": {"levels": 3, "N_max": 24, "gamma": 1e-4},
        "perturbation": {"kind": "random-tail", "amplitude": 1e-6,
                         "kmax": 26}},
    "sigma-scan": {
        "mode": "sigma-scan", "seed": 1, "omega": [1.0, GOLDEN],
        "Omega": [1.17], "perturbation": {"mode": [1, 0]},
        "greens": {"N": 8, "coupling_eps": 0.05, "coupling_rho": 0.5},
        "sigma_scan": {"range": [-0.488, 0.512], "norm_target": 100.0,
                       "alpha_target": 0.1, "threshold": 2.0,
                       "points_per_unit": 100.0, "refine_iters": 10}},
    "stability": {
        "mode": "stability", "seed": 1, "n": 2, "omega": [1.0, GOLDEN],
        "Omega": [1.17, 1.43],
        "perturbation": {"kind": "cosine", "amplitude": 0.01,
                         "mode": [1, 0]},
        "stability": {"T": 100.0, "dt": 1e-3, "phases": [[3.216, 5.972]],
                      "z0_real": [0.617, 0.948],
                      "z0_imag": [0.787, -0.317]}},
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CONFIGS))
def test_dispatch_imports_no_module(tmp_path, workload):
    # everything a run uses is imported with toruskam.cli, so a lazy import
    # (numpy.ma under np.unique, numpy.random, numpy.fft)
    # cannot move set-up time into the solve
    code = ("import json, sys\n"
            "from toruskam import cli, config\n"
            "cfg = config.load_config(json.loads(sys.argv[1]))\n"
            "before = set(sys.modules)\n"
            "code = cli.dispatch(cfg, sys.argv[2])\n"
            "print(code, *sorted(set(sys.modules) - before))")
    out = _fresh_python(code, json.dumps(WORKLOAD_CONFIGS[workload]),
                        str(tmp_path / "out")).split()
    assert out == ["0"]


# kam-run with eps and amplitude 1e-2: most lattice solves fail the Neumann
# gate and take the dense route on the component blocks
STRONG_CONFIG = dict(WORKLOAD_CONFIGS["kam-run"], eps=1e-2, perturbation=dict(
    WORKLOAD_CONFIGS["kam-run"]["perturbation"], amplitude=1e-2))


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CONFIGS) + ["strong"])
def test_dispatch_builds_no_dense_form(tmp_path, monkeypatch, workload):
    # the run path reads lattice operators through their symbol: no
    # `LatticeMatrix.to_dense` call, also where the components are factored
    # (sigma-scan once, the strong run on each dense-route solve)
    from toruskam import cli, config
    from toruskam.homological import LatticeMatrix
    calls = Counter()
    for name in ("to_dense", "components"):
        method = getattr(LatticeMatrix, name)

        def counted(self, _method=method, _name=name):
            calls[_name] += 1
            return _method(self)
        monkeypatch.setattr(LatticeMatrix, name, counted)
    cfg = config.load_config(STRONG_CONFIG if workload == "strong"
                             else WORKLOAD_CONFIGS[workload])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.dispatch(cfg, str(tmp_path / "out")) == 0
    assert calls["to_dense"] == 0
    assert (calls["components"] > 1) == (workload == "strong")
    assert (calls["components"] == 1) == (workload == "sigma-scan")


def test_uncoupled_stability_takes_no_doubling_scan(tmp_path, monkeypatch):
    # stability mode's B is diagonal, so its n components are integrated
    # as scalar recurrences; one off-diagonal coefficient of 1e-12 is
    # enough to need the n x n propagators and their doubling scan
    from test_stability import PARITY_CASES
    from toruskam import cli, config, stability
    calls = Counter()
    scan = stability._prefix_products

    def counted(P):
        calls["scan"] += 1
        return scan(P)
    monkeypatch.setattr(stability, "_prefix_products", counted)
    cfg = config.load_config(WORKLOAD_CONFIGS["stability"])
    assert cli.dispatch(cfg, str(tmp_path / "out")) == 0
    assert calls["scan"] == 0
    omega, Omega, B, z0, x0 = PARITY_CASES["tiny-coupling"]
    stability.integrate_linearized(omega, Omega, B, z0, T=1.0, dt=1e-3,
                                   x0=x0)
    assert calls["scan"] >= 1


def test_lie_series_budget_skips_transforms(tmp_path, monkeypatch):
    # kam-run's Lie series book the keys of brackets 2-4 that fall below
    # the rounding of their first-order term in the tail, untransformed:
    # fewer forward transforms than the full series (budget constant 0),
    # and the report's levels say how many keys and what bound
    from toruskam import cli, config, fourier, jets
    calls = Counter()
    transform = fourier._wrapped_transform

    def counted(x, L):
        calls["transforms"] += 1
        return transform(x, L)
    for module in (fourier, jets):
        monkeypatch.setattr(module, "_wrapped_transform", counted)
    cfg = config.load_config(WORKLOAD_CONFIGS["kam-run"])
    counts, skipped = [], []
    for rounding in (jets._ROUNDING, 0.0):
        monkeypatch.setattr(jets, "_ROUNDING", rounding)
        calls.clear()
        out = tmp_path / str(rounding)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.dispatch(cfg, str(out)) == 0
        counts.append(calls["transforms"])
        levels = json.loads((out / "report.json").read_text())[
            "results"]["levels"]
        skipped.append([(lv["lie_skipped_keys"], lv["lie_skipped_bound"])
                        for lv in levels[1:]])
    assert 0 < counts[0] < counts[1]
    assert all(keys > 0 and bound > 0 for keys, bound in skipped[0])
    assert skipped[1] == [(0, 0.0)] * len(skipped[1])


@pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "a Python 3.10 call keeps its argument references on the caller's "
    "stack until it returns, so a handed-over level stays live"))
def test_kam_run_memory_peak(tmp_path):
    # a KAM level holds one live Hamiltonian while its Lie series runs:
    # `run` hands each level's P and H over, the series sums in place, and
    # `kam_step` keeps no lattice operator, so a fresh dispatch of kam-run
    # peaks below 8.5 MB traced: 7.3 MB, against 9.6 MB with the level's
    # state, H, the old partial sums and the operators all live, and 8.7 MB
    # with the sums and operators released but the level not handed over
    code = ("import json, sys, tracemalloc\n"
            "from toruskam import cli, config\n"
            "cfg = config.load_config(json.loads(sys.argv[1]))\n"
            "tracemalloc.start()\n"
            "code = cli.dispatch(cfg, sys.argv[2])\n"
            "print(code, tracemalloc.get_traced_memory()[1])")
    out = _fresh_python(code, json.dumps(WORKLOAD_CONFIGS["kam-run"]),
                        str(tmp_path / "out")).split()
    assert out[0] == "0"
    assert int(out[1]) < 8.5 * 2 ** 20


def test_dense_route_imports_no_scipy():
    # a Jacobi-gated solve and, with q = ||S|| / min|D| >= 1, the dense
    # route on the component blocks both run without scipy and solve to
    # their residual
    code = """if True:
        import sys
        import numpy as np
        from toruskam.fourier import FourierSeries
        from toruskam.homological import build_T, solve_lattice
        omega, Omega = np.array([0.1, 0.1618]), np.array([1.3])
        Z = FourierSeries.zero(2)
        rhs = FourierSeries.from_coeffs(2, {(0, 0): 1.0, (1, -1): 0.5j})
        for coupling in (0.05, 1.5):
            B = FourierSeries.from_coeffs(2, {(1, 0): coupling,
                                              (-1, 0): coupling})
            T = build_T(omega, Omega, B, Z, 3)
            Fz, info = solve_lattice(T, rhs, 3)
            b = -1j * np.concatenate([rhs.coeff(k)[:, 0] for k in T.region])
            u = np.concatenate([Fz.coeff(k)[:, 0] for k in T.region])
            res = np.linalg.norm(T.to_dense() @ u - b) / np.linalg.norm(b)
            print(info.route, info.residual <= 1e-12, res <= 1e-12,
                  any(m.split(".")[0] == "scipy" for m in sys.modules))
    """
    lines = _fresh_python(code).splitlines()
    assert lines == ["neumann True True False", "dense True True False"]


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")     # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
    assert any(req.startswith("scipy")
               for req in project["optional-dependencies"]["test"])


# Functions the walk below does not reach, each with a test (in `tests/`)
# that runs it.  The CWB stack (classifier, regions, coupling lemmas) and
# the certificate transfers are on no CLI path yet; the rest are refusal
# paths the walked configs do not meet, the sigma-scan bisection (the
# benchmark's boundaries all end at norm edges), the stability integrator
# that stability mode streams around, and helpers only tests call.
UNREACHED = {
    "atlas.ParameterAtlas.validate":
        "test_atlas.py::test_pave_trivial_predicate_tiles_exactly",
    "atlas.ParameterBox.contains":
        "test_atlas.py::test_pave_trivial_predicate_tiles_exactly",
    "atlas.monte_carlo_excluded": "test_atlas.py::test_monte_carlo_half_space",
    "config.ConfigError.__init__":
        "test_cli.py::test_constants_key_is_unknown",
    "config.RunConfig.__getitem__":
        "test_cli.py::test_minimal_config_fills_defaults",
    "driver.ParameterExcluded.__init__":
        "test_driver.py::test_initial_step_empty_atlas",
    "fourier.FourierSeries.coeffs":
        "test_fourier.py::test_truncate_drops_high_modes",
    "fourier.FourierSeries.mode":
        "test_fourier.py::test_product_conjugate_modes",
    "fourier.dir_derivative":
        "test_fourier.py::test_dir_derivative_constant_is_zero",
    "fourier.partial_x": "test_fourier.py::test_partial_x",
    "fourier.tail": "test_fourier.py::test_tail_complements_truncation",
    "greens.DecayCertificate.entry_bound":
        "test_greens.py::test_entry_bound_of_an_array_is_the_scalar_bound",
    "greens.neumann_transfer":
        "test_greens.py::test_neumann_zero_delta_keeps_certificate",
    "greens.site_distances": "test_greens.py::test_site_distances_l1",
    "greens.variation_delta":
        "test_greens.py::test_neumann_sound_against_direct",
    "greens.weighted_delta_norm":
        "test_greens.py::test_neumann_zero_delta_keeps_certificate",
    "greens.weighted_row_norm_from_cert":
        "test_greens.py::test_neumann_zero_delta_keeps_certificate",
    "homological.LatticeMatrix.restrict":
        "test_homological.py::test_translation_covariance",
    "homological.LatticeMatrix.size":
        "test_homological.py::test_neumann_d3_box_without_dense",
    "homological.LatticeMatrix.to_dense":
        "test_homological.py::test_diagonal_T_entries",
    "homological.NearSingularError.__init__":
        "test_homological.py::test_solve_hz_near_singular",
    "homological.SmallDivisorError.__init__":
        "test_homological.py::test_solve_hx_small_divisor",
    "homological.residual_hx":
        "test_homological.py::test_solve_hx_residual_random",
    "homological.residual_lattice":
        "test_homological.py::test_solve_hz_series_level_residual",
    "jets.HamiltonianJet.max_abs_coeff":
        "test_jets.py::test_bracket_antisymmetry",
    "jets.HamiltonianJet.zero":
        "test_jets.py::test_bracket_dimension_mismatch",
    "multiscale.DirectClassifier.__call__":
        "test_multiscale.py::test_planted_resonance_marks_annulus_bad",
    "multiscale.DirectClassifier.__init__":
        "test_multiscale.py::test_planted_resonance_marks_annulus_bad",
    "multiscale.DirectClassifier._measured":
        "test_multiscale.py::test_cl2_rectangle_all_good",
    "multiscale.DirectClassifier._record":
        "test_multiscale.py::test_planted_resonance_marks_annulus_bad",
    "multiscale.DirectClassifier.entry_prefactor":
        "test_multiscale.py::test_cl2_rectangle_all_good",
    "multiscale.DirectClassifier.norm":
        "test_multiscale.py::test_cl2_rectangle_all_good",
    "multiscale.ElementaryRegion._sites":
        "test_multiscale.py::test_rectangle_classification",
    "multiscale.ElementaryRegion.bounding_box":
        "test_multiscale.py::test_rectangle_classification",
    "multiscale.ElementaryRegion.classification":
        "test_multiscale.py::test_rectangle_classification",
    "multiscale.ElementaryRegion.diam":
        "test_multiscale.py::test_cl2_rectangle_all_good",
    "multiscale.ElementaryRegion.interior_corner":
        "test_multiscale.py::test_l_shape_and_interior_corner",
    "multiscale.ElementaryRegion.site_set":
        "test_multiscale.py::test_exhaustion_frozen_1d_example",
    "multiscale.ElementaryRegion.sites":
        "test_multiscale.py::test_rectangle_classification",
    "multiscale.ScaleConfig.__post_init__":
        "test_multiscale.py::test_scale_config_invariants",
    "multiscale._emit": "test_multiscale.py::test_cl1_sound_against_direct",
    "multiscale._propagate_bounds":
        "test_multiscale.py::test_propagate_bounds_matches_per_site_oracle",
    "multiscale.build_exhaustion":
        "test_multiscale.py::test_exhaustion_frozen_1d_example",
    "multiscale.cl1_couple":
        "test_multiscale.py::test_cl1_sound_against_direct",
    "multiscale.cl2_couple": "test_multiscale.py::test_cl2_rectangle_all_good",
    "multiscale.classify_annuli":
        "test_multiscale.py::test_planted_resonance_marks_annulus_bad",
    "multiscale.cube_sites":
        "test_multiscale.py::test_exhaustion_partition_and_cube_disjointness",
    "multiscale.diagonal_bad_measure":
        "test_multiscale.py::test_sigma_scan_matches_diagonal_oracle",
    "multiscale.diameter":
        "test_multiscale.py::test_planted_resonance_marks_annulus_bad",
    "multiscale.random_elementary_region":
        "test_multiscale.py::test_random_regions_fall_in_three_classes",
    "multiscale.sigma_scan.<locals>.bisect":
        "test_multiscale.py::test_sigma_scan_svd_route_matches_direct_probe",
    "multiscale.sup_dist":
        "test_multiscale.py::test_exhaustion_partition_and_cube_disjointness",
    "multiscale.two_scale_couple":
        "test_multiscale.py::test_two_scale_degenerate_reduces_to_bulk",
    "stability._matmul":
        "test_stability.py::test_constant_symmetric_coupling_conserves",
    "stability._prefix_products":
        "test_stability.py::test_constant_symmetric_coupling_conserves",
    "stability._propagators":
        "test_stability.py::test_constant_symmetric_coupling_conserves",
    "stability.integrate_linearized":
        "test_stability.py::test_free_flow_matches_closed_form",
    "stability.l2_drift":
        "test_stability.py::test_free_flow_matches_closed_form",
    "stability.trajectory_csv":
        "test_stability.py::test_trajectory_csv_shape_and_determinism",
}


def src_functions() -> dict:
    """'module.qualname' of every function and method defined in `src/`,
    nested ones included, keyed by (module, first line, name) as a frame's
    code object gives them; class bodies and comprehensions are not
    functions (no CO_OPTIMIZED flag, or a name in angle brackets)."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), "")]
        while stack:
            code, qual = stack.pop()
            for inner in code.co_consts:
                if not hasattr(inner, "co_code"):
                    continue
                name = qual + inner.co_name
                function = bool(inner.co_flags & 1)
                if function and not name.endswith(">"):
                    found[path.stem, inner.co_firstlineno, inner.co_name] = \
                        f"{path.stem}.{name}"
                stack.append((inner, name + (".<locals>." if function
                                             else ".")))
    return found


def test_every_src_function_is_reached_or_allowlisted(tmp_path):
    # walk `dispatch` over one config per mode and the runs that take other
    # routes (dense solves, d = 3, a divergent Lie series, coupled greens,
    # an empty atlas), and `main` once, on a verify; every function of
    # `src/` the walk does not call must be in UNREACHED with a test that
    # runs it, and every entry there must still be unreached
    from test_cli import D3_RUN, DIVERGENT_RUN
    from toruskam import cli, config
    d3_small = {**D3_RUN, "seed": 1,
                "caps": {**D3_RUN["caps"], "N_max": 3, "exclusion_N": 3},
                "perturbation": {**D3_RUN["perturbation"], "kmax": 3}}
    runs = [(WORKLOAD_CONFIGS["kam-run"], 0),
            (WORKLOAD_CONFIGS["sigma-scan"], 0),
            (WORKLOAD_CONFIGS["stability"], 0), (STRONG_CONFIG, 0),
            (d3_small, 0), ({**DIVERGENT_RUN, "seed": 3}, 4),
            ({"mode": "greens", "greens": {"N": 8}}, 0),
            ({"mode": "greens", "greens": {"N": 8, "coupling_eps": 0.05}}, 0),
            ({"mode": "atlas"}, 0),
            ({"mode": "atlas", "caps": {"gamma": 50.0}}, 3)]
    verify = tmp_path / "verify.json"
    verify.write_text(json.dumps({"mode": "verify", "verify": {
        "report": str(tmp_path / "0" / "report.json")}}))
    called = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("toruskam."):
            code = frame.f_code
            called.add((module.removeprefix("toruskam."),
                         code.co_firstlineno, code.co_name))

    # a cache warmed by an earlier test would hide the calls it saves
    for module in [m for name, m in sys.modules.items()
                   if name.startswith("toruskam.")]:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    codes = []
    sys.setprofile(profile)
    try:
        for i, (data, _) in enumerate(runs):
            codes.append(cli.dispatch(config.load_config(data),
                                      str(tmp_path / str(i))))
        codes.append(cli.main(["--config", str(verify),
                               "--out", str(tmp_path / "v")]))
    finally:
        sys.setprofile(None)
    assert codes == [code for _, code in runs] + [0]
    functions = src_functions()
    defined = set(functions.values())
    reached = {functions[key] for key in called if key in functions}
    assert sorted(defined - reached - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) & reached) == []
    assert sorted(set(UNREACHED) - defined) == []
    for test in set(UNREACHED.values()):
        path, name = test.split("::")
        tree = _parse(ROOT / "tests" / path)
        assert name in {node.name for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef)}, test
