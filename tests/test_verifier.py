import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from wresidue import clifford, interior, reference, verifier
from wresidue.boundary import assemble_boundary
from wresidue.report import (
    REPORT_VERSION,
    STATUS_FLAG,
    STATUS_MATCH,
    STATUS_MISMATCH,
    WAIVER_ENV,
    exit_code,
    load_waivers,
    to_markdown,
    waiver_reason,
)
from wresidue.cli import build_parser, main
from wresidue.scalars import KIND_CONN, ScalarPoly
from wresidue.verifier import (
    RECORD_IDS,
    ConfigurationError,
    UnknownSuiteError,
    exact_bindings,
    run,
    run_suite,
)
from wresidue.xicalc import XiRational

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _by_suite(text):
    payload = json.loads(text)
    assert payload["version"] == REPORT_VERSION
    return {s["suite"]: s["records"] for s in payload["suites"]}


def test_full_run_deterministic(cli_runs):
    (code1, text1), (code2, text2) = cli_runs
    assert code1 == code2 == 0
    assert text1 == text2


def test_full_run_statuses(cli_runs):
    (_, text), _ = cli_runs
    suites = _by_suite(text)
    assert set(suites) == set(reference.ALL_SUITES)

    assert all(r["status"] == STATUS_MATCH for r in suites["interior"])
    assert len(suites["interior"]) == 12

    flags = [r for r in suites["traces"] if r["status"] == STATUS_FLAG]
    assert [r["id"] for r in flags] == ["two-letter-leaf-pair"]
    assert all(r["status"] == STATUS_MATCH
               for r in suites["traces"] if r not in flags)

    for name, disputed in (("boundary-d2d2", {"c", "total"}),
                           ("boundary-d1d3", {"b", "c", "total"})):
        records = suites[name]
        bad = {r["id"] for r in records if r["status"] == STATUS_MISMATCH}
        assert bad == disputed
        for r in records:
            if r["status"] == STATUS_MISMATCH:
                assert r["waiver"], (name, r["id"])
                assert r["evidence"], (name, r["id"])


def test_record_ids_table_matches_report(cli_runs):
    (_, text), _ = cli_runs
    suites = _by_suite(text)
    assert {name: tuple(r["id"] for r in records)
            for name, records in suites.items()} == RECORD_IDS


def test_waivered_mismatches_carry_numeric_corroboration(cli_runs):
    (_, text), _ = cli_runs
    suites = _by_suite(text)
    for name in ("boundary-d2d2", "boundary-d1d3"):
        for r in suites[name]:
            if r["status"] != STATUS_MISMATCH:
                continue
            evidence = "\n".join(r["evidence"])
            assert "engine vs recorded" in evidence
            assert "corroboration incomplete" not in r["note"]
            assert "frozen re-derived value: True" in evidence


def test_markdown_rendering(model):
    rep = run_suite("interior", model)
    text = to_markdown([rep])
    assert text.startswith(f"# Verification report ({REPORT_VERSION})")
    assert "## suite: interior" in text
    assert "| record | status | waiver |" in text


def test_unknown_suite_rejected(model):
    with pytest.raises(UnknownSuiteError):
        run_suite("bogus", model)
    with pytest.raises(UnknownSuiteError):
        run(("bogus",))


def test_exit_code_one_without_waivers_and_intermediates(model, tmp_path):
    rep = run_suite("boundary-d2d2", model, waivers=(), emit_dir=str(tmp_path))
    assert {r.record_id for r in rep.unwaivered_mismatches()} == {"c", "total"}
    assert exit_code([rep]) == 1
    written = sorted(os.listdir(tmp_path))
    assert written
    assert all(name.startswith("boundary-d2d2-") for name in written)
    by_id = {r.record_id: r for r in rep.records}
    assert by_id["c"].intermediates in written


def test_corrupt_recorded_table_fails_run(model, monkeypatch):
    orig = reference.expected_d2d2

    def tampered(m):
        table = dict(orig(m))
        table["a-II"] = table["a-II"] * 2
        return table

    monkeypatch.setattr(reference, "expected_d2d2", tampered)
    rep = run_suite("boundary-d2d2", model)
    bad = {r.record_id for r in rep.unwaivered_mismatches()}
    assert "a-II" in bad
    assert exit_code([rep]) == 1


def test_normal_divergence_trace_checks_the_divergence_scalar():
    """The traces suite compares the base symbol's normal trace against the
    declared divergence scalar, so a wrong scalar is a mismatch."""
    model = reference.Model()
    model.div_poly = model.div_poly * 2
    rep = run_suite("traces", model, waivers=())
    by_id = {r.record_id: r.status for r in rep.records}
    assert by_id["normal-divergence-trace"] == STATUS_MISMATCH


def test_boundary_suite_builds_its_jets_once(model, monkeypatch):
    calls = {"symbols_d2d2": 0, "symbols_d1d3": 0}
    for name in calls:
        def counted(m, _orig=getattr(reference, name), _name=name):
            calls[_name] += 1
            return _orig(m)
        monkeypatch.setattr(reference, name, counted)
    run_suite("boundary-d2d2", model)
    assert calls == {"symbols_d2d2": 1, "symbols_d1d3": 0}


def test_corroboration_binds_the_atoms_once(model, monkeypatch):
    """The float bindings come from the exact ones the corroboration holds."""
    calls = []

    def counted(m, _orig=verifier.exact_bindings):
        calls.append(m)
        return _orig(m)
    monkeypatch.setattr(verifier, "exact_bindings", counted)
    run_suite("boundary-d2d2", model)
    assert calls == [model]


def test_waiver_file_from_environment(tmp_path):
    path = tmp_path / "waivers.json"
    path.write_text(json.dumps(
        [{"suite": "boundary-d2d2", "label": "a-II", "reason": "test entry"}]))
    waivers = load_waivers({WAIVER_ENV: str(path)})
    assert waiver_reason(waivers, "boundary-d2d2", "a-II") == "test entry"
    assert waiver_reason(waivers, "boundary-d2d2", "c")  # builtin survives
    assert not waiver_reason(waivers, "boundary-d2d2", "a-I")


@pytest.mark.parametrize("content", ['[{"suite": "interior", "label": "x"}]', "not json"],
                         ids=["missing-reason", "not-json"])
def test_run_suite_bad_waiver_file_is_configuration_error(model, monkeypatch, tmp_path,
                                                          content):
    """A waiver file ``run_suite`` loads itself fails as it does under ``run``."""
    path = tmp_path / "waivers.json"
    path.write_text(content)
    monkeypatch.setenv(WAIVER_ENV, str(path))
    with pytest.raises(ConfigurationError, match=f"cannot load waivers from {WAIVER_ENV}"):
        run_suite("interior", model)


def test_environment_waiver_flows_through_run(model, monkeypatch, tmp_path):
    orig = reference.expected_d2d2

    def tampered(m):
        table = dict(orig(m))
        table["a-II"] = table["a-II"] * 2
        return table

    monkeypatch.setattr(reference, "expected_d2d2", tampered)
    code_bad, _ = run(("boundary-d2d2",), environ={})
    assert code_bad == 1
    path = tmp_path / "waivers.json"
    path.write_text(json.dumps(
        [{"suite": "boundary-d2d2", "label": "a-II", "reason": "test entry"},
         {"suite": "boundary-d2d2", "label": "recorded-sum-identity",
          "reason": "tampered table breaks the internal sum"}]))
    code_ok, text = run(("boundary-d2d2",), environ={WAIVER_ENV: str(path)})
    assert code_ok == 0
    record = {r["id"]: r for r in _by_suite(text)["boundary-d2d2"]}["a-II"]
    assert record["waiver"] == "test entry"


def test_environment_waiver_covers_interior_records(monkeypatch, tmp_path):
    orig = reference.interior_expected

    def tampered(p, q):
        row = dict(orig(p, q))
        if (p, q) == (2, 2):
            row["scalar"] = row["scalar"] * 2
        return row

    monkeypatch.setattr(reference, "interior_expected", tampered)
    code_bad, _ = run(("interior",), environ={})
    assert code_bad == 1
    path = tmp_path / "waivers.json"
    path.write_text(json.dumps(
        [{"suite": "interior", "label": "rank-2-2-dim-4-scalar",
          "reason": "tampered closed form"}]))
    code_ok, text = run(("interior",), environ={WAIVER_ENV: str(path)})
    assert code_ok == 0
    record = {r["id"]: r for r in _by_suite(text)["interior"]}["rank-2-2-dim-4-scalar"]
    assert record["status"] == STATUS_MISMATCH
    assert record["waiver"] == "tampered closed form"



def test_nonzero_two_form_trace_is_a_mismatch(monkeypatch):
    """An identity-word part in one connection term gives the curvature
    two-form a nonzero fiber trace: exactly the three two-form records
    mismatch, with exit 1, and nothing raises."""
    orig = interior.InteriorSetting.connection_term

    def with_identity(self, tag):
        term = orig(self, tag)
        leaf12 = self.antisymmetric(f"w{tag}F{{}}{{}}", KIND_CONN, (1, 2))
        return term + self.ident(leaf12) if tag == "Da" else term

    monkeypatch.setattr(interior.InteriorSetting, "connection_term", with_identity)
    code, text = run(("interior",), environ={})
    assert code == 1
    mismatched = {r["id"]: (r["recorded"], r["computed"]) for r in _by_suite(text)["interior"]
                  if r["status"] == STATUS_MISMATCH}
    assert mismatched == {"rank-2-2-dim-4-two-form": ("0", "8*wDaF12"),
                          "rank-4-0-dim-4-two-form": ("0", "4*wDaF12"),
                          "rank-2-4-dim-6-two-form": ("0", "16*wDaF12")}

def test_corroboration_integrates_each_traced_integrand_bound(model, monkeypatch):
    """The corroboration binds each case's two factors and joins them whole:
    for every case of both suites that is the traced integrand with the
    bindings substituted, in value, pole orders and key order, the order in
    which the quadrature sums."""
    bound, oracle = exact_bindings(model), verifier.numeric_xi_oracle
    for name in reference.BOUNDARY_SUITES:
        suite, seen = reference.load_suite(name, model), []
        with monkeypatch.context() as patch:
            patch.setattr(verifier, "numeric_xi_oracle", lambda f, b: seen.append(f) or oracle(f, b))
            verifier._boundary_records(suite, False)
        cases = [res for res in assemble_boundary(suite).cases if res.traced is not None]
        assert len(seen) == len(cases), name
        for res in cases:
            want = res.traced.substitute(bound)
            got = [f for f in seen if f == want]
            assert got and all(list(f.num) == list(want.num) for f in got), (name, res.case)


def test_each_suite_traces_its_own_endomorphisms(monkeypatch):
    """Each suite traces the endomorphism of each split it reads, with no
    share between suites; a patch applied before the next run reaches its
    records."""
    def traces(text):
        return {r["id"]: r["computed"] for r in _by_suite(text)["traces"]}

    splits, trace = {}, interior.trace_endomorphism

    def suite_run(name, *args):
        splits[name] = []
        return run_suite(name, *args)

    with monkeypatch.context() as patch:
        patch.setattr(verifier, "run_suite", suite_run)
        patch.setattr(interior, "trace_endomorphism",
                      lambda s: next(reversed(splits.values())).append((s.p, s.q)) or trace(s))
        _, first = run(("all",), environ={})
    assert splits == {"interior": [(2, 2), (4, 0), (2, 4)],
                      "traces": [(2, 2), (4, 2), (2, 4)],
                      "boundary-d2d2": [], "boundary-d1d3": []}

    blocks = interior.endomorphism_blocks

    def doubled(setting):
        out = blocks(setting)
        return {**out, "scalar": out["scalar"] * 2}

    monkeypatch.setattr(interior, "endomorphism_blocks", doubled)
    monkeypatch.setitem(clifford._SQ_SIGN, clifford.HC, -clifford._SQ_SIGN[clifford.HC])
    _, second = run(("all",), environ={})
    moved = {key for key, value in traces(second).items() if value != traces(first)[key]}
    assert moved == {"endo-trace-rank-2-2", "endo-trace-rank-4-2", "endo-trace-rank-2-4",
                     "perp-pair-difference"}


# -- command line ------------------------------------------------------------


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's workload module, which pins the sha256 of the CLI's
    standard output and of every intermediate file; a deliberate report
    change moves those pins, and these tests follow."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv(WAIVER_ENV, raising=False)
    import workloads
    return workloads


def test_full_report_bytes_pinned(workloads, capsys):
    assert main(["--suite", "all", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert _sha256(out.encode("utf-8")) == workloads.PINS["verify-all"]["stdout"]


def test_d2d2_emit_bytes_pinned(workloads, capsys, tmp_path):
    argv = ["--suite", "boundary-d2d2", "--format", "md", "--emit-intermediates", str(tmp_path)]
    assert main(argv) == 0
    pin = workloads.PINS["d2d2-emit"]
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == pin["stdout"]
    assert {f.name: _sha256(f.read_bytes()) for f in tmp_path.iterdir()} == pin["files"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reversed(mapping: dict) -> dict:
    return dict(reversed(mapping.items()))


def _shuffled(seed: int):
    rng = random.Random(seed)

    def shuffle(mapping: dict) -> dict:
        items = list(mapping.items())
        rng.shuffle(items)
        return dict(items)
    return shuffle


def _reorder_terms(patch, reorder):
    """Every Clifford element's words and every polynomial's monomials, as
    they are built, in the order ``reorder`` gives them."""
    for cls in (clifford.CliffordElement, ScalarPoly):
        def pruned(registry, terms, _pruned=cls._pruned):
            out = _pruned(registry, terms)
            out.terms = reorder(out.terms)
            return out

        def init(self, registry, terms=None, _init=cls.__init__):
            _init(self, registry, terms)
            self.terms = reorder(self.terms)
        patch.setattr(cls, "_pruned", staticmethod(pruned))
        patch.setattr(cls, "__init__", init)


def _reversed_xn(value: XiRational) -> XiRational:
    return XiRational._canonical(value.registry, _reversed(value.num), value.a, value.b)


def _reverse_jets(patch, side: int):
    """The xn keys of every jet on one ``side`` (0 left, 1 right) reversed."""
    for name in ("symbols_d2d2", "symbols_d1d3"):
        def reversed_side(model, _symbols=getattr(reference, name)):
            jets = list(_symbols(model))
            jets[side] = {order: tuple(map(_reversed_xn, jet))
                          for order, jet in jets[side].items()}
            return tuple(jets)
        patch.setattr(reference, name, reversed_side)


def test_report_reads_only_the_xn_key_order(workloads, model, monkeypatch, capsys, tmp_path):
    """The report bytes read no word or monomial order: reversing or
    shuffling it everywhere moves no pinned digest.  They do read the xn key
    order of the factors the corroboration integrates, which sets its float
    sums: reversing it in every pi+ result moves both reports, and in the
    right jets the full one; the left jets reach the report through pi+
    alone, so theirs moves nothing.  Every run builds a fresh model, so no
    reordered object reaches the cached one."""
    monkeypatch.setattr(verifier, "build_model", reference.Model)
    pins = workloads.PINS

    def digests():
        assert main(["--suite", "all"]) == 0
        full = _sha256(capsys.readouterr().out.encode("utf-8"))
        emit = tmp_path / str(len(os.listdir(tmp_path)))
        assert main(["--suite", "boundary-d2d2", "--format", "md",
                     "--emit-intermediates", str(emit)]) == 0
        md = _sha256(capsys.readouterr().out.encode("utf-8"))
        files = {f.name: _sha256(f.read_bytes()) for f in emit.iterdir()}
        return (full == pins["verify-all"]["stdout"], md == pins["d2d2-emit"]["stdout"],
                files == pins["d2d2-emit"]["files"])

    x, y = model.var(model.hp), model.var(model.pi)
    monomials, words = list((x + y).terms), list((model.c(1) + model.c(2)).terms)
    for case, reorder in (("reversed", _reversed), *((f"seed {seed}", _shuffled(seed))
                                                      for seed in (1, 2, 3))):
        with monkeypatch.context() as patch:
            _reorder_terms(patch, reorder)
            if reorder is _reversed:  # the patch reaches what the engine builds
                assert list((x + y).terms) == monomials[::-1]
                assert list((model.c(1) + model.c(2)).terms) == words[::-1]
            assert digests() == (True, True, True), case
    with monkeypatch.context() as patch:
        pi_plus = XiRational.pi_plus
        patch.setattr(XiRational, "pi_plus", lambda self: _reversed_xn(pi_plus(self)))
        assert digests()[:2] == (False, False)
    for side, full_held in ((0, True), (1, False)):
        with monkeypatch.context() as patch:
            _reverse_jets(patch, side)
            assert digests() == (full_held, True, True), side
    assert reference.build_model() is model


def test_cli_json_run(capsys):
    code = main(["--suite", "interior"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == REPORT_VERSION
    assert [s["suite"] for s in payload["suites"]] == ["interior"]


def test_cli_md_format(capsys):
    code = main(["--suite", "interior", "--format", "md"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# Verification report")


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--format", "xml"])
    assert exc.value.code == 2


@pytest.mark.parametrize("case", ["waiver-shape", "waiver-missing", "waiver-suite",
                                  "waiver-label", "waiver-row-label", "waiver-all-label",
                                  "waiver-suite-list", "waiver-empty-reason",
                                  "emit-under-file", "emit-empty"])
def test_cli_configuration_errors_exit_two(case, tmp_path, monkeypatch, capsys):
    """Exit 2 with one stderr line, and nothing written: no intermediate
    file, in the working directory either, and no jet built when the
    waiver file or a waiver's suite is bad."""
    monkeypatch.chdir(tmp_path)
    calls = []
    for name in ("symbols_d2d2", "symbols_d1d3"):
        def counted(m, _orig=getattr(reference, name), _name=name):
            calls.append(_name)
            return _orig(m)
        monkeypatch.setattr(reference, name, counted)
    suites = {"waiver-label": "interior", "waiver-row-label": "boundary-d2d2",
              "waiver-all-label": "all"}
    emit = tmp_path / "emit"
    argv = ["--suite", suites.get(case, "boundary-d1d3"), "--emit-intermediates", str(emit)]
    if case in ("waiver-suite", "waiver-label", "waiver-row-label", "waiver-all-label"):
        suite, label = {"waiver-suite": ("boundary-d2d3", "c"),
                        "waiver-label": ("interior", "rank-2-2-dim-4-scalr"),
                        "waiver-row-label": ("boundary-d2d2", "a-Il"),
                        "waiver-all-label": ("boundary-d1d3", "c-typo")}[case]
        path = tmp_path / "waivers.json"
        path.write_text(json.dumps([{"suite": suite, "label": label, "reason": "typo"}]))
        monkeypatch.setenv(WAIVER_ENV, str(path))
        want = f"waiver names no record: suite {suite!r}, label {label!r}\n"
    elif case in ("waiver-suite-list", "waiver-empty-reason"):
        key, value = {"waiver-suite-list": ("suite", ["boundary-d2d2"]),
                      "waiver-empty-reason": ("reason", "")}[case]
        waiver = {"suite": "boundary-d2d2", "label": "c", "reason": "x", key: value}
        path = tmp_path / "waivers.json"
        path.write_text(json.dumps([waiver]))
        monkeypatch.setenv(WAIVER_ENV, str(path))
        want = (f"cannot load waivers from {WAIVER_ENV}: ValueError: "
                f"waiver field {key!r} must be a non-empty string")
    elif case == "waiver-shape":
        path = tmp_path / "waivers.json"
        path.write_text(json.dumps({"a": 1}))
        monkeypatch.setenv(WAIVER_ENV, str(path))
        want = f"cannot load waivers from {WAIVER_ENV}: TypeError: "
    elif case == "waiver-missing":
        monkeypatch.setenv(WAIVER_ENV, str(tmp_path / "absent.json"))
        want = f"cannot load waivers from {WAIVER_ENV}: FileNotFoundError: "
    else:
        monkeypatch.delenv(WAIVER_ENV, raising=False)
        (tmp_path / "plain").write_text("")
        argv[-1] = "" if case == "emit-empty" else str(tmp_path / "plain" / "sub")
        want = "cannot create intermediates directory: "
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"wres-verify: error: {want}")
    assert err.endswith("\n") and err.count("\n") == 1
    assert not emit.exists() or os.listdir(emit) == []
    assert not list(tmp_path.rglob("*.txt"))
    assert calls == []


def test_cli_intermediate_write_error_exits_two(tmp_path, monkeypatch, capsys):
    """A file that cannot be written is an I/O error, not a mismatch; the
    files written before it stay."""
    monkeypatch.delenv(WAIVER_ENV, raising=False)
    (tmp_path / "boundary-d2d2-c.txt").mkdir()
    assert main(["--suite", "boundary-d2d2", "--emit-intermediates", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("wres-verify: error: cannot write intermediate file: ")
    assert "boundary-d2d2-c.txt" in err
    assert err.endswith("\n") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == [f"boundary-d2d2-{label}.txt" for label in
                                            ("a-I", "a-II", "a-III", "b", "c")]


def test_cli_closed_stdout_exits_two():
    """A report that cannot be written is an I/O error: a child whose stdout
    pipe has no reader before it writes exits 2 with one stderr line, and
    the interpreter's last flush adds no traceback."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != WAIVER_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "wresidue.cli", "--suite", "interior"],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    err = done.stderr.decode("utf-8")
    assert done.returncode == 2, err
    assert err.startswith("wres-verify: error: cannot write the report: ")
    assert err.endswith("\n") and err.count("\n") == 1


def test_waiver_lapses_when_the_engine_drifts(monkeypatch):
    """A waiver covers a row only while its corroboration is complete:
    doubling the engine's row ``c`` (and ``total`` by the same amount)
    breaks the frozen fingerprints, so both rows fail the run."""
    monkeypatch.delenv(WAIVER_ENV, raising=False)
    assert run(("boundary-d2d2",))[0] == 0
    orig = verifier.assemble_boundary

    def drifted(suite):
        res = orig(suite)
        c = res.groups["c"]
        return res._replace(groups={**res.groups, "c": c * 2}, total=res.total + c)

    monkeypatch.setattr(verifier, "assemble_boundary", drifted)
    code, text = run(("boundary-d2d2",))
    assert code == 1
    records = {r["id"]: r for r in _by_suite(text)["boundary-d2d2"]}
    for label in ("c", "total"):
        assert records[label]["status"] == STATUS_MISMATCH
        assert records[label]["waiver"] == ""
        assert records[label]["note"] == ("corroboration incomplete, so no waiver applies; "
                                          "failed: frozen re-derived value")


def test_cli_engine_exception_exits_three(monkeypatch, capsys):
    """An exception from the engine is an internal error: exit 3 and one
    stderr line, not a traceback and not the mismatch code 1."""
    def broken(p, q):
        raise ValueError("connection curvature two-form has nonzero fiber trace\n(probe)")

    monkeypatch.setattr(interior, "first_principles_coefficients", broken)
    assert main(["--suite", "interior"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("wres-verify: internal error: ValueError: connection curvature "
                   "two-form has nonzero fiber trace (probe)\n")


def test_cli_parser_defaults():
    args = build_parser().parse_args([])
    assert args.suite == "all"
    assert args.fmt == "json"
    assert args.emit_intermediates is None


@pytest.fixture
def collector():
    """Restores the cyclic collector's state after a test that sets it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_pauses_the_collector_and_restores_it(enabled, collector, cli_runs, monkeypatch):
    """The suites run with the cyclic collector off; afterwards it is as it
    was before, and the report does not depend on it."""
    seen = []

    def recording(*args):
        seen.append(gc.isenabled())
        return run_suite(*args)

    (gc.enable if enabled else gc.disable)()
    monkeypatch.setattr(verifier, "run_suite", recording)
    assert run(("all",)) == cli_runs[0]
    assert seen == [False] * 4
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_engine_failure_restores_the_collector(enabled, collector, monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("probe")

    (gc.enable if enabled else gc.disable)()
    monkeypatch.setattr(verifier, "run_suite", broken)
    assert main(["--suite", "all"]) == 3
    assert capsys.readouterr().err == "wres-verify: internal error: RuntimeError: probe\n"
    assert gc.isenabled() is enabled
