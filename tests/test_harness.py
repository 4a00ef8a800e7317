"""Command-line harness: configuration, report formats, and exit codes."""

import dataclasses
import errno
import json
import math
import os
import select
import signal
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from covforge import checks, construction, continuation, harness
from covforge.continuation import check_seed_stability

JSON_KEY_ORDER = ["check_id", "paper_anchor", "status", "residual_count",
                  "details", "millis"]


def test_known_check_ids_cover_both_phases():
    ids = harness.check_ids()
    assert len(ids) == 15
    assert sum(i.startswith("symbolic/") for i in ids) == 8
    assert sum(i.startswith("property/") for i in ids) == 4
    assert sum(i.startswith("numeric/") for i in ids) == 3


def test_default_configuration_values():
    cfg = harness.build_config([])
    assert cfg.filter == "*"
    assert cfg.seed == 42
    assert cfg.format == "text"
    assert cfg.sample_r == (Fraction(10), Fraction(1, 2), Fraction(1, 3))


def test_every_default_is_written_once(monkeypatch):
    for name in ("FILTER", "SEED", "FORMAT", "SAMPLE_R"):
        monkeypatch.delenv(harness.ENV_PREFIX + name, raising=False)
    assert harness.build_config([]) == harness.RunConfig()


def test_sample_r_accepts_fraction_strings():
    cfg = harness.build_config(["--sample-r", "10", "1/2", "1/3"])
    assert cfg.sample_r == (Fraction(10), Fraction(1, 2), Fraction(1, 3))
    cfg = harness.build_config(["--sample-r", "7/3", "2", "5/11"])
    assert cfg.sample_r == (Fraction(7, 3), Fraction(2), Fraction(5, 11))


def test_environment_supplies_defaults_but_flags_win(monkeypatch):
    monkeypatch.setenv("COVFORGE_SEED", "17")
    monkeypatch.setenv("COVFORGE_FORMAT", "json")
    cfg = harness.build_config([])
    assert cfg.seed == 17
    assert cfg.format == "json"
    cfg = harness.build_config(["--seed", "5", "--format", "text"])
    assert cfg.seed == 5
    assert cfg.format == "text"


def test_a_bad_variable_is_named_and_an_empty_one_is_unset(capsys,
                                                           monkeypatch):
    # a value that does not parse, and values that parse but fail
    # RunConfig.validate
    for name, raw in (("SEED", "abc"), ("SEED", "-1"), ("FORMAT", "xml")):
        with monkeypatch.context() as m:
            m.setenv(harness.ENV_PREFIX + name, raw)
            assert harness.main(["--filter", "symbolic/strata_6"]) == 2
        assert f"COVFORGE_{name}={raw!r}" in capsys.readouterr().err
    for name in ("FILTER", "SEED", "FORMAT", "SAMPLE_R", "TOL_RANK"):
        monkeypatch.setenv(harness.ENV_PREFIX + name, "")
    assert harness.build_config([]) == harness.RunConfig()


def test_unknown_format_is_rejected_by_the_parser():
    with pytest.raises(SystemExit):
        harness.build_config(["--format", "yaml"])


def test_the_removed_jobs_flag_is_rejected_by_the_parser():
    with pytest.raises(SystemExit):
        harness.build_config(["--jobs", "2"])


def test_the_removed_tolerance_knobs_are_configuration_errors(capsys,
                                                              monkeypatch):
    # the tolerances are constants: a variable that names one is an
    # unknown variable, and its flag is an unknown flag
    called = []
    monkeypatch.setattr(checks, "check_expansion_1_2",
                        lambda: called.append(1))
    for name in ("TRACK", "DEDUP", "RANK", "CLUSTER"):
        with monkeypatch.context() as m:
            m.setenv(f"COVFORGE_TOL_{name}", "1e-9")
            assert harness.main([]) == 2, name
        err = capsys.readouterr().err
        assert f"COVFORGE_TOL_{name}" in err
        assert "COVFORGE_SAMPLE_R" in err
    assert called == []
    for flag in ("--tol-track", "--tol-dedup"):
        with pytest.raises(SystemExit):
            harness.build_config([flag, "1e-9"])


def test_zero_denominator_triple_exits_with_configuration_error(capsys):
    assert harness.main(["--sample-r", "1/0", "1", "1"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_a_malformed_triple_is_named_by_flag_and_by_variable(capsys,
                                                            monkeypatch):
    assert harness.main(["--sample-r", "abc", "1", "2"]) == 2
    named = "sample-r 'abc 1 2' is not three fractions"
    assert named in capsys.readouterr().err
    monkeypatch.setenv("COVFORGE_SAMPLE_R", "abc 1 2")
    assert harness.main([]) == 2
    err = capsys.readouterr().err
    assert "COVFORGE_SAMPLE_R='abc 1 2'" in err and named in err
    monkeypatch.setenv("COVFORGE_SAMPLE_R", "1 2")
    assert harness.main([]) == 2
    assert "sample-r '1 2' needs three values" in capsys.readouterr().err


def test_excluded_triple_is_rejected_before_any_path_is_tracked(monkeypatch):
    # r2 = 0, r3 = 13/7 zeroes the first leading-coefficient inequation
    tracked = []
    monkeypatch.setattr(continuation, "track",
                        lambda *args: tracked.append(args))
    assert harness.main(["--filter", "numeric/lemma6_2",
                         "--sample-r", "10", "0", "13/7"]) == 2
    assert tracked == []
    # unfiltered, the triple is rejected before the first exact check
    called = []
    monkeypatch.setattr(checks, "check_expansion_1_2",
                        lambda: called.append(1))
    assert harness.main(["--sample-r", "10", "0", "13/7"]) == 2
    assert called == [] and tracked == []


def test_exact_work_loads_no_numeric_library():
    # a fresh interpreter, since this one already holds numpy; the
    # configuration error runs first, so the exact check cannot hide a
    # numeric import it makes.  The numeric module then loads numpy,
    # and still not mpmath: its polish and its Pellet counts are exact
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from covforge import harness
        def loaded():
            return [m for m in ("numpy", "mpmath") if m in sys.modules]
        seen = []
        for argv in (["--sample-r", "10", "0", "13/7"],
                     ["--filter", "symbolic/strata_6"]):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                code = harness.main(argv)
            seen.append([code, loaded()])
        import covforge.continuation
        seen.append(["continuation", loaded()])
        print(json.dumps(seen))
    """)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(harness.ENV_PREFIX)}
    src = str(Path(harness.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [[2, []], [0, []],
                               ["continuation", ["numpy"]]]


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/layers.py wraps the layer functions by name, with no
    # default, so a renamed or deleted one fails every traced benchmark
    # run before it starts
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    out = subprocess.run([sys.executable, "-c",
                          "import layers; layers.install()"], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_the_numeric_sweep_prints_one_line_per_seed():
    # tools/numeric_sweep.py imports the package from its checkout's src
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(harness.ENV_PREFIX)}
    out = subprocess.run([sys.executable, str(root / "tools" /
                                              "numeric_sweep.py"), "7", "7"],
                         env=env, capture_output=True, text=True, check=True)
    (seed, status, digest), = [line.split() for line in
                               out.stdout.splitlines()]
    assert (seed, status) == ("7", "ok")
    assert len(digest) == 64 and int(digest, 16) >= 0


def test_an_error_inside_a_check_is_not_a_configuration_error(monkeypatch):
    for error in (ZeroDivisionError, ValueError):
        def broken(seed):
            raise error("inside a check")

        monkeypatch.setattr(checks, "check_field_axioms", broken)
        with pytest.raises(error, match="inside a check"):
            harness.main(["--filter", "property/field_axioms"])


# A cheap selection with both phases: symbolic/strata_6,
# property/scaling_1_1 and numeric/seed_stability.
TWO_PHASES = "*/s*"


@pytest.fixture
def two_cpus(monkeypatch):
    """Let a two-phase run fork, however many CPUs this host has."""
    monkeypatch.setattr(harness, "_cpus", lambda: 2)


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cheap_numeric_phase(monkeypatch, error=None):
    """Replace numeric/seed_stability with a check that records its call
    and raises `error`, if given; returns the list of calls."""
    calls = []

    def stub(seed, sample_r, numeric):
        calls.append(seed)
        if error is not None:
            raise error("inside a numeric check")
        return checks.CheckResult()

    monkeypatch.setattr(continuation, "check_seed_stability", stub)
    return calls


def _rows_without_timing(report):
    rows = json.loads(harness.render_json(report))
    for row in rows:
        del row["millis"]
    return rows


def test_a_two_phase_run_equals_the_merge_of_its_single_phase_runs(
        two_cpus):
    both = harness.run(harness.RunConfig(filter=TWO_PHASES, seed=7))
    _no_child_is_left()
    exact = harness.run(harness.RunConfig(filter="[sp]*/s*", seed=7))
    numeric = harness.run(harness.RunConfig(filter="numeric/s*", seed=7))
    assert [r.check_id for r in both.results] == [
        "symbolic/strata_6", "property/scaling_1_1",
        "numeric/seed_stability"]
    merged = harness.Report(config=both.config,
                            results=exact.results + numeric.results)
    assert _rows_without_timing(both) == _rows_without_timing(merged)
    assert both.ok


def test_an_exact_error_ends_a_two_phase_run_after_the_numeric_phase(
        monkeypatch, two_cpus):
    calls = _cheap_numeric_phase(monkeypatch)

    def broken():
        raise ZeroDivisionError("inside an exact check")

    monkeypatch.setattr(checks, "check_strata_6", broken)
    with pytest.raises(ZeroDivisionError,
                       match="inside an exact check") as raised:
        harness.run(harness.RunConfig(filter=TWO_PHASES))
    _no_child_is_left()
    assert calls == [42]
    # the exact-phase process's traceback is the error's cause
    cause = raised.value.__cause__
    assert isinstance(cause, RuntimeError)
    assert "in broken" in str(cause) and "ZeroDivisionError" in str(cause)


class _Unpicklable(Exception):
    def __init__(self, what, where):
        super().__init__(f"{what} {where}")


def test_an_exact_error_that_does_not_pickle_keeps_its_traceback(
        monkeypatch, two_cpus):
    _cheap_numeric_phase(monkeypatch)

    def broken(seed):
        raise _Unpicklable("inside", "an exact check")

    monkeypatch.setattr(checks, "check_scaling_1_1", broken)
    with pytest.raises(RuntimeError, match="_Unpicklable: inside an exact"):
        harness.run(harness.RunConfig(filter=TWO_PHASES))
    _no_child_is_left()


def test_an_exact_phase_that_dies_names_its_exit_status(monkeypatch,
                                                        two_cpus):
    _cheap_numeric_phase(monkeypatch)
    monkeypatch.setattr(checks, "check_strata_6", lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exit status 3 and sent no"):
        harness.run(harness.RunConfig(filter=TWO_PHASES))
    _no_child_is_left()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_numeric_error_leaves_no_exact_phase_process(monkeypatch, error,
                                                       two_cpus):
    calls = _cheap_numeric_phase(monkeypatch, error)
    with pytest.raises(error, match="inside a numeric check"):
        harness.run(harness.RunConfig(filter=TWO_PHASES))
    assert calls == [42]
    _no_child_is_left()


def test_the_exact_phase_process_sees_the_callers_state(monkeypatch,
                                                        two_cpus):
    # a falsified getter, set before the fork, fails its exact check
    _cheap_numeric_phase(monkeypatch)
    points = dict(construction.special_points())
    (a, b, c), *rest = points["sparse_solutions"]
    points["sparse_solutions"] = ((a, b, c + 1), *rest)
    monkeypatch.setattr(construction, "special_points", lambda: points)
    report = harness.run(harness.RunConfig(filter=TWO_PHASES))
    _no_child_is_left()
    strata, scaling, stability = report.results
    assert strata.check_id == "symbolic/strata_6"
    assert strata.residuals == (
        "stored sparse solutions differ from the branch roots",
        "sparse solution (5, 0, 2) fails quadric 2")
    assert scaling.ok and stability.ok


def test_the_exact_phase_process_forks_before_numpy_loads():
    # a fresh interpreter, since this one already holds numpy: the
    # exact-phase process is forked before the caller imports the
    # numeric layer, so no BLAS thread exists at the fork
    script = textwrap.dedent("""
        import sys
        from covforge import checks, harness
        def strata():
            return checks.CheckResult(details={"numpy": "numpy" in sys.modules})
        checks.check_strata_6 = strata
        harness._cpus = lambda: 2
        report = harness.run(harness.RunConfig(filter="*/s*"))
        print(report.results[0].details["numpy"], "numpy" in sys.modules)
    """)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(harness.ENV_PREFIX)}
    env["PYTHONPATH"] = str(Path(harness.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "True"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL],
                         ids=["SIGTERM", "SIGKILL"])
def test_the_exact_phase_process_ends_with_its_caller(sig):
    # the caller prints the forked pid, then is killed while the forked
    # process sits in a slow exact check; the caller's stdout reaches
    # end-of-file only once every process holding it has ended
    script = textwrap.dedent("""
        import os, time
        from covforge import checks, harness
        fork = os.fork
        def announce():
            pid = fork()
            if pid:
                print(pid, flush=True)
            return pid
        os.fork = announce
        harness._cpus = lambda: 2
        checks.check_strata_6 = lambda: time.sleep(60)
        harness.run(harness.RunConfig(filter="*/s*"))
    """)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(harness.ENV_PREFIX)}
    env["PYTHONPATH"] = str(Path(harness.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE)
    pid = None
    try:
        pid = int(proc.stdout.readline())
        proc.send_signal(sig)
        assert proc.wait(timeout=30) == -sig
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        assert ready and os.read(proc.stdout.fileno(), 1) == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_a_process_bound_to_one_cpu_runs_the_phases_in_turn(monkeypatch):
    calls = _cheap_numeric_phase(monkeypatch)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    report = harness.run(harness.RunConfig(filter=TWO_PHASES))
    assert [r.check_id for r in report.results] == [
        "symbolic/strata_6", "property/scaling_1_1",
        "numeric/seed_stability"]
    assert report.ok and calls == [42]


def test_a_run_that_cannot_fork_runs_the_phases_in_turn(monkeypatch,
                                                        two_cpus):
    calls = _cheap_numeric_phase(monkeypatch)

    def no_process():
        raise OSError(errno.EAGAIN, "no process to spare")

    monkeypatch.setattr(os, "fork", no_process, raising=False)
    harness.run(harness.RunConfig(filter=TWO_PHASES))
    fds = set(os.listdir("/dev/fd"))
    report = harness.run(harness.RunConfig(filter=TWO_PHASES))
    assert set(os.listdir("/dev/fd")) <= fds    # no pipe end left open
    assert report.ok and calls == [42, 42]


def test_numpy_loaded_beside_a_fork_keeps_one_blas_thread(monkeypatch):
    seen = []

    def numeric_layer():
        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return continuation

    monkeypatch.setattr(harness, "_numeric", numeric_layer)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    config = harness.RunConfig()
    entries = [e for e in harness.select(config) if e[2] == "numeric"]
    harness._numeric_run(config, entries, one_blas_thread=True)
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    harness._numeric_run(config, entries)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    harness._numeric_run(config, entries, one_blas_thread=True)
    assert seen == ["1", None, "3"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


def test_a_single_phase_run_never_forks(monkeypatch, two_cpus):
    calls = _cheap_numeric_phase(monkeypatch)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for glob in ("[sp]*/s*", "numeric/s*"):
        assert harness.run(harness.RunConfig(filter=glob)).ok
    assert calls == [42]
    # without os.fork, a two-phase run runs its phases in turn
    monkeypatch.delattr(os, "fork")
    report = harness.run(harness.RunConfig(filter=TWO_PHASES))
    assert [r.check_id for r in report.results] == [
        "symbolic/strata_6", "property/scaling_1_1",
        "numeric/seed_stability"]
    assert report.ok and calls == [42, 42]


def test_unknown_filter_lists_the_known_ids(capsys):
    code = harness.main(["--filter", "no/such_check"])
    assert code == 2
    err = capsys.readouterr().err
    assert "symbolic/expansion_1_2" in err


def test_single_check_run_exits_cleanly(capsys):
    code = harness.main(["--filter", "property/field_axioms"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "property/field_axioms" in out
    assert "1 checks: 1 pass, 0 fail" in out


def test_json_report_schema_and_key_order(symbolic_report):
    rows = json.loads(harness.render_json(symbolic_report))
    assert [r["check_id"] for r in rows] == sorted(r["check_id"] for r in rows)
    assert len(rows) == 8
    for row in rows:
        assert list(row) == JSON_KEY_ORDER
        assert row["status"] == "pass"
        assert row["residual_count"] == 0
        assert isinstance(row["paper_anchor"], str) and row["paper_anchor"]
        assert isinstance(row["millis"], (int, float))


def test_json_report_writes_non_finite_floats_as_null():
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    result = checks.CheckResult(
        residuals=("no endpoint accepted",),
        details={"values": [math.inf, math.nan, 1.5]},
        check_id="numeric/lemma6_2", paper_anchor="Lemma 6.2")
    report = harness.Report(config=harness.RunConfig(), results=[result])
    rows = json.loads(harness.render_json(report), parse_constant=reject)
    assert rows[0]["details"]["values"] == [None, None, 1.5]


def test_a_check_result_passes_iff_it_has_no_residual():
    assert checks.CheckResult().ok
    assert checks.CheckResult().status == "pass"
    planted = checks.CheckResult(residuals=("planted",))
    assert not planted.ok and planted.status == "fail"


def test_the_harness_names_anchors_and_times_every_row(capsys, monkeypatch):
    # a check returns only its findings; the row's id, anchor and time
    # come from the registry entry and the harness's own clock
    monkeypatch.setattr(checks, "check_expansion_1_2",
                        lambda: checks.CheckResult(residuals=("planted",)))
    code = harness.main(["--filter", "symbolic/expansion_1_2",
                         "--format", "json"])
    [row] = json.loads(capsys.readouterr().out)
    assert code == 1
    assert row["check_id"] == "symbolic/expansion_1_2"
    assert row["paper_anchor"] == "(1.2)"
    assert row["status"] == "fail" and row["residual_count"] == 1
    assert row["details"]["residuals"] == ["planted"]
    assert row["millis"] >= 0


def test_reports_are_identical_across_runs_up_to_timing():
    cfg = harness.build_config(["--filter", "symbolic/*", "--format", "json"])

    def strip(report):
        rows = json.loads(harness.render_json(report))
        for r in rows:
            r.pop("millis")
        return rows

    assert strip(harness.run(cfg)) == strip(harness.run(cfg))


def test_filter_selects_only_the_matching_phase(property_report):
    assert property_report.config.filter == "property/*"
    ids = [r.check_id for r in property_report.sorted_results()]
    assert ids == sorted(i for i in harness.check_ids()
                         if i.startswith("property/"))
    assert property_report.ok


def test_errata_ledger_entries_are_validated_by_known_checks():
    ledger = harness.errata_ledger()
    assert len(ledger) == 6
    ids = set(harness.check_ids())
    seen = set()
    for entry in ledger:
        assert set(entry) == {"id", "location", "printed", "corrected",
                              "reason", "validated_by"}
        assert entry["id"] not in seen
        seen.add(entry["id"])
        assert entry["validated_by"]
        assert set(entry["validated_by"]) <= ids
    locations = " ".join(e["location"] for e in ledger)
    assert "(1.2)" in locations and "(4.5)" in locations


def test_text_report_shows_tolerances_for_numeric_rows(numeric_run):
    # render the cheapest numeric check, on the session's shared results
    cfg = harness.build_config(["--filter", "numeric/seed_stability"])
    result = check_seed_stability(seed=cfg.seed, sample_r=cfg.sample_r,
                                  numeric=numeric_run)
    report = harness.Report(config=cfg, results=[dataclasses.replace(
        result, check_id="numeric/seed_stability",
        paper_anchor="Lemma 6.2 (stability)")])
    text = harness.render_text(report)
    assert "PASS" in text and "numeric/seed_stability" in text
    assert "tolerances:" in text
    assert text.splitlines()[-1] == "erratum ledger: covforge/errata.json"
