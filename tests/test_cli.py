"""CLI behaviour: exit codes, report grammar, determinism."""

import json
import os
import subprocess
import sys

import pytest

from lie2coh.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
ADJOINT = os.path.join(FIXTURES, "adjoint_aff1.json")
CENTRAL = os.path.join(FIXTURES, "central_h2.json")
TWISTED = os.path.join(FIXTURES, "twisted_aff1.json")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_calls_in_one_process_match_fresh_processes(capsys):
    """The parser is built once a process; a call must not see what an
    earlier call with another subcommand or option set parsed."""
    calls = [["cohomology", ADJOINT, "--degree", "1", "--trivial"],
             ["validate", ADJOINT],
             ["cohomology", ADJOINT, "--degree", "1"],
             ["cohomology", ADJOINT],
             ["group-checks", "bogus"],
             ["group-checks", "vanest-heisenberg"]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["lie2coh"].__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "lie2coh.cli"] + argv,
                               capture_output=True, text=True, env=env)
        assert (code, out.out, out.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_validate_pass(capsys):
    code, out, _ = run(capsys, ["validate", ADJOINT])
    assert code == 0
    assert "CHECK crossed_module: PASS" in out
    assert "CHECK two_rep: PASS" in out


def test_validate_broken_jacobi(tmp_path, capsys):
    raw = load_json(ADJOINT)
    raw["lie2algebra"]["h"]["brackets"] = {"0,1": ["0", "1"]}
    raw["lie2algebra"]["g"]["brackets"] = {
        "0,1": ["0", "1"]}
    bad = dict(raw)
    bad["lie2algebra"] = {
        "g": {"dim": 3, "brackets": {"0,1": ["0", "0", "1"],
                                     "0,2": ["0", "1", "0"],
                                     "1,2": ["0", "0", "1"]}},
        "h": {"dim": 0, "brackets": {}},
        "mu": [],
        "action": [],
    }
    bad.pop("two_vector", None)
    bad.pop("two_rep", None)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 1
    assert "CHECK jacobi_g: FAIL" in out
    assert "(0, 1, 2)" in out


def test_validate_reports_jacobi_h(tmp_path, capsys):
    """A bracket on h that fails Jacobi is reported as jacobi_h."""
    raw = load_json(ADJOINT)
    raw["lie2algebra"] = {
        "g": {"dim": 0, "brackets": {}},
        "h": {"dim": 3, "brackets": {"0,1": ["0", "0", "1"],
                                     "0,2": ["0", "1", "0"],
                                     "1,2": ["0", "0", "1"]}},
        "mu": [[], [], []],
        "action": [[], [], []],
    }
    raw.pop("two_vector", None)
    raw.pop("two_rep", None)
    path = tmp_path / "bad_h.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 1
    assert "CHECK jacobi_g: PASS" in out
    assert "CHECK jacobi_h: FAIL violating triples" in out


def test_group_checks_tolerance_defaults_to_the_scenario(monkeypatch,
                                                          capsys):
    """Without --tolerance each scenario checks at its own tolerance; a
    given one, 0 included, is passed on."""
    from lie2coh import grp
    seen = []

    def spy(name):
        def scenario(**kwargs):
            seen.append((name, kwargs.get("tol")))
            return [("row", 0.0, True)]
        return scenario
    for name in ("vanest-heisenberg", "lie-functor", "glphi"):
        monkeypatch.setitem(grp.SCENARIOS, name, spy(name))
    for argv in (["vanest-heisenberg"], ["lie-functor"], ["glphi"],
                 ["glphi", "--tolerance", "0"],
                 ["vanest-heisenberg", "--tolerance", "1e-3"]):
        assert run(capsys, ["group-checks"] + argv)[0] == 0
    assert seen == [("vanest-heisenberg", None), ("lie-functor", None),
                    ("glphi", None), ("glphi", 0.0),
                    ("vanest-heisenberg", 1e-3)]


def test_validate_broken_two_rep(tmp_path, capsys):
    raw = load_json(ADJOINT)
    raw["two_rep"]["rho0_W"][0] = [["1", "1"], ["0", "1"]]
    path = tmp_path / "badrep.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 1
    assert "CHECK two_rep: FAIL" in out


def test_invalid_two_rep_exit_two(tmp_path, capsys):
    """Commands that build the lattice refuse an invalid 2-representation
    as an input error, naming the violated identities."""
    raw = load_json(ADJOINT)
    raw["two_rep"]["rho0_V"][0][0][0] = "7"
    path = tmp_path / "badrho.json"
    path.write_text(json.dumps(raw))
    for argv in (["cohomology", str(path), "--degree", "1"],
                 ["nabla-check", str(path)]):
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert "rho0_v_homomorphism" in err


def test_trivial_invalid_crossed_module_exit_two(tmp_path, capsys):
    """--trivial validates the crossed module before computing: g fails
    Jacobi, and the unit 2-representation would accept any bracket."""
    bad = {"lie2algebra": {
        "g": {"dim": 3, "brackets": {"0,1": ["0", "0", "1"],
                                     "0,2": ["0", "1", "0"],
                                     "1,2": ["0", "0", "1"]}},
        "h": {"dim": 0, "brackets": {}},
        "mu": [],
        "action": []}}
    path = tmp_path / "badg.json"
    path.write_text(json.dumps(bad))
    code, out, err = run(capsys, ["cohomology", str(path), "--degree", "2",
                                  "--trivial"])
    assert code == 2
    assert "jacobi_g" in err
    assert "H^2" not in out


def test_oversized_nabla_exit_two(monkeypatch, capsys):
    """A nabla above the cell limit is refused as an input error."""
    import lie2coh.lattice as lattice_mod
    monkeypatch.setattr(lattice_mod, "MAX_NABLA_CELLS", 5000)
    for argv in (["cohomology", ADJOINT, "--degree", "3"],
                 ["nabla-check", ADJOINT]):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert "nabla_3: 120 x 56 = 6720 cells" in err
        assert "CHECK" not in out


def test_parse_error_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert "input error" in err and "line" in err


def test_dimension_error_exit_two(tmp_path, capsys):
    raw = load_json(ADJOINT)
    raw["lie2algebra"]["mu"] = [["1"]]
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert "mu" in err


def test_cohomology_low_degrees(capsys):
    code, out, _ = run(capsys, ["cohomology", ADJOINT, "--degree", "0"])
    assert code == 0 and "CHECK h0_matches_invariants: PASS" in out
    code, out, _ = run(capsys, ["cohomology", ADJOINT, "--degree", "1"])
    assert code == 0 and "CHECK h1_matches_out: PASS" in out


def test_cohomology_trivial(capsys):
    code, out, _ = run(capsys, ["cohomology", CENTRAL, "--degree", "2",
                                "--trivial"])
    assert code == 0
    assert "H^2_tot(trivial coefficients) = 1" in out


def test_nabla_check_and_determinism(capsys):
    argv = ["nabla-check", ADJOINT, "--max-degree", "2", "--trials", "2",
            "--seed", "11"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "CHECK nabla_squared_file_degree_2: PASS" in out1


def test_env_seed_used(tmp_path, capsys, monkeypatch):
    raw = load_json(ADJOINT)
    raw.pop("options", None)           # no file seed: the env var applies
    path = tmp_path / "no_options.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setenv("LIE2COH_SEED", "13")
    code1, out1, _ = run(capsys, ["nabla-check", str(path), "--max-degree",
                                  "1", "--trials", "1"])
    code2, out2, _ = run(capsys, ["nabla-check", str(path), "--max-degree",
                                  "1", "--trials", "1", "--seed", "13"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_extend_round_trip_cli(capsys):
    code, out, _ = run(capsys, ["extend", CENTRAL, "--cocycle",
                                "volume,zero_alpha,zero_phi"])
    assert code == 0
    assert "e0 bracket [0,1] = ['0', '0', '-1']" in out
    code, out, _ = run(capsys, ["split", CENTRAL, "--cocycle",
                                "volume,zero_alpha,zero_phi"])
    assert code == 0
    assert "CHECK canonical_splitting_round_trip: PASS" in out
    code, out, _ = run(capsys, ["split", CENTRAL, "--cocycle",
                                "volume,zero_alpha,zero_phi",
                                "--perturb", "3"])
    assert code == 0
    assert "CHECK perturbed_splitting_cohomologous: PASS" in out


def test_compare_classes(capsys):
    code, out, _ = run(capsys, ["compare", CENTRAL,
                                "--left", "volume,zero_alpha,zero_phi",
                                "--right", "volume,zero_alpha,zero_phi"])
    assert code == 0 and "cohomologous: yes" in out
    code, out, _ = run(capsys, ["compare", CENTRAL,
                                "--left", "volume,zero_alpha,zero_phi",
                                "--right", "volume2,zero_alpha,zero_phi"])
    assert code == 0 and "cohomologous: no" in out


GOLDEN_CENTRAL = [
    (["extend", "--cocycle", "volume,zero_alpha,zero_phi"],
     "extension e1 dim 0, e0 dim 3\n"
     "e0 bracket [0,1] = ['0', '0', '-1']\n"
     "CHECK cocycle_equations: PASS\n"
     "CHECK extension_crossed_module: PASS\n"
     "CHECK extension_rows_exact: PASS\n"),
    (["split", "--cocycle", "volume,zero_alpha,zero_phi"],
     "omega0 values: ['1']\n"
     "alpha values: []\n"
     "phimap (g columns): [[]]\n"
     "CHECK cocycle_equations: PASS\n"
     "CHECK extracted_cocycle_valid: PASS\n"
     "CHECK canonical_splitting_round_trip: PASS\n"),
    (["split", "--cocycle", "volume,zero_alpha,zero_phi", "--perturb", "3"],
     "omega0 values: ['1']\n"
     "alpha values: []\n"
     "phimap (g columns): [[]]\n"
     "CHECK cocycle_equations: PASS\n"
     "CHECK extracted_cocycle_valid: PASS\n"
     "CHECK perturbed_splitting_cohomologous: PASS\n"),
    (["compare", "--left", "volume,zero_alpha,zero_phi",
      "--right", "volume,zero_alpha,zero_phi"],
     "cohomologous: yes\n"
     "lambda0 = [['0', '0']]\n"
     "lambda1 = []\n"
     "CHECK cocycle_left_valid: PASS\n"
     "CHECK cocycle_right_valid: PASS\n"
     "CHECK compare_solved: PASS\n"),
    (["compare", "--left", "volume,zero_alpha,zero_phi",
      "--right", "volume2,zero_alpha,zero_phi"],
     "cohomologous: no\n"
     "CHECK cocycle_left_valid: PASS\n"
     "CHECK cocycle_right_valid: PASS\n"
     "CHECK compare_infeasible_certified: PASS\n"),
]


def test_extension_commands_golden(capsys):
    """extend, split and compare print exactly the pinned lines."""
    for args, expected in GOLDEN_CENTRAL:
        code, out, _ = run(capsys, args[:1] + [CENTRAL] + args[1:])
        assert code == 0, args
        assert out == expected, args


# x = (aff(1) -id-> aff(1)) with its adjoint 2-representation: g != 0,
# so alpha, phi_g and omega1 are nonzero; bad_alpha changes alpha(e_0; e_1)
# and breaks equation (ii) among others
GOLDEN_TWISTED = [
    (["extend", "--cocycle", "omega0,alpha,phimap"], 0,
     "extension e1 dim 4, e0 dim 4\n"
     "e1 bracket [0,1] = ['0', '1', '1', '2']\n"
     "e1 bracket [0,3] = ['0', '0', '0', '1']\n"
     "e1 bracket [1,2] = ['0', '0', '0', '-1']\n"
     "e0 bracket [0,1] = ['0', '1', '2', '1']\n"
     "e0 bracket [0,3] = ['0', '0', '0', '1']\n"
     "e0 bracket [1,2] = ['0', '0', '0', '-1']\n"
     "CHECK cocycle_equations: PASS\n"
     "CHECK extension_crossed_module: PASS\n"
     "CHECK extension_rows_exact: PASS\n"),
    (["extend", "--cocycle", "omega0,bad_alpha,phimap"], 1,
     "CHECK cocycle_equations: FAIL violated "
     "['ii', 'iv', 'omega1_definition', 'v', 'vi']\n"),
    (["split", "--cocycle", "omega0,alpha,phimap", "--perturb", "3"], 0,
     "omega0 values: ['-1', '0']\n"
     "alpha values: ['0', '0', '0', '0', '0', '-1', '0', '1']\n"
     "phimap (g columns): [['2', '1'], ['0', '3']]\n"
     "CHECK cocycle_equations: PASS\n"
     "CHECK extracted_cocycle_valid: PASS\n"
     "CHECK perturbed_splitting_cohomologous: PASS\n"),
    (["compare", "--left", "omega0,alpha,phimap",
      "--right", "zero_omega0,zero_alpha,zero_phimap"], 0,
     "cohomologous: yes\n"
     "lambda0 = [['1', '-2'], ['0', '0']]\n"
     "lambda1 = [['2', '-1'], ['1', '1']]\n"
     "CHECK cocycle_left_valid: PASS\n"
     "CHECK cocycle_right_valid: PASS\n"
     "CHECK compare_solved: PASS\n"),
    (["compare", "--left", "omega0,alpha,phimap",
      "--right", "omega0,bad_alpha,phimap"], 1,
     "CHECK cocycle_left_valid: PASS\n"
     "CHECK cocycle_right_valid: FAIL violated "
     "['ii', 'iv', 'omega1_definition', 'v', 'vi']\n"),
    # an invalid left cocycle does not hide the report on the right one
    (["compare", "--left", "omega0,bad_alpha,phimap",
      "--right", "omega0,alpha,phimap"], 1,
     "CHECK cocycle_left_valid: FAIL violated "
     "['ii', 'iv', 'omega1_definition', 'v', 'vi']\n"
     "CHECK cocycle_right_valid: PASS\n"),
]


def test_extension_commands_golden_twisted(capsys):
    """extend, split and compare on a cocycle with alpha, phi_g and omega1
    nonzero print exactly the pinned lines and exit codes."""
    for args, want_code, expected in GOLDEN_TWISTED:
        code, out, _ = run(capsys, args[:1] + [TWISTED] + args[1:])
        assert (code, out) == (want_code, expected), args


def test_missing_cochain_exit_two(capsys):
    code, _, err = run(capsys, ["extend", CENTRAL, "--cocycle",
                                "nope,zero_alpha,zero_phi"])
    assert code == 2 and "not found" in err


def test_group_checks_scenarios(capsys):
    for scenario in ("exp", "vanest-heisenberg"):
        code, out, _ = run(capsys, ["group-checks", scenario,
                                    "--trials", "5", "--seed", "1"])
        assert code == 0
        assert "FAIL" not in out


def test_group_checks_unknown_scenario(capsys):
    code, _, err = run(capsys, ["group-checks", "bogus"])
    assert code == 2 and "unknown scenario" in err


def test_group_checks_deterministic(capsys):
    argv = ["group-checks", "glphi", "--trials", "5", "--seed", "2"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_group_checks_prints_heisenberg_matrix(capsys):
    code, out, _ = run(capsys, ["group-checks", "vanest-heisenberg"])
    assert code == 0
    assert "Phi F on the basis = [[0, 1], [-1, 0]]" in out


def test_group_checks_mathematical_failure_exit_one(capsys):
    code, out, _ = run(capsys, ["group-checks", "glphi", "--trials", "5",
                                "--seed", "1", "--tolerance", "0"])
    assert code == 1
    assert "FAIL" in out


def test_golden_output_vanest_scenario(capsys):
    """The report grammar is stable enough for golden-file comparison."""
    code, out, _ = run(capsys, ["group-checks", "vanest-heisenberg"])
    assert code == 0
    assert out == (
        "Phi F on the basis = [[0, 1], [-1, 0]]\n"
        "CHECK vanest_phi_e1_e2: PASS residual 0.000e+00\n"
        "CHECK vanest_alternation: PASS residual 0.000e+00\n"
        "CHECK vanest_bilinear_point: PASS residual 0.000e+00\n")


def test_golden_output_validate(capsys):
    code, out, _ = run(capsys, ["validate", ADJOINT])
    assert code == 0
    assert out == ("CHECK jacobi_g: PASS\n"
                   "CHECK jacobi_h: PASS\n"
                   "CHECK crossed_module: PASS\n"
                   "CHECK two_rep: PASS\n")


def test_cohomology_requires_two_rep(tmp_path, capsys):
    raw = load_json(ADJOINT)
    raw.pop("two_rep")
    raw.pop("two_vector")
    path = tmp_path / "norep.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(capsys, ["cohomology", str(path), "--degree", "1"])
    assert code == 2 and "two_rep" in err
    # but the trivial-coefficient route still works
    code, out, _ = run(capsys, ["cohomology", str(path), "--degree", "2",
                                "--trivial"])
    assert code == 0


def test_nabla_check_full_fixture_within_budget(capsys):
    import time
    started = time.time()
    code, out, _ = run(capsys, ["nabla-check", ADJOINT, "--max-degree", "2"])
    assert code == 0
    assert time.time() - started <= 60


def _write(tmp_path, raw, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_bad_bracket_coefficient_exit_two(tmp_path, capsys):
    for value in (0.5, "1/0"):
        raw = load_json(ADJOINT)
        raw["lie2algebra"]["h"]["brackets"]["0,1"] = ["0", value]
        code, out, err = run(capsys, ["validate", _write(tmp_path, raw)])
        assert code == 2, value
        assert "lie2algebra.h: bracket '0,1'" in err
        assert "CHECK" not in out


def test_section_not_an_object_exit_two(tmp_path, capsys):
    raw = load_json(ADJOINT)
    raw["lie2algebra"]["h"] = [1]
    code, out, err = run(capsys, ["validate", _write(tmp_path, raw)])
    assert code == 2
    assert "lie2algebra.h: expected an object" in err
    assert "CHECK" not in out


def test_bracket_not_a_list_exit_two(tmp_path, capsys):
    raw = load_json(ADJOINT)
    raw["lie2algebra"]["h"]["brackets"] = {"0,1": 5}
    code, out, err = run(capsys, ["validate", _write(tmp_path, raw)])
    assert code == 2
    assert "lie2algebra.h: bracket '0,1': expected a list" in err
    assert "CHECK" not in out


def test_matrix_not_a_list_of_lists_exit_two(tmp_path, capsys):
    for mu, where in ((7, "lie2algebra.mu: expected a list"),
                      ([["0", "0"], 5], "lie2algebra.mu: row 1: expected "
                                        "a list")):
        raw = load_json(ADJOINT)
        raw["lie2algebra"]["mu"] = mu
        code, out, err = run(capsys, ["validate", _write(tmp_path, raw)])
        assert code == 2, mu
        assert where in err
        assert "CHECK" not in out


def test_bad_cochain_value_exit_two(tmp_path, capsys):
    for value in (0.5, "1/0"):
        raw = load_json(CENTRAL)
        raw["cochains"]["volume"]["values"] = [value]
        code, out, err = run(capsys, ["validate", _write(tmp_path, raw)])
        assert code == 2, value
        assert "cochains.volume.values[0]" in err


def test_non_integer_options_exit_two(tmp_path, capsys):
    for key, value in (("seed", "abc"), ("max_degree", [1]),
                       ("trials", 1.5)):
        raw = load_json(ADJOINT)
        raw["options"] = {key: value}
        code, out, err = run(capsys, ["nabla-check", _write(tmp_path, raw)])
        assert code == 2, key
        assert "options.%s: expected an integer" % key in err
        assert "CHECK" not in out


def test_nabla_check_negative_settings_exit_two(tmp_path, capsys):
    """A negative --max-degree or --trials, given as a flag or in the
    options section, is an input error."""
    for flag, key in (("--max-degree", "max_degree"), ("--trials", "trials")):
        code, out, err = run(capsys, ["nabla-check", ADJOINT, flag, "-1"])
        assert code == 2, flag
        assert "must be nonnegative" in err and "-1" in err
        assert "CHECK" not in out
        raw = load_json(ADJOINT)
        raw["options"] = {key: -3}
        code, out, err = run(capsys, ["nabla-check", _write(tmp_path, raw)])
        assert code == 2, key
        assert "must be nonnegative" in err and "-3" in err
        assert "CHECK" not in out


def test_nabla_check_oversized_random_trial_exit_two(tmp_path, monkeypatch,
                                                     capsys):
    """A random trial whose nabla is above the cell limit is refused as an
    input error, not a traceback."""
    import lie2coh.lattice as lattice_mod
    monkeypatch.setattr(lattice_mod, "MAX_NABLA_CELLS", 1)
    raw = load_json(CENTRAL)
    raw.pop("two_rep")
    code, out, err = run(capsys, ["nabla-check", _write(tmp_path, raw),
                                  "--trials", "1", "--seed", "0"])
    assert code == 2
    assert "refusing to build nabla_" in err
    assert "CHECK" not in out


def test_non_integer_env_seed_exit_two(capsys, monkeypatch):
    monkeypatch.setenv("LIE2COH_SEED", "abc")
    code, out, err = run(capsys, ["group-checks", "glphi", "--trials", "2"])
    assert code == 2
    assert "LIE2COH_SEED: expected an integer" in err


def test_group_checks_dims_below_one_exit_two(capsys):
    for scenario in ("glphi", "exp", "startop", "gp2cocycle-semidirect"):
        for dims in (["0", "1"], ["1", "0"], ["-1", "1"]):
            code, out, err = run(capsys, ["group-checks", scenario,
                                          "--dims"] + dims)
            assert code == 2, (scenario, dims)
            assert "--dims entries must be at least 1" in err
            assert out == ""


def test_group_checks_trials_below_one_exit_two(capsys):
    for trials in ("0", "-3"):
        code, out, err = run(capsys, ["group-checks", "glphi", "--trials",
                                      trials])
        assert code == 2, trials
        assert "--trials must be at least 1" in err
        assert out == ""


def _with(value, *keys):
    """A change to a fixture that sets raw[keys[0]][keys[1]]... to value."""
    def change(raw):
        target = raw
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return raw
    return change


def _without(*keys):
    """A change to a fixture that drops the given top-level sections."""
    def change(raw):
        for key in keys:
            del raw[key]
        return raw
    return change


def _same(raw):
    return raw


# (id, fixture, change to a copy of it (None: no file is written), command
# with the copy's path after the subcommand, message of the input error)
INPUT_ERRORS = [
    ("matrix_row_length", ADJOINT,
     _with([["0"], ["0", "1"]], "lie2algebra", "mu"), ["validate"],
     "lie2algebra.mu: row 0 has 1 entries, expected 2"),
    ("algebra_dim", ADJOINT, _with(-1, "lie2algebra", "g", "dim"),
     ["validate"], "lie2algebra.g: missing or bad 'dim'"),
    ("bracket_key", ADJOINT,
     _with({"0-1": ["0", "1"]}, "lie2algebra", "h", "brackets"),
     ["validate"], "lie2algebra.h: bad bracket key '0-1'"),
    ("bracket_key_range", ADJOINT,
     _with({"1,0": ["0", "1"]}, "lie2algebra", "h", "brackets"),
     ["validate"], "lie2algebra.h: bracket key '1,0' out of range"),
    ("bracket_length", ADJOINT,
     _with({"0,1": ["1"]}, "lie2algebra", "h", "brackets"), ["validate"],
     "lie2algebra.h: bracket '0,1' has 1 coefficients, expected 2"),
    ("action_count", ADJOINT,
     _with([[["1", "0"], ["0", "1"]]], "lie2algebra", "action"),
     ["validate"], "lie2algebra.action: expected 2 matrices"),
    ("two_vector_dims", ADJOINT, _with("2", "two_vector", "W"),
     ["validate"], "two_vector: W and V must be integers"),
    ("two_rep_alone", ADJOINT, _without("lie2algebra"), ["validate"],
     "two_rep needs lie2algebra and two_vector"),
    ("rho1_count", ADJOINT, _with([], "two_rep", "rho1"), ["validate"],
     "two_rep.rho1: expected 2 matrices"),
    ("rho0_count", ADJOINT, _with([], "two_rep", "rho0_V"), ["validate"],
     "two_rep.rho0_W/rho0_V: expected 2 matrices"),
    ("cochain_index_shape", CENTRAL,
     _with({"index": [0, 2], "values": ["1"]}, "cochains", "volume"),
     ["validate"], "cochains.volume: need index [p,q,r] and values"),
    ("unreadable_file", ADJOINT, None, ["validate"],
     "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    ("top_level_not_object", ADJOINT, lambda raw: [raw], ["validate"],
     "{path}: top level must be an object"),
    ("negative_degree", ADJOINT, _same, ["cohomology", "--degree", "-1"],
     "--degree must be nonnegative"),
    ("trivial_without_algebra", ADJOINT, _without("lie2algebra", "two_rep"),
     ["cohomology", "--degree", "1", "--trivial"],
     "--trivial needs a lie2algebra section"),
    ("cochain_wrong_index", CENTRAL, _same,
     ["extend", "--cocycle", "zero_alpha,zero_alpha,zero_phi"],
     "cochain 'zero_alpha' has index (0, 1, 1), expected (0, 2, 0)"),
    ("cochain_value_count", CENTRAL,
     _with(["1", "2"], "cochains", "volume", "values"),
     ["extend", "--cocycle", "volume,zero_alpha,zero_phi"],
     "cochain 'volume' has 2 values, expected 1"),
    ("cocycle_name_count", CENTRAL, _same,
     ["extend", "--cocycle", "volume,zero_alpha"],
     "expected three comma-separated cochain names (omega0,alpha,phimap)"),
]


@pytest.mark.parametrize("fixture, change, command, message",
                         [case[1:] for case in INPUT_ERRORS],
                         ids=[case[0] for case in INPUT_ERRORS])
def test_malformed_input_exit_two(tmp_path, capsys, fixture, change,
                                  command, message):
    """Each malformed copy of a fixture is refused with exit 2 and the
    message that names what is wrong, before any check runs."""
    path = str(tmp_path / "input.json")
    if change is not None:
        path = _write(tmp_path, change(load_json(fixture)))
    code, out, err = run(capsys, command[:1] + [path] + command[1:])
    assert code == 2
    assert err == "input error: %s\n" % message.format(path=path)
    assert out == ""


GOLDEN_GROUP_CHECKS = [
    (["glphi", "--dims", "2", "1"],
     "CHECK glphi_action_automorphism: PASS residual 1.110e-16\n"
     "CHECK glphi_equivariance: PASS residual 4.441e-16\n"
     "CHECK glphi_i_homomorphism: PASS residual 2.220e-16\n"
     "CHECK glphi_peiffer: PASS residual 2.220e-16\n"
     "CHECK glphi_right_action: PASS residual 1.110e-16\n"
     "CHECK glphi_curvature: PASS residual 2.220e-16\n"),
    (["glphi", "--dims", "3", "2"],
     "CHECK glphi_action_automorphism: PASS residual 4.441e-16\n"
     "CHECK glphi_equivariance: PASS residual 1.110e-15\n"
     "CHECK glphi_i_homomorphism: PASS residual 4.441e-16\n"
     "CHECK glphi_peiffer: PASS residual 3.331e-16\n"
     "CHECK glphi_right_action: PASS residual 3.331e-16\n"
     "CHECK glphi_curvature: PASS residual 8.882e-16\n"),
    (["exp", "--dims", "2", "1"],
     "CHECK exp_one_parameter: PASS residual 3.331e-16\n"
     "CHECK exp_delta_vs_matrix_exp: PASS residual 2.220e-16\n"),
    (["exp", "--dims", "3", "2"],
     "CHECK exp_one_parameter: PASS residual 4.441e-16\n"
     "CHECK exp_delta_vs_matrix_exp: PASS residual 2.665e-15\n"),
    (["lie-functor"],
     "CHECK lie_functor_phi_identity: PASS residual 0.000e+00\n"
     "CHECK lie_functor_phi_projection: PASS residual 0.000e+00\n"
     "CHECK lie_functor_phi_zero_2x2: PASS residual 0.000e+00\n"),
    (["startop", "--dims", "2", "1"],
     "CHECK startop_r1: PASS residual 2.220e-16\n"
     "CHECK startop_r2: PASS residual 2.776e-17\n"
     "CHECK atsch_iv_p0q0: PASS residual 5.551e-17\n"
     "CHECK atsch_v_p0q0: PASS residual 3.469e-17\n"
     "CHECK atsch_iv_p0q1: PASS residual 2.498e-16\n"
     "CHECK atsch_v_p0q1: PASS residual 1.041e-17\n"
     "CHECK atsch_iv_p1q0: PASS residual 5.551e-17\n"
     "CHECK atsch_v_p1q0: PASS residual 5.551e-17\n"),
    (["startop", "--dims", "3", "2"],
     "CHECK startop_r1: PASS residual 3.469e-16\n"
     "CHECK startop_r2: PASS residual 1.221e-15\n"
     "CHECK atsch_iv_p0q0: PASS residual 2.498e-16\n"
     "CHECK atsch_v_p0q0: PASS residual 2.220e-16\n"
     "CHECK atsch_iv_p0q1: PASS residual 1.544e-16\n"
     "CHECK atsch_v_p0q1: PASS residual 2.082e-16\n"
     "CHECK atsch_iv_p1q0: PASS residual 1.527e-16\n"
     "CHECK atsch_v_p1q0: PASS residual 3.331e-16\n"),
    (["vanest-heisenberg"],
     "Phi F on the basis = [[0, 1], [-1, 0]]\n"
     "CHECK vanest_phi_e1_e2: PASS residual 0.000e+00\n"
     "CHECK vanest_alternation: PASS residual 0.000e+00\n"
     "CHECK vanest_bilinear_point: PASS residual 0.000e+00\n"),
] + [
    (["gp2cocycle-semidirect", "--dims", w, v],
     "".join("CHECK gp2cocycle_semidirect_eq_%s: PASS residual 0.000e+00\n"
             % k for k in ("i", "ii", "iii", "iv", "v", "vi", "vii"))
     + "CHECK gp2cocycle_perturbed_alpha_trips_iv: PASS residual "
       "2.198e-02\n")
    for w, v in (("2", "1"), ("3", "2"))
]


def test_group_checks_golden(capsys):
    """Every scenario prints exactly the pinned report (--trials 5 --seed 3;
    dims 2 1 and 3 2 where the scenario takes dims)."""
    for args, expected in GOLDEN_GROUP_CHECKS:
        code, out, _ = run(capsys, ["group-checks"] + args
                           + ["--trials", "5", "--seed", "3"])
        assert code == 0, args
        assert out == expected, args
