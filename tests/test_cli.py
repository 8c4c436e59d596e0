"""Command-line interface tests: exit codes, JSON reports, round trips.

All invocations go through cli.main(argv) in-process; stdout is captured
with capsys (the shipped-file golden check runs cli.main in one child
interpreter per hash seed, and the scripts under scripts/ run in their
own). Exit-code contract: 0 pass, 1 fail/refuted, 2 usage or parse
error, 3 bounded-only verdict.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from talgebra import cli
from talgebra.formats import parse_model, parse_theory

import pytest

from conftest import DATA, data_text


GOLDEN_FORCING = Path(__file__).with_name("golden_forcing.json")
GOLDEN_CLI = Path(__file__).with_name("golden_cli.json")


def path(name: str) -> str:
    return str(DATA.joinpath(name))


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# --- check-model -------------------------------------------------------------


def test_check_model_pass(capsys):
    code, out, _ = run(capsys, "check-model", path("exsound.ta"),
                       path("exsound_counter.tam"))
    assert code == 0
    assert "all axioms hold" in out


def test_check_model_json_roundtrip(capsys):
    # [DERIVED] the JSON report embeds reparseable theory and model text.
    code, report, _ = run_json(capsys, "check-model", path("exsound.ta"),
                               path("exsound_counter.tam"))
    assert code == 0 and report["all_hold"]
    th = parse_theory(report["theory_text"])
    assert th.sentences == parse_theory(data_text("exsound.ta")).sentences
    m = parse_model(report["model_text"], th.signature)
    assert m.carrier == parse_model(data_text("exsound_counter.tam"),
                                    th.signature).carrier


def test_check_model_fail(tmp_path, capsys):
    # toy.ta demands a = b; a discrete 2-element model violates it
    bad = tmp_path / "bad.tam"
    bad.write_text("model\ncarrier s = e0, e1\n"
                   "fun a = e0\nfun b = e1\n"
                   "fun f(e0) = e0\nfun f(e1) = e1\n"
                   "rel lam s =\n")
    code, out, _ = run(capsys, "check-model", path("toy.ta"), str(bad))
    assert code == 1
    assert "FAIL" in out


def test_check_model_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.tam"
    bad.write_text("model\ncarrier s = e0\nfun nosuch = e0\n")
    code, _, err = run(capsys, "check-model", path("toy.ta"), str(bad))
    assert code == 2
    assert "error" in err


# --- prove -------------------------------------------------------------------


def test_prove_schematic_valid(capsys):
    code, out, _ = run(capsys, "prove", path("star_loop.ta"),
                       path("star_loop.tap"))
    assert code == 0
    assert "VALID" in out


def test_prove_bounded_exit_3(capsys):
    code, out, _ = run(capsys, "prove", path("star_loop.ta"),
                       path("star_loop.tap"), "--star-bound", "4")
    assert code == 3
    assert "BOUNDED_VALID(4)" in out


def test_prove_unknown_rule_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.tap"
    bad.write_text(data_text("star_loop.tap").replace("Star_E", "Star_X"))
    code, out, _ = run(capsys, "prove", path("star_loop.ta"), str(bad))
    assert code == 1
    assert "INVALID" in out and "(at root)" in out


def test_prove_bad_root_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.tap"
    bad.write_text(data_text("star_loop.tap").replace("root s2", "root s9"))
    code, _, err = run(capsys, "prove", path("star_loop.ta"), str(bad))
    assert code == 2


def test_prove_cyclic_script_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.tap"
    bad.write_text('s1 = rule S [s1] conclusion "a = a"\n')
    code, out, err = run(capsys, "prove", path("star_loop.ta"), str(bad))
    assert code == 2 and out == ""
    assert "line 1, column 1: step 's1' depends on itself" in err


PROBE_THEORY = "theory p\nsorts s\nops\n  a : -> s\n  b : -> s\nlabels lam, mu\n"


@pytest.mark.parametrize("script,code,expected", [
    ('s1 = rule Monotonicity assume "a =[(lam ; mu)]=> b" '
     'conclusion "a =[(lam ; mu)]=> b"\n', 0, "verdict: VALID"),
    ('s1 = rule Monotonicity consts "x : s" assume "a =[lam]=> x" '
     'conclusion "a =[lam]=> x"\n', 0, "verdict: VALID"),
    # options that were accepted and then never read
    ('s1 = rule R phi "a = b" conclusion "a = a"\n', 2,
     "line 1, column 13: unknown step option 'phi'"),
    ('s1 = rule R gamma "a = b" conclusion "a = a"\n', 2,
     "line 1, column 13: unknown step option 'gamma'"),
    ('s1 = rule R morphism "a = b" conclusion "a = a"\n', 2,
     "line 1, column 13: unknown step option 'morphism'"),
])
def test_prove_step_fields(tmp_path, capsys, script, code, expected):
    theory = tmp_path / "p.ta"
    theory.write_text(PROBE_THEORY)
    proof = tmp_path / "p.tap"
    proof.write_text(script)
    got, out, err = run(capsys, "prove", str(theory), str(proof))
    assert got == code and expected in out + err


def test_prove_root_inside_family_template_exit_2(tmp_path, capsys):
    # t1 is the template of s2's premise family, not a step of the main proof
    bad = tmp_path / "bad.tap"
    bad.write_text(data_text("star_loop.tap").replace("root s2", "root t1"))
    code, out, err = run(capsys, "prove", path("star_loop.ta"), str(bad))
    assert code == 2
    assert "family template" in err and "VALID" not in out


def test_prove_invalid_below_root_reports_path(tmp_path, capsys):
    bad = tmp_path / "bad.tap"
    bad.write_text(data_text("star_loop.tap").replace(
        's1 = rule Monotonicity conclusion "a =[lam*]=> b"',
        's1 = rule Monotonicity conclusion "b =[lam*]=> a"'))
    code, out, _ = run(capsys, "prove", path("star_loop.ta"), str(bad))
    assert code == 1
    assert "INVALID at 0" in out and "(at 0)" in out
    code, report, _ = run_json(capsys, "prove", path("star_loop.ta"),
                               str(bad))
    assert code == 1
    assert report["path"] == [0]


# --- oracle and entail-basic --------------------------------------------------


def test_oracle_no_countermodel(capsys):
    code, out, _ = run(capsys, "oracle", path("toy.ta"), "b = a",
                       "--max-size", "2")
    assert code == 0
    assert "no countermodel" in out


def test_oracle_finds_countermodel(tmp_path, capsys):
    out_file = tmp_path / "counter.tam"
    code, report, _ = run_json(capsys, "oracle", path("toy.ta"),
                               "f(a) = a", "--max-size", "2",
                               "-o", str(out_file))
    assert code == 1
    th = parse_theory(data_text("toy.ta"))
    m = parse_model(report["countermodel"], th.signature)
    assert m.carrier  # reparseable countermodel in the report
    assert out_file.exists()
    parse_model(out_file.read_text(), th.signature)


def test_entail_basic_pass_and_fail(capsys):
    code, out, _ = run(capsys, "entail-basic", path("toy.ta"),
                       "f(a) = f(b)")
    assert code == 0 and "entailed: True" in out
    code, out, _ = run(capsys, "entail-basic", path("toy.ta"), "f(a) = a")
    assert code == 1 and "entailed: False" in out


def test_entail_basic_nonground_goal_exit_2(capsys):
    code, _, err = run(capsys, "entail-basic", path("toy.ta"),
                       "exists {x:s} . x = a")
    assert code == 2


# --- ccs ----------------------------------------------------------------------


def test_ccs_compile(tmp_path, capsys):
    out_file = tmp_path / "inst.ta"
    code, report, _ = run_json(capsys, "ccs", "compile",
                               path("mathematician.ccs"), "-o", str(out_file))
    assert code == 0
    th = parse_theory(out_file.read_text())
    assert any(n and n.startswith("Act[") for n, _ in th.axioms)


def test_ccs_search(capsys):
    code, report, _ = run_json(capsys, "ccs", "search",
                               path("mathematician.ccs"),
                               "--from",
                               r"(Mathematician | CoffeeVM) \ (coin, coffee)",
                               "--depth", "3")
    assert code == 0
    words = [row["word"] for row in report["derivatives"]]
    assert "tau tau 'theorem" in words


@pytest.mark.parametrize("start", ["zz . 0", "Zed"])
def test_ccs_search_undeclared_start_exit_2(capsys, start):
    code, out, err = run(capsys, "ccs", "search", path("mathematician.ccs"),
                         "--from", start)
    assert code == 2 and out == ""
    assert "undeclared" in err


@pytest.mark.parametrize("text,message", [
    ("channels a\nX ::= X\n", "unguarded recursion: X"),
    ("channels a\nX ::= a . (X | 0\n", "line 2, column"),
    # each declaration is shallow, but unfolding X0 nests 1200 levels deep
    pytest.param("channels a\nX ::= X0\n"
                 + "".join(f"X{i} ::= X{i + 1} + a.0\n" for i in range(600))
                 + "X600 ::= a.0\n",
                 "unguarded identifier chain X499 -> X500 -> ",
                 id="identifier-chain"),
])
def test_ccs_ill_formed_program_exit_2(tmp_path, capsys, text, message):
    program = tmp_path / "bad.ccs"
    program.write_text(text)
    code, out, err = run(capsys, "ccs", "search", str(program), "--from", "X")
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("body,column", [
    ("(" * 400 + "a.0" + ")" * 400, 207),   # the 201st parenthesis
    (" + ".join(["a.0"] * 250), 1205),      # the 200th "+"
    ("a." * 250 + "0", 407),                # the 201st prefix
], ids=["parentheses", "sum", "prefixes"])
def test_ccs_deep_nesting_exit_2(tmp_path, capsys, body, column):
    program = tmp_path / "deep.ccs"
    program.write_text(f"channels a\nX ::= {body}\n")
    code, out, err = run(capsys, "ccs", "search", str(program), "--from", "X")
    assert code == 2 and out == ""
    assert f"line 2, column {column}: process nested deeper than 200" in err
    code, out, err = run(capsys, "ccs", "search", path("mathematician.ccs"),
                         "--from", body.replace("a", "coin"))
    assert code == 2 and "nested deeper" in err
    program.write_text("channels a\nX ::= " + "(" * 199 + "a.0" + ")" * 199)
    code, out, _ = run(capsys, "ccs", "search", str(program), "--from", "X")
    assert code == 0 and "1 derivatives" in out


def test_ccs_prove_shipped_script(capsys):
    code, out, _ = run(capsys, "ccs", "prove", path("mathematician.ccs"),
                       path("institute.tap"), "--restrict", "coin,coffee")
    assert code == 0
    assert "VALID" in out


# --- forcing ------------------------------------------------------------------


def test_forcing_validate(capsys):
    code, report, _ = run_json(capsys, "forcing", "validate",
                               path("chain2.taf"), "--limit", "24")
    assert code == 0


def test_forcing_axioms_block_exit_2(tmp_path, capsys):
    fixture = tmp_path / "axioms.taf"
    fixture.write_text("sorts s\nops\n  a : -> s\nlabels lam\naxioms\n"
                       "  a =[lam]=> a\ncondition base\n  atom a = a\n")
    code, out, err = run(capsys, "forcing", "validate", str(fixture))
    assert code == 2 and out == ""
    assert "line 5, column 1" in err and "axioms" in err


def test_forcing_generic_seed_echo(capsys):
    code, out, _ = run(capsys, "forcing", "generic", path("chain2.taf"),
                       "--start", "base", "--steps", "8", "--seed", "7")
    assert code == 0
    assert "seed: 7" in out


def test_forcing_generic_seed_in_json_report(capsys):
    code, report, _ = run_json(capsys, "forcing", "generic",
                               path("chain2.taf"), "--start", "base",
                               "--steps", "8", "--seed", "7")
    assert code == 0
    assert report["seed"] == 7


def test_forcing_model(tmp_path, capsys):
    out_file = tmp_path / "generic.tam"
    code, _, _ = run(capsys, "forcing", "model", path("chain2.taf"),
                     "--start", "base", "--steps", "8", "-o", str(out_file))
    assert code == 0
    assert out_file.exists()


def test_forcing_crosscheck_agree_negative(capsys):
    # p does not weakly force the negation of one of its own atoms, and
    # no proof is supplied: both sides say no
    code, report, _ = run_json(capsys, "forcing", "crosscheck",
                               path("chain2.taf"), "--condition", "p",
                               "--sentence", "not a =[lam]=> a")
    assert code == 0
    assert report["agree"] and not report["weakly_forces"]


def test_forcing_crosscheck_agree_with_proof(tmp_path, capsys):
    proof = tmp_path / "loop.tap"
    proof.write_text('s1 = rule Monotonicity conclusion "a =[lam]=> a"\n'
                     "root s1\n")
    code, report, _ = run_json(capsys, "forcing", "crosscheck",
                               path("chain2.taf"), "--condition", "p",
                               "--sentence", "a =[lam]=> a",
                               "--proof", str(proof))
    assert code == 0
    assert report["agree"] and report["weakly_forces"] and report["provable"]


def test_forcing_outputs_match_golden(capsys, monkeypatch):
    """The JSON of forcing validate (limits 16 and 48), generic and model from
    the least condition of each shipped .taf, recorded before the sentence
    enumeration became lazy: its order may not drift."""
    monkeypatch.chdir(str(DATA))
    records = json.loads(GOLDEN_FORCING.read_text())
    assert len(records) == 20
    for record in records:
        code, out, _ = run(capsys, *record["argv"])
        assert (code, out) == (record["exit"], record["stdout"]), record["argv"]


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_shipped_file_outputs_match_golden(hash_seed):
    """The JSON of check-model, oracle, prove (schematic and with star bounds
    3 and 240), entail-basic, ccs compile, ccs search and ccs prove on the
    shipped files: their bytes may not change, whatever the hash seed. They
    run in one interpreter per seed: 0, the seed that perfbench fixes, and
    1."""
    records = json.loads(GOLDEN_CLI.read_text())
    assert len(records) == 17
    runner = ("import contextlib, io, json, sys\n"
              "from talgebra import cli\n"
              "out = []\n"
              "for argv in json.load(sys.stdin):\n"
              "    buf = io.StringIO()\n"
              "    with contextlib.redirect_stdout(buf):\n"
              "        out.append([cli.main(argv), buf.getvalue()])\n"
              "print(json.dumps(out))\n")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", runner], cwd=str(DATA),
                          env=env, input=json.dumps([r["argv"] for r in records]),
                          capture_output=True, text=True, check=True)
    for record, (code, out) in zip(records, json.loads(done.stdout)):
        assert (code, out) == (record["exit"], record["stdout"]), record["argv"]


# --- usage errors ---------------------------------------------------------------


def test_no_subcommand_exit_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exit_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "check-model", "/nonexistent.ta",
                       "/nonexistent.tam")
    assert code == 2


def test_consecutive_calls_share_one_parser(capsys):
    program = path("mathematician.ccs")

    def fresh(*argv):
        cli.build_parser.cache_clear()
        return run_json(capsys, *argv)

    restricted = fresh("ccs", "compile", program, "--restrict", "coin,coffee")
    plain = fresh("ccs", "compile", program)
    assert cli.build_parser() is cli.build_parser()
    # the --restrict list must not accumulate across calls
    for _ in range(2):
        assert run_json(capsys, "ccs", "compile", program,
                        "--restrict", "coin,coffee") == restricted
        assert run_json(capsys, "ccs", "compile", program) == plain
    assert restricted[1]["axioms"] != plain[1]["axioms"]
    generic = ("forcing", "generic", path("chain2.taf"), "--start", "base",
               "--steps", "4")
    assert run_json(capsys, *generic, "--seed", "7")[1]["seed"] == 7
    assert "seed" not in run_json(capsys, *generic)[1]
    assert cli.main(["--help"]) == 0
    assert cli.main(["forcing", "validate"]) == 2
    capsys.readouterr()
    assert run_json(capsys, "ccs", "compile", program) == plain


# --- deep and malformed input ----------------------------------------------------
#
# Actions and processes are read with an explicit stack and capped at 200
# levels; proof scripts are built and checked by walks, at any length.


def test_long_s_chain_valid(tmp_path, capsys):
    lines = ['s0 = rule Monotonicity axiom ab conclusion "a = b"']
    lines += [f's{i} = rule S [s{i - 1}] conclusion '
              f'"{"b = a" if i % 2 else "a = b"}"' for i in range(1, 10001)]
    script = tmp_path / "chain.tap"
    script.write_text("\n".join(lines) + "\n")
    code, report, _ = run_json(capsys, "prove", path("toy.ta"), str(script))
    assert code == 0 and report["verdict"] == "VALID"


@pytest.mark.parametrize("exponent,code", [(200, 0), (500, 2)])
def test_literal_power_counts_its_exponent(tmp_path, capsys, exponent, code):
    action = f"lam^{exponent}"
    script = tmp_path / "power.tap"
    script.write_text(f's1 = rule Monotonicity assume "a =[{action}]=> b" '
                      f'conclusion "a =[{action}]=> b"\n')
    got, out, err = run(capsys, "prove", path("star_loop.ta"), str(script))
    assert got == code
    if code:
        # the exponent: 31 is the opening quote, 9 its column in the field
        assert "line 1, column 40: action nested deeper than 200 levels" in err
    else:
        assert "verdict: VALID" in out


def test_parenthesized_action_5000_deep_exit_2(tmp_path, capsys):
    script = tmp_path / "deep.tap"
    script.write_text('s1 = rule Monotonicity assume "a =['
                      + "(" * 5000 + "lam" + ")" * 5000
                      + ']=> b" conclusion "a =[lam*]=> b"\n')
    code, out, err = run(capsys, "prove", path("star_loop.ta"), str(script))
    assert code == 2 and out == ""
    # the 201st parenthesis: the field opens at column 31, its actions at 5
    assert "line 1, column 236: action nested deeper than 200 levels" in err


def test_parenthesized_process_5000_deep_exit_2(tmp_path, capsys):
    program = tmp_path / "deep.ccs"
    program.write_text("channels a\nX ::= " + "(" * 5000 + "a.0"
                       + ")" * 5000 + "\n")
    for argv in (["compile", str(program)],
                 ["search", str(program), "--from", "X"]):
        code, out, err = run(capsys, "ccs", *argv)
        assert code == 2 and out == ""
        assert "line 2, column 207: process nested deeper than 200" in err


@pytest.mark.parametrize("body", [
    " + ".join(["a.0"] * 200),
    "a." * 200 + "0",
], ids=["sum", "prefixes"])
def test_ccs_answers_at_200_levels(tmp_path, capsys, body):
    """Each command on a process nested exactly 200 levels deep, on the test
    runner's own stack: the proof of X's first step prints and checks the
    terms of its target."""
    from talgebra.ccs import Ident, ccs_steps, certify_word, compile_to_theory
    from talgebra.ccs import parse_ccs
    from talgebra.formats import print_proof

    text = f"channels a\nX ::= {body}\n"
    program = tmp_path / "deep.ccs"
    program.write_text(text)
    prog = parse_ccs(text)
    compiled = compile_to_theory(prog)
    proof = certify_word(compiled, Ident("X"), ccs_steps(prog, Ident("X"))[:1])
    script = tmp_path / "step.tap"
    script.write_text(print_proof(proof, axiom_names={
        info.sentence: info.name for info in compiled.axioms}))
    assert run(capsys, "ccs", "compile", str(program))[0] == 0
    code, out, _ = run(capsys, "ccs", "search", str(program), "--from", "X")
    assert code == 0 and "derivatives" in out
    code, out, _ = run(capsys, "ccs", "prove", str(program), str(script))
    assert code == 0 and "verdict: VALID" in out


# Generated input: an action or a process wrapped up to 800 times in a
# repeated pattern of a few ways, sometimes with one token dropped or put
# in, and proof scripts of up to 800 steps. Literal powers are never
# nested: each such power doubles the action's printed size
# (test_nested_literal_powers_stay_small in test_formats.py).
_ACTION_WRAPS = ["({})", "({})*", "{} ; mu", "lam | {}", "({})^kappa",
                 "{} ; lam^3"]
_PROCESS_WRAPS = ["({})", "a . {}", "{} + b . 0", "'b . 0 | {}",
                  "({}) \\ a", "({}) \\ (a, b)"]
_NOISE = ["(", ")", ";", "|", "*", "^", "^0", "+", ".", "\\", "0", "lam",
          "zz", "kappa", "]=>", "=", ",", "'a", "n", "axiom"]


# sizes about the nesting cap and the old recursion limits come often
_SIZES = st.one_of(st.integers(0, 800),
                   st.sampled_from([199, 200, 201, 400, 600, 800]))


@st.composite
def _wrapped(draw, cores, wraps):
    text = draw(st.sampled_from(cores))
    pattern = draw(st.lists(st.sampled_from(wraps), min_size=1, max_size=4))
    for k in range(draw(_SIZES)):
        text = pattern[k % len(pattern)].format(text)
    if draw(st.booleans()):
        tokens = text.split(" ")
        at = draw(st.integers(0, len(tokens)))
        if draw(st.booleans()) and at < len(tokens):
            del tokens[at]
        else:
            tokens.insert(at, draw(st.sampled_from(_NOISE)))
        text = " ".join(tokens)
    return text


_STEP_OPTIONS = ['n 2', 'n kappa', 'n (', 'n "x y"', 'axiom loop',
                 'axiom "loop"', 'axiom conclusion', 'family kappa s1',
                 'assume "a =[lam^kappa]=> b"', 'conclusion "a =[lam*]=> b"',
                 'conclusion "a = a"', 'subst "x := a"', 'fresh "c : s"',
                 'vars "x : s"', 'consts "c : s"', 'exists "a = a"', '[s1]',
                 '[s1, s1]', '"', 'n', 'axiom', 'bogus']


@st.composite
def _step_lines(draw):
    # a chain of S steps, each citing the one before, then a few others
    chain = draw(_SIZES)
    lines = ['s0 = rule Monotonicity conclusion "a =[lam*]=> b"']
    lines += [f"s{i} = rule S [s{i - 1}] conclusion \"a = a\""
              for i in range(1, chain + 1)]
    for i in range(1, draw(st.integers(1, 4)) + 1):
        rule = draw(st.sampled_from(["Monotonicity", "Star_E", "Star_I", "R",
                                     "T", "GMP", "Nope"]))
        options = draw(st.lists(st.sampled_from(_STEP_OPTIONS), max_size=4))
        lines.append(f"t{i} = rule {rule} " + " ".join(options))
    if draw(st.booleans()):
        lines.append(f"root s{chain}")
    return "\n".join(lines) + "\n"


_MODEL = ("model\ncarrier s = e0, e1\nfun a = e0\nfun b = e1\n"
          "rel lam s = (e0, e1), (e1, e0)\nrel mu s = (e0, e0)\n")


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data(), command=st.sampled_from(
    ["prove", "prove-steps", "oracle", "check-model", "ccs-compile",
     "ccs-search", "ccs-prove"]))
def test_deep_and_malformed_input_gets_an_exit_code(tmp_path, capsys, data,
                                                     command):
    theory = tmp_path / "t.ta"
    program = tmp_path / "p.ccs"
    script = tmp_path / "s.tap"
    model = tmp_path / "m.tam"
    if command.startswith("ccs"):
        process = data.draw(_wrapped(["a . 0", "0", "X"], _PROCESS_WRAPS))
        program.write_text(f"channels a, b\nX ::= {process}\n")
        script.write_text(data.draw(_step_lines()))
        argv = {"ccs-compile": ["ccs", "compile", str(program)],
                "ccs-search": ["ccs", "search", path("mathematician.ccs"),
                               "--from", process.replace("a", "coin")
                               .replace("b", "coffee"), "--depth", "2",
                               "--ceiling", "500"],
                "ccs-prove": ["ccs", "prove", str(program), str(script)]}[
                    command]
    else:
        action = data.draw(_wrapped(["lam", "mu*", "lam^200", "lam^600"],
                                    _ACTION_WRAPS))
        theory.write_text("theory t\nsorts s\nops\n  a : -> s\n  b : -> s\n"
                          f"labels lam, mu\naxioms\n  \"loop\": a =[{action}]=> b\n")
        model.write_text(_MODEL)
        if command == "prove-steps":
            script.write_text(data.draw(_step_lines()))
        else:
            script.write_text(f's1 = rule Monotonicity assume "a =[{action}]=> '
                              f'b" conclusion "a =[{action}]=> b"\n')
        argv = {"prove": ["prove", str(theory), str(script)],
                "prove-steps": ["prove", path("star_loop.ta"), str(script),
                                "--star-bound", "3"],
                "oracle": ["oracle", str(theory), f"b =[{action}]=> a",
                           "--max-size", "1"],
                "check-model": ["check-model", str(theory), str(model)]}[
                    command]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


def _nested_sentence(kind: str, levels: int) -> tuple[str, int]:
    """A sentence `levels` (200 or 201) deep under `forall {x:s} .`: wrappers
    of one kind (not, forall or /\\, one or three levels each), then as many
    nots as make up the levels. Also the offset of the innermost wrapper,
    where a 201-level sentence goes past the cap."""
    opening, closing, each = {"not": ("not ", "", 1),
                              "forall": ("forall {x:s} . ", "", 3),
                              "and": ("/\\{x = x, ", "}", 3)}[kind]
    wrappers, nots = ((198 // each, 0) if levels == 201
                      else (198 // each - 1, each - 1))
    head = "forall {x:s} . "
    text = (head + opening * wrappers + "not " * nots + "x =[lam]=> x"
            + closing * wrappers)
    return text, len(head) + len(opening) * (wrappers - 1)


@pytest.mark.parametrize("kind", ["not", "forall", "and"])
@pytest.mark.parametrize("command", ["check-model", "oracle", "prove"])
@pytest.mark.parametrize("levels", [200, 201])
def test_sentence_nesting_cap_in_commands(tmp_path, capsys, kind, command,
                                          levels):
    """Sentences nest at most 200 levels: at 200 each command answers on the
    test runner's own stack (evaluating, printing and keying the sentence),
    and one level more exits 2 at the offending token. The model's lam is
    irreflexive at e0, so each forall stops at its first element; carriers
    of one element keep the oracle's evaluations linear too."""
    phi, offset = _nested_sentence(kind, levels)
    theory = tmp_path / "t.ta"
    axiom = phi if command == "check-model" else "forall {x:s} . x =[lam]=> x"
    theory.write_text("theory t\nsorts s\nlabels lam\naxioms\n"
                      f'  "deep": {axiom}\n')
    model = tmp_path / "m.tam"
    model.write_text("model\ncarrier s = e0, e1\nrel lam s = (e0, e1)\n")
    script = tmp_path / "s.tap"
    script.write_text(f's1 = rule Monotonicity assume "{phi}" '
                      f'conclusion "{phi}"\n')
    argv, line, col = {
        "check-model": (["check-model", str(theory), str(model)], 5, 11),
        "oracle": (["oracle", str(theory), phi, "--max-size", "1"], 1, 1),
        "prove": (["prove", str(theory), str(script)], 1, 32)}[command]
    code, out, err = run(capsys, *argv)
    if levels == 200:
        assert code in (0, 1) and "Traceback" not in err
        if command == "prove":
            assert "verdict: VALID" in out
        return
    assert code == 2 and out == ""
    assert (f"line {line}, column {col + offset}: sentence nested deeper "
            "than 200 levels") in err


@pytest.mark.xfail(strict=True, raises=RecursionError,
                   reason="terms are still read and compared by recursion: "
                          "App's __eq__ overflows near 248 levels")
def test_entail_basic_on_a_250_deep_term(tmp_path, capsys):
    theory = tmp_path / "deep.ta"
    theory.write_text("theory d\nsorts s\nops\n  a : -> s\n  f : s -> s\n"
                      "axioms\n  " + "f(" * 250 + "a" + ")" * 250 + " = a\n")
    code, _, _ = run(capsys, "entail-basic", str(theory), "a = a")
    assert code in (0, 1)


# --- scripts ----------------------------------------------------------------------


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# scripts/forcing_lab.py --steps 8 --limit 24, the same under any hash seed
FORCING_LAB = """\
chain2: lemma checks=10 violations=0; chain=base <= base <= base <= p <= p <= p <= p <= p <= p; model atoms checked=2 mismatches=0
chain3: lemma checks=72 violations=0; chain=base <= base <= base <= q <= q <= q <= q <= q <= q; model atoms checked=8 mismatches=0
diamond: lemma checks=36 violations=0; chain=base <= base <= base <= p <= p <= p <= top <= top <= top; model atoms checked=3 mismatches=0
fork: lemma checks=72 violations=0; chain=base <= base <= base <= base <= base <= base <= base <= base <= base; model atoms checked=8 mismatches=0
henkin: lemma checks=53 violations=0; chain=base <= base <= base <= q <= q <= q <= q <= q <= q; model atoms checked=8 mismatches=0
"""


def _script(name, *args):
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          env=env, capture_output=True, text=True, timeout=60)


def test_forcing_lab_output_pinned():
    done = _script("forcing_lab.py", "--steps", "8", "--limit", "24")
    assert done.returncode == 0 and done.stdout == FORCING_LAB


@pytest.mark.parametrize("name,args,expect", [
    ("demo_institute.py", [], "verdict: VALID"),
    ("random_soundness.py", ["--trials", "20"], "0 disagreements"),
])
def test_scripts_run(name, args, expect):
    done = _script(name, *args)
    assert done.returncode == 0 and expect in done.stdout, done.stderr
