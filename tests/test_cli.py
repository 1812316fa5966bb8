"""End-to-end exercises of the command line front end.

Everything runs in-process through ``main`` so we can check exit codes
and capture output without shelling out.
"""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

import rookdual.cli
import rookdual.diagrams
import rookdual.morphisms
import rookdual.semigroups
from rookdual import (
    DualityCell,
    NotationError,
    SetPartition,
    enumerate_is,
    enumerate_istar,
    enumerate_pistar,
    parse_element,
)
from rookdual.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_format_round_trip_everywhere():
    for n in (1, 2, 3):
        for a in enumerate_is(n):
            assert parse_element(str(a), "is", n) == a
    for k in (1, 2, 3):
        for a in enumerate_istar(k):
            assert parse_element(str(a), "istar", k) == a
        for a in enumerate_pistar(k):
            assert parse_element(str(a), "pistar", k) == a
            assert parse_element(str(a), "hat", k).diagram == a
    assert parse_element("0", "hat", 3).is_zero


def test_notation_errors_carry_positions():
    with pytest.raises(NotationError) as info:
        parse_element("[2,x,1]", "is", 3)
    assert info.value.position == 3
    with pytest.raises(NotationError):
        parse_element("[2,2]", "is", 2)  # not injective
    with pytest.raises(NotationError):
        parse_element("{1,5}", "istar", 2)  # point outside the rows
    with pytest.raises(NotationError):
        parse_element("{1,2'}", "istar", 2)  # does not cover both rows
    # Unicode digits pass str.isdigit but are not ASCII numbers
    with pytest.raises(NotationError) as info:
        parse_element("[1,\u00b2]", "is", 2)
    assert info.value.position == 3
    with pytest.raises(NotationError) as info:
        parse_element("{1,1'}|{\u00b9,2'}", "istar", 2)
    assert info.value.position == 7


def test_multiply_worked_example(capsys):
    code, out, err = run_cli(
        capsys, "multiply", "--semigroup", "is", "--n", "5",
        "[2,-,3,5,-]", "[5,4,1,-,-]",
    )
    assert code == 0
    assert out == "[-,5,2,-,-]\n"
    assert err == ""


def test_multiply_composition_reports_garbage(capsys):
    code, out, _ = run_cli(
        capsys, "multiply", "--semigroup", "composition", "--k", "1",
        "{1}|{1'}", "{1}|{1'}",
    )
    assert code == 0
    assert out.splitlines() == ["{1}|{1'}", "garbage=1"]


def test_multiply_hat_can_hit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "multiply", "--semigroup", "hat", "--k", "2",
        "{1,1'}|{2,2'}", "{1,2,1',2'}",
    )
    assert code == 0
    assert out == "0\n"


def test_enumerate_json(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--semigroup", "istar", "--k", "3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["count"] == 25
    assert len(payload["elements"]) == 25
    assert len(set(payload["elements"])) == 25


def test_act_coordinates(capsys):
    code, out, _ = run_cli(
        capsys, "act", "--space", "V", "--n", "2", "--k", "2",
        "{1,1'}|{2,2'}",
    )
    assert code == 0
    assert out.splitlines() == ["0 0 1", "1 1 1", "2 2 1", "3 3 1"]


def test_act_rook_flag(capsys):
    # the nowhere-defined map annihilates V but fixes the padding digit on U
    code, out, _ = run_cli(
        capsys, "act", "--space", "V", "--n", "2", "--k", "1",
        "--rook", "[-,-]",
    )
    assert code == 0
    assert out == "\n"
    code, out, _ = run_cli(
        capsys, "act", "--space", "U", "--n", "2", "--k", "1",
        "--rook", "[-,-]",
    )
    assert code == 0
    assert out.splitlines() == ["0 0 1"]


def test_act_tilde_on_v_names_the_actions_it_has(capsys):
    code, out, err = run_cli(
        capsys, "act", "--space", "V", "--n", "2", "--k", "2",
        "--variant", "tilde", "{1,1'}|{2,2'}",
    )
    assert code == 2
    assert out == ""
    assert "plain" in err and "hat" in err


def test_act_hat_on_v_takes_the_zero_and_refuses_a_non_dual_element(capsys):
    """Under hat, V parses its element as U does: the adjoined zero kills
    every tensor, while a partial dual element that is not dual is a
    usage error."""
    for space in ("V", "U"):
        code, out, err = run_cli(
            capsys, "act", "--space", space, "--n", "2", "--k", "2",
            "--variant", "hat", "--format", "json", "0",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["entries"] == []
        assert payload["rows"] == (4 if space == "V" else 9)
    code, out, err = run_cli(
        capsys, "act", "--space", "V", "--n", "2", "--k", "2",
        "--variant", "hat", "{1,1'}",
    )
    assert code == 2
    assert out == ""
    assert err == "error: the hat action on V^k needs a dual element or 0\n"


def test_act_json_entries_are_strings(capsys):
    code, out, _ = run_cli(
        capsys, "act", "--space", "U", "--n", "1", "--k", "1",
        "--variant", "hat", "--format", "json", "{1,1'}",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == payload["cols"] == 2
    assert [e[2] for e in payload["entries"]] == ["1"]


def test_commutant_dimension(capsys):
    code, out, _ = run_cli(
        capsys, "commutant", "--n", "2", "--k", "2", "--space", "V",
        "--side", "left-is",
    )
    assert code == 0
    assert out.splitlines()[0] == "dimension=3"


def test_commutant_basis_flag(capsys):
    code, out, _ = run_cli(
        capsys, "commutant", "--n", "1", "--k", "2", "--space", "V",
        "--side", "left-is", "--basis",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dimension=1"
    assert "0 0 1" in lines


def test_verify_props_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--props")
    assert code == 0
    assert out.splitlines()[-1] == "all_match=true"


def test_verify_all_json_validates_and_carries_every_centralizer(capsys):
    """Every cell of ``verify --all`` carries its four dims, and the
    schema refuses a report without them."""
    schema = json.loads(
        files("rookdual").joinpath("schemas/verify.schema.json").read_text()
    )
    code, out, _ = run_cli(capsys, "verify", "--all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert all(len(r["centralizer_dims"]) == 4 for r in payload["duality"])
    assert all(r["centralizer_ok"] is True for r in payload["duality"])
    payload["duality"][0].update(centralizer_dims=None, centralizer_ok=None)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload, schema)


def test_verify_thm_json_validates(capsys):
    schema = json.loads(
        files("rookdual").joinpath("schemas/verify.schema.json").read_text()
    )
    code, out, _ = run_cli(
        capsys, "verify", "--thm1", "--max-n", "2", "--max-k", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["mode"] == "thm1"
    assert payload["all_match"] is True
    assert payload["morphisms"] == []
    assert {(r["n"], r["k"]) for r in payload["duality"]} == {
        (1, 1), (1, 2), (2, 1), (2, 2),
    }

    code, out, _ = run_cli(
        capsys, "verify", "--thm2", "--max-n", "1", "--max-k", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert [r["space"] for r in payload["duality"]] == ["U"]


def test_verify_json_is_byte_identical(capsys):
    argv = ("verify", "--props", "--format", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


# sha256 of the full stdout of ``rookdual verify --all``, every cell run
# in full; the same under any PYTHONHASHSEED.
VERIFY_ALL_SHA256 = {
    "json": "17e8d30c986492a93177457e71136442ebb6c602c3824f85f9a98c6e277a1baa",
    "text": "dbc47715dfd86b30a58dcaf27813f0c8b5f086f02090d436460a1f2fcfb6de34",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_ALL_SHA256))
def test_verify_all_report_is_golden(fmt, capsys):
    code, out, err = run_cli(capsys, "verify", "--all", "--format", fmt)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256[fmt]


# sha256 of the full stdout of ``rookdual verify --props --n 2 --k K``;
# the same under any PYTHONHASHSEED.  Both morphism reports check every
# pair through k = 4, so k = 3 reads pairs=16384 and k = 4 pairs=4410000,
# each checked once per S_k x S_k orbit of rows and S_k orbit of columns.
VERIFY_PROPS_SHA256 = {
    ("2", "json"): "cc62318b037aebf690a3d8f5b533b28b0123695398793534d7747f2c829be510",
    ("2", "text"): "2a1169e634ef834e0fc5f5711d7c277e87f01b1270a5b5f9c25ef0dce9a117eb",
    ("3", "json"): "64702fb228840f399154722ed31b70991b4ed93f5aa60641329fddc445b8bbfe",
    ("3", "text"): "d17554d9240d00f67b1e0e93f5013f6caa7a87497e9586789b92dff9091f0b9e",
    ("4", "json"): "39fa972e06355de4350fc185fbb33df96b9a7992bb0d06af7a99868f0b13a1ed",
    ("4", "text"): "641ecf8366de536fa2f3edbc93f10da2c2de780f3a73733bef65ea4d90fbf2e2",
}


@pytest.mark.parametrize("k,fmt", sorted(VERIFY_PROPS_SHA256))
def test_verify_props_report_is_golden(k, fmt, capsys):
    code, out, err = run_cli(
        capsys, "verify", "--props", "--n", "2", "--k", k, "--format", fmt
    )
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PROPS_SHA256[(k, fmt)]


def test_verify_props_builds_each_deformation_part_once(capsys, monkeypatch):
    """One ``verify --props`` run enumerates P*_k once, walks once per map
    each of the 16 representatives of the two-sided S_3 x S_3 orbits of
    P*_3 and no other element (the walk gives both the image and the
    closed-form inverse, which the rest of each orbit takes moved from
    it).  The support sums compare only at those representatives: it
    expands the 16 under tilde, and under plain the 27 elements that are a
    representative or a term of a representative's image (every
    representative is a term of its own coarsening sum, and every block
    subset sum term is a coarsening sum term), each once however many
    reports read it: the hat supports are the plain expansion's orbit
    rows.  The family cache starts empty, so the run builds P*_3 itself."""
    calls = Counter()

    def counted(name, right):
        def wrapper(*args):
            # keyed without an action's space, which each report makes anew
            calls[name, *args[:1], *args[2:]] += 1
            return right(*args)

        return wrapper

    walks = ("_upper_set_with_mobius", "_subsets_with_sign")
    rows = rookdual.semigroups._family_orbits("pistar", 3)[2]
    representatives = [enumerate_pistar(3)[a] for a in rows]
    read = {  # the terms of the representatives' images
        SetPartition(3, code) for name in walks for y in representatives
        for code, _ in getattr(rookdual.morphisms, name)(y)
    }
    enumerate_, generators = rookdual.semigroups._MONOIDS["pistar"]
    pistar = (counted("enumerate_pistar", enumerate_), generators)
    monkeypatch.setitem(rookdual.semigroups._MONOIDS, "pistar", pistar)
    for name in walks:
        right = getattr(rookdual.morphisms, name)
        monkeypatch.setattr(rookdual.morphisms, name, counted(name, right))
    expand = rookdual.morphisms._action_rows

    def expanded(elements, space, variant, unguarded):  # counted per element it yields
        for element, rows in zip(elements, expand(elements, space, variant, unguarded)):
            calls["_action_rows", element, variant, unguarded] += 1
            yield rows

    monkeypatch.setattr(rookdual.morphisms, "_action_rows", expanded)
    rookdual.semigroups._family.cache_clear()
    code, _, _ = run_cli(capsys, "verify", "--props", "--n", "2", "--k", "3")
    assert code == 0
    assert max(calls.values()) == 1
    per_name = Counter(key[0] for key in calls)
    assert per_name["enumerate_pistar"] == 1
    assert all(per_name[name] == 16 for name in walks)
    assert {key[1] for key in calls if key[0] in walks} == set(representatives)
    by_variant = {"plain": set(), "tilde": set()}
    for key in calls:
        if key[0] == "_action_rows":
            by_variant[key[2]].add(key[1])
    assert by_variant == {"plain": read.union(representatives), "tilde": set(representatives)}
    assert (len(by_variant["plain"]), len(by_variant["tilde"])) == (27, 16)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_props_defaults_n_to_k(fmt, capsys):
    """Without ``--n``, ``verify --props`` runs the support sums at n = k,
    where they read every term; with neither flag both stay 2."""
    props = ("verify", "--props", "--format", fmt)
    at_k3 = run_cli(capsys, *props, "--k", "3")
    assert at_k3 == run_cli(capsys, *props, "--n", "3", "--k", "3")
    assert at_k3 != run_cli(capsys, *props, "--n", "2", "--k", "3")
    assert run_cli(capsys, *props) == run_cli(capsys, *props, "--n", "2", "--k", "2")


def test_verify_all_builds_each_family_once(capsys, monkeypatch):
    """From an empty family cache, one ``verify --all`` run enumerates
    each of its 11 (monoid, size) pairs once: IS_1..IS_4, I*_1..I*_4 and
    P*_1..P*_3 (the props reports read P*_2 again).  Cells of one monoid
    and size share its element list."""
    calls = Counter()
    for name, (right, generators) in list(rookdual.semigroups._MONOIDS.items()):

        def wrapper(size, unguarded=False, name=f"enumerate_{name}", right=right):
            calls[name] += 1
            return right(size, unguarded)

        monkeypatch.setitem(rookdual.semigroups._MONOIDS, name, (wrapper, generators))
    rookdual.semigroups._family.cache_clear()
    code, _, _ = run_cli(capsys, "verify", "--all")
    assert code == 0
    assert calls == {"enumerate_is": 4, "enumerate_istar": 4, "enumerate_pistar": 3}
    v, u = DualityCell(2, 3, "V"), DualityCell(2, 1, "U")
    assert v.elements("left") is u.elements("left")
    assert v.elements("right") is DualityCell(4, 3, "V").elements("right")


def test_verify_props_multiplies_each_middle_pair_once(capsys, monkeypatch):
    """One ``verify --props --n 2 --k 3`` run calls each domain product
    only for its generic recipes, at most once per pair of middle rows
    (15 rows at k = 3), and the star product only for the generic
    recipe of each middle row."""
    calls = Counter()

    def counted(name):
        right = getattr(rookdual.morphisms, name)

        def wrapper(a, b):
            calls[name, a, b] += 1
            return right(a, b)

        monkeypatch.setattr(rookdual.morphisms, name, wrapper)

    for name in ("pistar_codes", "bullet_codes", "star_codes"):
        counted(name)
    code, _, _ = run_cli(capsys, "verify", "--props", "--n", "2", "--k", "3")
    assert code == 0
    assert max(calls.values()) == 1
    per_name = Counter(key[0] for key in calls)
    assert 0 < per_name["pistar_codes"] <= 15 * 15
    assert 0 < per_name["bullet_codes"] <= 15 * 15
    assert 0 < per_name["star_codes"] <= 15


def test_module_entry_point_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "rookdual", "verify", "--props", "--n", "2", "--k", "2"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("all_match=true\n")


def test_a_closed_stdout_stops_quietly():
    """A reader that closes the pipe before the report is written (as
    ``| head -1`` does) stops the command with ``EXIT_BROKEN_PIPE`` and
    nothing on stderr: no ``BrokenPipeError`` traceback, then or at
    exit."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "rookdual", "verify", "--props"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (rookdual.cli.EXIT_BROKEN_PIPE, "")
    assert code not in (0, 1, 2)


# sha256 of the full stdout of ``rookdual commutant ... --basis``,
# pinned from a run of the Fraction null-space solver; the same under any
# PYTHONHASHSEED.
COMMUTANT_BASIS_SHA256 = {
    ("V", "2", "2", "left-is"): (
        "521ccb9244834e5d7160fd515c23aa23a58487ed225fdba55d4ee9c62bd97372",
        "1d12596959cd3c3b590dc93270925f30af22230d4edb420eeb0ce72b0b0e337e",
    ),
    ("V", "2", "2", "right-istar"): (
        "d5999459c045b50db4664ed77bbda13219a9f8f7b79e57b1bec1d67180585bf8",
        "a57656c619622c396f04bf2f0f39de59b01704fdcc7ab9a52b9d13c16070e7ce",
    ),
    ("U", "2", "2", "left-is"): (
        "93943e21a23470e0d0067dd0c9b0808642f4f1a7ac2c0c27cc3e7eca3355ec5f",
        "b181b789fa37edada6c97b340fbb76fbbcbdacac7ea4ccc283e054e5e6e4c684",
    ),
    ("U", "2", "2", "right-pistar"): (
        "c8c4975972b7a7985370485cf5cc8ef3f3cba9b5481a4857735054f742c50e6b",
        "275ba631173e3e8bad4442b22048e508d05a449a06042ebc1fe9d241e1fc7c08",
    ),
    ("V", "3", "3", "right-istar"): (
        "49caf7be59890eddc9aa26ad0f0e8533f6d9f7f82b13b42f0e1261c7a432d01d",
        "e5e03aad3bddd7aa77f957d644a1e5bc3bbb9a345dc7df4685662e40571bc3a6",
    ),
    # the cells where the right generating sets are furthest from all
    # elements, pinned from the all-element union-find solve
    ("V", "2", "4", "right-istar"): (
        "3a8fc9851f36839cf87bf18d2ae4405dd8eb462f378f0d7934f7684119b32dd5",
        "4f40308f874fe05563420c5e76d92e22d5f989d6e0f2efdd02caa9c22e020df5",
    ),
    ("U", "2", "3", "right-pistar"): (
        "f13c79eacdf6e1d60da4747711046fadd59cdd2e7618f42b1ffd8d6aed1a29d0",
        "bb31266d8c21d4150bd8dcbf261127072c24c6b7821be36713c0d74fe8a67168",
    ),
    ("U", "3", "3", "right-pistar"): (
        "a3348336f39bca510c6d237cb66e40d62a18472d1c5c76fb4f76a5a0c6db8fc8",
        "cb6d6212b235e9c495b67e01c5f3ab780fd8820d390b82eba16a09796bd065e3",
    ),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "cell", sorted(COMMUTANT_BASIS_SHA256), ids=lambda c: f"{c[0]}{c[1]},{c[2]}-{c[3]}"
)
def test_commutant_basis_is_golden(cell, fmt, capsys):
    space, n, k, side = cell
    code, out, err = run_cli(
        capsys, "commutant", "--space", space, "--n", n, "--k", k,
        "--side", side, "--basis", "--format", fmt,
    )
    assert code == 0
    assert err == ""
    digest = COMMUTANT_BASIS_SHA256[cell][fmt == "json"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the full stdout of ``rookdual act``, pinned from a run of
# the Fraction-matrix implementation; the same under any PYTHONHASHSEED.
ACT_SHA256 = {
    # a free output block sends each tensor to a sum
    ("V", "2", "2", "plain", "{1,1'}|{2}|{2'}"): (
        "06215736d0c7bbb8c94e5b09db087e38c029594588bca66210b8d62b407f2d98",
        "616ea5ce932d6404fc7e9ac323b087d199447283a48ea321ada6b554fad45f26",
    ),
    ("V", "3", "2", "plain", "{1,2'}|{2,1'}"): (
        "189bd74781b6f265677602edd62c41d5b09ad6b0f1fc1be35b7a67c5107d7642",
        "6aa4afea4095a333821f9d2d49a7ffa7b20d24a88fc46dffc5815558a65ba6a7",
    ),
    # pinned when V took the hat action of a dual element (the orbit basis)
    ("V", "2", "2", "hat", "{1,1'}|{2,2'}"): (
        "5574b6a953ab5ddf891961447b8b8f5a198d045561a28d636f52709dfe1bacaf",
        "55914cd7d3f13ee5743bc578a045b8dae545dd956e7264a90177026359ea46df",
    ),
    ("V", "3", "2", "rook", "[3,-,1]"): (
        "db280ea5573d411fd705311976adc2b75234c080001eae140013b9464a602f79",
        "0d489a98a95c46af48d9975e475fcd1c1028c4e6d129977378d100a7a680beca",
    ),
    ("U", "2", "2", "rook", "[2,-]"): (
        "75b195433a91e30628946ac6bcba7f76c375777413e759d4eb0eec2195ab752e",
        "0d41fd1e76f02bee17d3cd738a1796041c3e52bff36cbd79c67c79964d139dc6",
    ),
    ("U", "2", "2", "hat", "0"): (
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "69d2dbf030d54e89e28d799ba34ecaefae6df265812d16d05956b4bb4f54973c",
    ),
    ("U", "2", "2", "hat", "{1,2'}|{2,1'}"): (
        "7aad7d64065daa867a38e2d2bcbc11ddb5c3e2392d5e3d9dbd337b2bb3b9eca3",
        "cd9bffb9090a3d1468c638ec9213dc3604ebeb893ec3b9379b7a2ac92ac35a65",
    ),
    ("U", "2", "2", "tilde", "{1,2,1'}"): (
        "21f9d7f8eb4e2bd2423b31cf16116fa7d197d8377b23670beaa73f932ef22891",
        "6e0bfc0f889c6d5b8b33257fcd5d5c21b5f1b6950f4e2a37d405e8c5f80189a9",
    ),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(ACT_SHA256), ids="-".join)
def test_act_is_golden(case, fmt, capsys):
    space, n, k, variant, element = case
    flags = ["--rook"] if variant == "rook" else ["--variant", variant]
    code, out, err = run_cli(
        capsys, "act", "--space", space, "--n", n, "--k", k, *flags,
        "--format", fmt, element,
    )
    assert code == 0
    assert err == ""
    digest = ACT_SHA256[case][fmt == "json"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the full stdout of ``rookdual enumerate``, pinned before
# diagrams were stored as block-mask codes; it fixes the text form and
# the ``sort_key`` order of every element.  The same under any
# PYTHONHASHSEED.
ENUMERATE_SHA256 = {
    ("is", "--n", "4"): (
        "2b6f0dddcbcd8106e64521b1b9cc0024a6008fc4839ff530d4dd5e56f2893c14",
        "8e99fe615d02210270d5b4e56ef667b456d8ccf2ab31af4c262a1efc84d6a483",
    ),
    ("istar", "--k", "4"): (
        "6383e975d02677a6005f7acca36a8b8d343d0a2fde4fda0759a2abd9dd8e29ec",
        "6f633113f84902a2e92daa1ebd1aac9aa67882df4ffd61dc5db61ada8d2e6656",
    ),
    ("pistar", "--k", "4"): (
        "563d2805adb05a1dce4a9881faf5497f34afbb71be145f42671a2c60c5340ebd",
        "579aa4a80647ca6e45bc328ddbef310406a0204ffaa0c0666fb034f450414239",
    ),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(ENUMERATE_SHA256), ids=lambda c: c[0] + c[2])
def test_enumerate_is_golden(case, fmt, capsys):
    semigroup, flag, size = case
    code, out, err = run_cli(
        capsys, "enumerate", "--semigroup", semigroup, flag, size, "--format", fmt
    )
    assert code == 0
    assert err == ""
    digest = ENUMERATE_SHA256[case][fmt == "json"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_import_leaves_fractions_unloaded():
    """Every action is a stream of 0/1 entries, so neither the package
    nor its command line needs Fraction arithmetic."""
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, rookdual, rookdual.cli; print('fractions' in sys.modules)",
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "enumerate", "--semigroup", "is", "--n", "2",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["count"] == 7


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--semigroup", "is"),  # missing --n
        ("multiply", "--semigroup", "istar", "--k", "2", "{1,5}", "{1,1',2'}"),
        ("act", "--space", "V", "--n", "2", "--k", "2", "--variant", "tilde", "{1,1'}|{2,2'}"),
        ("commutant", "--n", "1", "--k", "1", "--space", "V", "--side", "right-pistar"),
        ("commutant", "--n", "1", "--k", "1", "--space", "U", "--side", "right-istar"),
        # the right generating sets trip the enumeration guards
        ("commutant", "--space", "U", "--n", "1", "--k", "5", "--side", "right-pistar"),
        ("commutant", "--space", "V", "--n", "1", "--k", "6", "--side", "right-istar"),
        ("enumerate", "--semigroup", "is", "--n", "9"),  # guard trips
        ("act", "--space", "V", "--n", "9", "--k", "9", "{1,1'}"),
        ("enumerate", "--semigroup", "is", "--n", "0"),
        ("enumerate", "--semigroup", "pistar", "--k", "0"),
        ("multiply", "--semigroup", "pistar", "--k", "0", "{}", "{}"),
        ("act", "--space", "V", "--n", "0", "--k", "1", "{1,1'}"),
        ("commutant", "--n", "1", "--k", "0", "--space", "V", "--side", "left-is"),
        ("verify", "--props", "--n", "0"),
        ("verify", "--props", "--k", "0"),
        # dimensions of more decimal digits than Python prints: 2^20000
        ("commutant", "--space", "V", "--n", "2", "--k", "20000", "--side", "left-is"),
        ("act", "--space", "V", "--n", "2", "--k", "20000", "--rook", "[1,2]"),
        # commutant guard: 260,102 live unknowns
        ("commutant", "--n", "2", "--k", "9", "--space", "V", "--side", "left-is"),
        # a bound that selects no cell would check nothing
        ("verify", "--thm1", "--max-n", "0"),
        ("verify", "--thm2", "--max-k", "-3"),
        # flags the chosen mode would otherwise ignore
        ("act", "--space", "V", "--n", "1", "--k", "1", "--rook", "--variant", "tilde", "[1]"),
        ("verify", "--thm2", "--n", "3", "--k", "1"),
        ("verify", "--props", "--max-n", "1"),
        ("verify", "--props", "--max-k", "1"),
        # Unicode digits that int() refuses
        ("multiply", "--semigroup", "is", "--n", "1", "[\u00b2]", "[1]"),
        ("multiply", "--semigroup", "istar", "--k", "1", "{\u00b9,1'}", "{1,1'}"),
        # an --out path that cannot be written
        ("enumerate", "--semigroup", "is", "--n", "1", "--out", "/nonexistent/dir/x.txt"),
        # the hat action on V takes only a dual element
        ("act", "--space", "V", "--n", "2", "--k", "2", "--variant", "hat", "{1,1'}|{2}|{2'}"),
        ("act", "--space", "V", "--n", "2", "--k", "2", "--variant", "hat", "{1,1'}"),
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err != ""


def test_library_errors_are_not_usage_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("library bug")

    is_generators = rookdual.semigroups._MONOIDS["is"][1]
    monkeypatch.setitem(rookdual.semigroups._MONOIDS, "is", (broken, is_generators))
    rookdual.semigroups._family.cache_clear()  # else a cached IS_2 hides the bug
    with pytest.raises(ValueError, match="library bug"):
        main(["enumerate", "--semigroup", "is", "--n", "2"])


def test_commutant_reads_only_the_generators(capsys, monkeypatch):
    """A commutant is solved on a generating set alone: it enumerates no
    monoid, so IS_7 passes on the left although ``enumerate_is`` refuses
    n = 7, and a lowered limit trips the generating set's own guard."""

    def refused(*args):
        raise AssertionError("a commutant enumerated its monoid")

    for name, (_, generators) in list(rookdual.semigroups._MONOIDS.items()):
        monkeypatch.setitem(rookdual.semigroups._MONOIDS, name, (refused, generators))
    argv = ("commutant", "--space", "V", "--n", "7", "--k", "2", "--side", "left-is")
    assert run_cli(capsys, *argv) == (0, "dimension=3\n", "")
    monkeypatch.setattr(rookdual.diagrams, "ENUM_LIMIT_DUAL", 1)
    argv = ("commutant", "--space", "V", "--n", "2", "--k", "2", "--side", "right-istar")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "istar_generators guard: k=2 exceeds 1" in err


@pytest.mark.parametrize("side,dimension", [("left-is", 339), ("right-istar", 1425)])
def test_commutant_past_the_flat_guard(side, dimension, capsys):
    """V(5,4) has d = 625, so 390,625 unknowns, but only 17,805 live ones
    on the left and 38,825 on the right, under the commutant guard."""
    code, out, _ = run_cli(
        capsys, "commutant", "--space", "V", "--n", "5", "--k", "4", "--side", side
    )
    assert code == 0
    assert out == f"dimension={dimension}\n"


def test_verify_props_honours_unguarded(capsys, monkeypatch):
    """With the P*_k enumeration guard lowered below k = 2, ``verify
    --props`` refuses, and lists the elements under --unsafe-no-guards."""
    monkeypatch.setattr(rookdual.diagrams, "ENUM_LIMIT_PARTIAL_DUAL", 1)
    argv = ("verify", "--props", "--n", "1", "--k", "2")
    assert run_cli(capsys, *argv)[0] == 2
    assert run_cli(capsys, *argv, "--unsafe-no-guards")[0] == 0


def test_guard_override(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--semigroup", "pistar", "--k", "5",
        "--unsafe-no-guards", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["count"] == 48032
