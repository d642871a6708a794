import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tensorspectra import (
    DualExponents,
    SchattenParams,
    all_mode_spectra,
    inner,
    make_odeco,
    mixed_norm,
    nuclear_norm,
    random_odeco,
    schatten_norm,
    to_dense,
)
from tensorspectra.cli import run
from tensorspectra.serialize import dump_tensor, load_dense, load_tensor


def invoke(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run(argv)
    text = buffer.getvalue()
    return code, json.loads(text) if text.strip() else None


@pytest.fixture
def diag21(tmp_path):
    x = np.zeros((2, 2, 2))
    x[0, 0, 0], x[1, 1, 1] = 2.0, 1.0
    path = tmp_path / "diag21.json"
    dump_tensor(x, path)
    return path, x


def test_norm_command(diag21):
    path, x = diag21
    code, payload = invoke(
        ["norm", "--p", "2", "--q", "2", "--lambda", "1", "--in", str(path)]
    )
    assert code == 0
    assert payload["value"] == schatten_norm(x, SchattenParams(2, 2, 1))
    assert payload["value"] == pytest.approx(np.sqrt(15.0), abs=1e-12)


def test_norm_lambda_auto_is_nuclear(diag21):
    path, x = diag21
    code, payload = invoke(["norm", "--in", str(path)])
    assert code == 0
    assert payload["lambda"] == pytest.approx(1.0 / 3.0)
    assert payload["value"] == nuclear_norm(x)


def test_spectrum_and_hosvd(diag21):
    path, _ = diag21
    code, payload = invoke(["spectrum", "--in", str(path)])
    assert code == 0
    for s in payload["per_mode"]:
        assert s == pytest.approx([2.0, 1.0], abs=1e-12)
    for s in payload["combined"]:
        assert s == pytest.approx([2.0 / np.sqrt(3), 1.0 / np.sqrt(3)], abs=1e-12)

    code, payload = invoke(["hosvd", "--in", str(path)])
    assert code == 0
    assert payload["core"]["shape"] == [2, 2, 2]
    assert len(payload["factors"]) == 3


def test_vn_check_self(diag21):
    path, _ = diag21
    code, payload = invoke(
        ["vn-check", "--x", str(path), "--y", str(path), "--tol", "1e-10"]
    )
    assert code == 0
    assert payload["equality"] is True
    assert payload["per_mode_gap"] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_vn_check_frames_runs_one_structure_pass(tmp_path, monkeypatch):
    from tensorspectra import cli, hosvd, vonneumann
    from tensorspectra.serialize import dumps_tensor

    x = np.random.default_rng(8).standard_normal((3, 3, 3))
    x_path, y_path, frames_path = (tmp_path / n for n in ("x.json", "y.json", "f.json"))
    dump_tensor(x, x_path)
    dump_tensor(2.0 * x, y_path)
    frames_path.write_text(
        "[" + ",".join(dumps_tensor(u) for u in hosvd(x).factors) + "]", encoding="utf-8"
    )
    calls = {"find_block_partition": 0, "vn_report": 0}

    def counting(name):
        original = getattr(vonneumann, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        counted = counting(name)
        for module in (vonneumann, cli):
            monkeypatch.setattr(module, name, counted, raising=False)
    code, payload = invoke(
        ["vn-check", "--x", str(x_path), "--y", str(y_path), "--frames", str(frames_path)]
    )
    assert code == 0
    assert calls == {"find_block_partition": 1, "vn_report": 1}
    structure = payload["structure"]
    assert structure["verified"] is structure["proportional"] is True
    assert structure["constants"] == pytest.approx([2.0])


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("gaussian", "60f71fd4b67945d443147683b0240f38a4303b5f357de88f3c33e4e8468fa5e5"),
        ("odeco", "70c33def80a4b680d193d92376bddf5700132effa334b2011ad77b67f5b125b6"),
    ],
)
def test_vn_check_frames_stdout_is_pinned(tmp_path, kind, digest):
    # x from gen at 6^3 (one dense block, or six diagonal ones), y = 2x and
    # the frames of x's HOSVD
    x_path, y_path, frames_path = (tmp_path / n for n in ("x.json", "y.json", "f.json"))
    assert invoke(["gen", "--kind", kind, "--shape", "6x6x6", "--out", str(x_path)])[0] == 0
    dump_tensor(2.0 * load_dense(x_path), y_path)
    _, decomposition = invoke(["hosvd", "--in", str(x_path)])
    frames_path.write_text(json.dumps(decomposition["factors"]), encoding="utf-8")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run(
            ["vn-check", "--x", str(x_path), "--y", str(y_path), "--frames", str(frames_path)]
        )
    assert code == 0
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("gaussian", "2c9362bc783ac99b93652a597fc8df7fc60deab7fc9caf4b9a0be5ac34c594ef"),
        ("odeco", "d2dd0d9b169e1b51f3e50bc76979c760eb1d07c32b4c165b09b52ba3ade13306"),
    ],
)
def test_check_subgrad_stdout_is_pinned(tmp_path, kind, digest):
    # x from gen at 6^3 and, at (p, q, λ) = (3, 2, 1), y its canonical
    # subgradient (odeco, accepted with gaps at rounding level) or a second
    # Gaussian tensor (rejected)
    x_path, y_path = tmp_path / "x.json", tmp_path / "y.json"
    norm = ["--p", "3", "--q", "2", "--lambda", "1"]
    assert invoke(["gen", "--kind", kind, "--shape", "6x6x6", "--out", str(x_path)])[0] == 0
    if kind == "odeco":
        made = invoke(["subgrad", *norm, "--in", str(x_path), "--out", str(y_path)])
    else:
        made = invoke(
            ["gen", "--kind", kind, "--shape", "6x6x6", "--seed", "1", "--out", str(y_path)]
        )
    assert made[0] == 0
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run(["check-subgrad", *norm, "--x", str(x_path), "--y", str(y_path)])
    assert code == 0
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == digest


def test_subgrad_pipeline(tmp_path):
    rep_path = tmp_path / "odeco.json"
    code, _ = invoke(
        [
            "gen",
            "--kind",
            "odeco",
            "--shape",
            "3x3x3",
            "--rank",
            "2",
            "--seed",
            "3",
            "--out",
            str(rep_path),
        ]
    )
    assert code == 0
    g_path = tmp_path / "g.json"
    code, payload = invoke(
        [
            "subgrad",
            "--p",
            "1",
            "--q",
            "1",
            "--lambda",
            "auto",
            "--in",
            str(rep_path),
            "--out",
            str(g_path),
        ]
    )
    assert code == 0 and payload["path"] == str(g_path)
    code, payload = invoke(
        [
            "check-subgrad",
            "--x",
            str(rep_path),
            "--y",
            str(g_path),
            "--p",
            "1",
            "--q",
            "1",
            "--lambda",
            "auto",
        ]
    )
    assert code == 0
    assert payload["accepted"] is True
    # the CLI pipeline agrees with the in-process values
    x = load_dense(rep_path)
    g = load_tensor(g_path)
    assert payload["pairing_residual"] == pytest.approx(
        abs(float(np.sum(x * g)) - nuclear_norm(x)), abs=1e-14
    )


def test_gen_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code, _ = invoke(
            ["gen", "--kind", "symmetric", "--shape", "3x3x3", "--seed", "9", "--out", str(out)]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_kind_validation(tmp_path):
    code, payload = invoke(
        ["gen", "--kind", "symmetric", "--shape", "2x3", "--out", str(tmp_path / "x.json")]
    )
    assert code == 1 and "cubic" in payload["error"]
    code, payload = invoke(
        ["gen", "--kind", "odeco", "--shape", "2x2", "--rank", "5", "--out", str(tmp_path / "y.json")]
    )
    assert code == 1 and "rank" in payload["error"]


def dual_ratio(x, params):
    duals = DualExponents.of(params)
    return mixed_norm(all_mode_spectra(x), duals.p_star, duals.q_star) / (
        params.lam * x.ndim
    )


def _conjugate_inputs(tmp_path):
    """The four conjugate-check inputs, with their verdicts and evaluations."""
    rep_path = tmp_path / "odeco.json"
    invoke(
        ["gen", "--kind", "odeco", "--shape", "3x3x3", "--rank", "2", "--seed", "4", "--out", str(rep_path)]
    )
    gauss_path = tmp_path / "gaussian.json"
    invoke(["gen", "--kind", "gaussian", "--shape", "3x4x5", "--seed", "1", "--out", str(gauss_path)])
    near_params = SchattenParams(3, 2, 1)
    gauss = load_dense(gauss_path)
    near_path = tmp_path / "near.json"
    dump_tensor(gauss * (1.2 / dual_ratio(gauss, near_params)), near_path)
    # weights (1, 1, 1) at ratio 1.1: outside the dual ball, and the HOSVD
    # frames of a flat spectrum miss the odeco frames, so only y = x certifies it
    nuclear = SchattenParams(1, 1, 1 / 3)
    frames = random_odeco((3, 3, 3), 3, 7).factors
    tied = to_dense(make_odeco([1.0, 1.0, 1.0], frames, (3, 3, 3)))
    tied_path = tmp_path / "tied.json"
    dump_tensor(tied * (1.1 / dual_ratio(tied, nuclear)), tied_path)
    # (path, flags, params, inside, evaluations): inside the dual ball
    # (proven by the ratio), outside (proven by the aligned certificate), and
    # a Gaussian point at ratio 1.2 and the tied point, which the ratio does
    # not decide and y = x proves outside
    return [
        (rep_path, ["--p", "1", "--q", "1", "--lambda", "auto"], nuclear, True, 1),
        (rep_path, ["--p", "3", "--q", "2", "--lambda", "0.2"], SchattenParams(3, 2, 0.2), False, 2),
        (near_path, ["--p", "3", "--q", "2", "--lambda", "1"], near_params, False, 3),
        (tied_path, ["--p", "1", "--q", "1", "--lambda", "auto"], nuclear, False, 3),
    ]


def test_conjugate_check(tmp_path):
    for path, flags, params, inside, evaluations in _conjugate_inputs(tmp_path):
        x = load_dense(path)
        code, payload = invoke(
            ["conjugate-check", *flags, "--in", str(path), "--budget", "2000", "--seed", "0"]
        )
        assert code == 0
        assert payload["evaluations"] == evaluations
        assert ("certificate" in payload) == (payload["best_value"] > 0)
        ratio = dual_ratio(x, params)
        assert payload["spectral_dual_ratio"] == ratio
        assert payload["inside_dual_ball"] is inside
        assert (ratio <= 1.0) == (inside is True)
        assert ("certificate" in payload) == (inside is False)
        if inside is False:
            y = np.array(payload["certificate"]["data"]).reshape(x.shape)
            attained = inner(x, y) - schatten_norm(y, params)
            assert attained == pytest.approx(payload["best_value"], rel=1e-9)


@pytest.mark.parametrize(
    "case, digest",
    enumerate(
        [
            "8da25a073ddcb33452b65e099cd1a613730110beaa6735a7c33f7a73bbad5a46",
            "9b0e2de9653465aa6650a26363b2006c3fcb0371b1c83578014a8a2f60a41d93",
            "571ec9b93a44c971576d8c86ffbf9a72c3479de3a5bb656c59f9dfac78d51f47",
            "4ce6db4eb8f18fefb5dd4a3030d4d55be43bb77856794aa6e0c54e14302601d3",
        ]
    ),
    ids=["inside", "outside", "near", "tied"],
)
def test_conjugate_check_stdout_is_pinned(tmp_path, case, digest):
    # the four inputs of test_conjugate_check: inside, and three outside
    # with their certificates
    path, flags, _, _, _ = _conjugate_inputs(tmp_path)[case]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run(
            ["conjugate-check", *flags, "--in", str(path), "--budget", "2000", "--seed", "0"]
        )
    assert code == 0
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("gaussian", "9793906abb14a50c51a6aa4c7f98903c5310a4c3157dfa86c60a6cfef97a1219"),
        ("odeco", "3009ac90760f964a1444c694818f292863b2f4e3c8028113ea34dfab41a47768"),
    ],
)
def test_spectrum_stdout_is_pinned(tmp_path, kind, digest):
    # per-mode and combined spectra of a 3x4x5 tensor from gen
    x_path = tmp_path / "x.json"
    assert invoke(["gen", "--kind", kind, "--shape", "3x4x5", "--out", str(x_path)])[0] == 0
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run(["spectrum", "--in", str(x_path)])
    assert code == 0
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == digest


def test_usage_errors_exit_two():
    with contextlib.redirect_stderr(io.StringIO()):
        code, _ = invoke(["no-such-command"])
        assert code == 2
        code, _ = invoke(["norm"])  # missing --in
        assert code == 2


def test_domain_errors_exit_one(tmp_path):
    missing = tmp_path / "missing.json"
    code, payload = invoke(["norm", "--in", str(missing)])
    assert code == 1 and "error" in payload
    bad = tmp_path / "bad.json"
    bad.write_text('{"shape": [2, 2], "data": [1, 2, 3]}')
    code, payload = invoke(["norm", "--in", str(bad)])
    assert code == 1 and "data" in payload["error"]


def test_verify_subset(tmp_path):
    code, payload = invoke(["verify", "--seed", "0", "--suite", "adjointness"])
    assert code == 0
    assert payload["ok"] is True
    assert payload["suites"][0]["name"] == "adjointness"
    assert payload["suites"][0]["failed"] == 0
    code, payload = invoke(["verify", "--suite", "nonsense"])
    assert code == 1 and "suite" in payload["error"]


def test_verify_checks_every_suite_name_before_running_one(monkeypatch):
    from tensorspectra import verify

    ran = []
    monkeypatch.setitem(verify.SUITES, "subgradients", ran.append)
    with pytest.raises(ValueError, match="^suite: unknown name 'bogus'$"):
        verify.run_all(0, ["subgradients", "bogus"])
    assert ran == []
    code, payload = invoke(["verify", "--suite", "subgradients", "--suite", "bogus"])
    assert code == 1 and payload == {"error": "suite: unknown name 'bogus'"}
    assert ran == []


def test_module_entry_point(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-m", "tensorspectra", "gen", "--kind", "gaussian", "--shape", "2x2"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    payload = json.loads(out.stdout)
    assert payload["shape"] == [2, 2]
    assert len(payload["data"]) == 4


def test_a_closed_pipe_ends_the_command_quietly():
    # the reader takes one byte of a ~0.5 MB document and closes the pipe, so
    # the write blocks and then fails: no traceback, a nonzero exit
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["gen", "--kind", "gaussian", "--shape", "30x30x30"]
    with subprocess.Popen(
        [sys.executable, "-m", "tensorspectra", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert stderr == b""
    assert code != 0


def _outputs(sequence, tmp_path):
    # exit code and stdout of each command, run one after another
    results = []
    for argv in sequence:
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        results.append((code, buffer.getvalue()))
    return results


@pytest.mark.parametrize(
    "sequence",
    [
        [
            ["gen", "--kind", "odeco", "--shape", "3x3x3", "--rank", "2"],
            ["gen", "--kind", "odeco", "--shape", "3x3x3"],
        ],
        [
            ["verify", "--suite", "adjointness"],
            ["verify", "--suite", "cli_roundtrip"],
        ],
        [
            ["gen", "--kind", "gaussian", "--shape", "2x2", "--out", "@x.json"],
            ["norm", "--p", "0.5"],
            ["norm", "--in", "@x.json"],
        ],
    ],
    ids=["rank-default", "suite-append", "after-usage-error"],
)
def test_one_parser_serves_a_sequence_of_commands(sequence, tmp_path, monkeypatch):
    from tensorspectra import cli

    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    shared = _outputs(sequence, tmp_path)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = _outputs(sequence, tmp_path)
    assert shared == fresh
    # each command prints its own document, so a leaked option would show
    assert len({out for _, out in shared}) == len(sequence)
    if sequence[0][0] == "verify":
        suites = [json.loads(out)["suites"] for _, out in shared]
        assert [[s["name"] for s in found] for found in suites] == [["adjointness"], ["cli_roundtrip"]]
    if sequence[1][0] == "norm":
        assert [code for code, _ in shared] == [0, 2, 0]


def _tol_inputs(tmp_path):
    # an odeco 3^3 point, its canonical subgradient at (3, 2, 1), twice that
    # subgradient and a Gaussian tensor
    paths = {name: tmp_path / f"{name}.json" for name in ("x", "g", "g2", "gauss")}
    norm = ["--p", "3", "--q", "2", "--lambda", "1"]
    gen = ["gen", "--shape", "3x3x3"]
    assert invoke([*gen, "--kind", "odeco", "--seed", "1", "--out", str(paths["x"])])[0] == 0
    assert invoke([*gen, "--kind", "gaussian", "--seed", "5", "--out", str(paths["gauss"])])[0] == 0
    assert invoke(["subgrad", *norm, "--in", str(paths["x"]), "--out", str(paths["g"])])[0] == 0
    dump_tensor(2.0 * load_dense(paths["g"]), paths["g2"])
    return norm, {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("tol", ["inf", "nan", "-inf", "-1e-8"])
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_an_error(tmp_path, tol):
    # --tol inf accepted 2g and the Gaussian tensor and made every pair an
    # equality; --tol nan rejected the canonical subgradient
    norm, paths = _tol_inputs(tmp_path)
    commands = [["check-subgrad", *norm, "--y", paths[y]] for y in ("g", "g2", "gauss")]
    commands += [["vn-check", "--y", paths[y]] for y in ("x", "gauss")]
    for command in commands:
        code, payload = invoke([*command, "--x", paths["x"], f"--tol={tol}"])
        assert code == 1, command
        assert payload["error"].startswith("tol: tolerance must be a finite real >= 0")


def test_proportional_blocks_without_equality_print_unverified(tmp_path):
    # identity frames and diagonal cores (2, 1, 0.5) and (1, 2, 0.5): the
    # blocks are proportional, every mode has a gap of 1, and the command
    # used to exit 1 with an "inconsistent" error
    from tensorspectra.serialize import dumps_tensor

    x, y = np.zeros((3, 3, 3)), np.zeros((3, 3, 3))
    for i, (a, b) in enumerate([(2.0, 1.0), (1.0, 2.0), (0.5, 0.5)]):
        x[i, i, i], y[i, i, i] = a, b
    x_path, y_path, frames_path = (tmp_path / n for n in ("x.json", "y.json", "f.json"))
    dump_tensor(x, x_path)
    dump_tensor(y, y_path)
    frames_path.write_text("[" + ",".join([dumps_tensor(np.eye(3))] * 3) + "]", encoding="utf-8")
    code, payload = invoke(
        ["vn-check", "--x", str(x_path), "--y", str(y_path), "--frames", str(frames_path)]
    )
    assert code == 0
    assert payload["equality"] is False
    assert payload["per_mode_gap"] == pytest.approx([1.0, 1.0, 1.0])
    structure = payload["structure"]
    assert structure["verified"] is structure["proportional"] is False
    assert structure["constants"] == pytest.approx([0.5, 2.0, 1.0])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--kind", "gaussian", "--shape", "3xa"], "shape: could not parse '3xa'"),
        (["gen", "--kind", "gaussian", "--shape", "3"], "shape: need at least 2 positive mode sizes"),
        (
            ["gen", "--kind", "symmetric-odeco", "--shape", "3x4"],
            "shape: symmetric kinds need a cubic shape",
        ),
        (["norm", "--lambda", "abc"], "lambda: expected a number or 'auto', got 'abc'"),
    ],
    ids=["unparsable shape", "one mode", "non-cubic symmetric odeco", "lambda"],
)
def test_each_rejected_flag_prints_its_error(tmp_path, argv, message):
    x_path = tmp_path / "x.json"
    dump_tensor(np.ones((2, 2)), x_path)
    if argv[0] == "norm":
        argv = [*argv, "--in", str(x_path)]
    code, payload = invoke(argv)
    assert code == 1
    assert payload == {"error": message}


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "gaussian", "--shape", "3x3x3", "--seed", "-2"],
        ["gen", "--kind", "odeco", "--shape", "3x3x3", "--seed", "-2"],
        ["gen", "--kind", "symmetric-odeco", "--shape", "3x3x3", "--seed", "-2"],
        ["verify", "--suite", "adjointness", "--seed", "-2"],
    ],
    ids=["gaussian", "odeco", "symmetric-odeco", "verify"],
)
def test_a_negative_seed_names_its_field(argv):
    # numpy's own error, "expected non-negative integer", named no field
    code, payload = invoke(argv)
    assert code == 1
    assert payload == {"error": "seed: expected a non-negative integer, got -2"}
