"""The scripts under scripts/, run in-process through their main() at a
tiny size."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equivalence_scan(capsys):
    assert load_script("equivalence_scan").main(["--count", "3", "--n-max", "3"]) == 0
    assert "3 ok, 0 failed" in capsys.readouterr().out


def test_convergence_study_writes_every_csv(tmp_path, capsys):
    assert load_script("convergence_study").main(["--steps", "3", "--out-dir", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(f"scheme_{s}_m{m}.csv" for s in "ab" for m in range(5))
    for name in names:
        assert len((tmp_path / name).read_text().splitlines()) == 4


@pytest.mark.parametrize("argv", [["--z0", "1"], ["--h0", "x"], ["--steps", "1"], ["--spec", "{tmp}/missing.json"]])
def test_convergence_study_bad_input_exits_2(argv, tmp_path, capsys):
    argv = [a.format(tmp=tmp_path) for a in argv]
    code = load_script("convergence_study").main([*argv, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
