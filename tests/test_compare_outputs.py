"""scripts/compare_outputs.py on hand-made cli_outputs lines."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def _line(stdout: str, argv=("critical-cost", "--method", "kde"), code=0, workload="sweep_large") -> str:
    return json.dumps({"seed": 3, "workload": workload, "argv": list(argv), "code": code,
                       "stdout": stdout, "stderr": ""})


def _run(tmp_path, base: list[str], new: list[str], capsys) -> tuple[int, str]:
    paths = []
    for name, lines in (("base.jsonl", base), ("new.jsonl", new)):
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        paths.append(str(path))
    code = compare_outputs.main(paths)
    return code, capsys.readouterr().out


def test_identical_and_rounding_moves_pass(tmp_path, capsys):
    fit = _line("bandwidth: 1.5\n", argv=("fit", "--method", "parametric"), workload="fit")
    base = [fit, _line("q,critical_cost\n297.0,12.5\n300.0,0.0\n")]
    new = [fit, _line("q,critical_cost\n297.0,12.500000000001\n300.0,5e-12\n")]
    code, out = _run(tmp_path, base, new, capsys)
    assert code == 0 and "FAIL" not in out
    rows = {tuple(row.split()[:3]): row.split()[3:] for row in out.splitlines()[1:]}
    assert rows["fit", "fit", "--method"] == ["parametric", "1", "0", "0.00e+00", "0.00e+00"]
    moved = rows["sweep_large", "critical-cost", "--method"]
    assert moved[:3] == ["kde", "1", "1"]
    assert float(moved[3]) == 5e-12 and 0.0 < float(moved[4]) < 1e-13


def test_text_code_count_and_large_moves_fail(tmp_path, capsys):
    base = _line("critical_cost: 12.5\n")
    for new in (
        _line("critical_cost: 12.5001\n"),  # beyond 1e-10 relative
        _line("critical_cost: 12.5\n", code=1),
        _line("critical_cost 12.5\n"),  # text around the number moved
        _line("critical_cost: nan\n"),
    ):
        code, out = _run(tmp_path, [base], [new], capsys)
        assert code == 1 and "FAIL line 1: critical-cost --method kde" in out, new
    code, out = _run(tmp_path, [base, base], [base], capsys)
    assert code == 1 and "FAIL 2 base lines against 1 new lines" in out
