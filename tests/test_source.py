"""Checks over the package's own source."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Names that src/ keeps only because perfbench calls them; ROADMAP item 1
# deletes them with those calls. No module may use one: the batch path stays
# independent of the per-window reference (make_window, build_evidence,
# write_trace, tier_gates), and no protocol step rotates a device, which
# stores no epoch (rotate_id).
PERFBENCH_ONLY = frozenset({"make_window", "build_evidence", "write_trace", "tier_gates", "rotate_id"})


def uses(source: str) -> list[tuple[int, str]]:
    """Each (line, name) at which ``source`` reads one of ``PERFBENCH_ONLY``,
    as a bare name or an attribute, to call it or to pass it on; importing
    or defining one is not a use."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            continue
        if name in PERFBENCH_ONLY:
            found.append((node.lineno, name))
    return sorted(found)


def test_the_check_sees_calls_and_references():
    source = (
        "from sensetrace.core import make_window, write_trace\n"
        "def rotate_id(device, now):\n"
        "    return device\n"
        "make_window(trace, pair, 0.0, 1.0)\n"
        "sensetrace.evaluation.tier_gates(tier)\n"
        "steps = [build_evidence]\n"
    )
    assert uses(source) == [(4, "make_window"), (5, "tier_gates"), (6, "build_evidence")]


def test_no_module_uses_a_name_kept_for_perfbench():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in modules
        for line, name in uses(path.read_text(encoding="utf-8"))
    ]
    assert found == []
