"""Framework mechanics: suppression, registry, findings."""

import pytest

from repro.analysis.findings import Finding
from repro.analysis.framework import (
    ALL_RULES,
    AnalysisError,
    all_rules,
    get_rule,
    parse_suppressions,
    rule_names,
)


def _finding(rule="memmap-copy", line=3):
    return Finding(
        path="src/repro/store/x.py", line=line, col=0, rule=rule, message="m"
    )


class TestSuppressions:
    def test_bare_noqa_suppresses_every_rule(self):
        sup = parse_suppressions("x = 1\ny = 2  # repro: noqa\n")
        assert sup.by_line == {2: frozenset({ALL_RULES})}
        assert sup.suppresses(_finding(line=2))
        assert not sup.suppresses(_finding(line=1))

    def test_rule_list_suppresses_only_those_rules(self):
        sup = parse_suppressions(
            "a = 1\nb = 2\nc = 3  # repro: noqa[memmap-copy, span-leak]\n"
        )
        assert sup.suppresses(_finding("memmap-copy", line=3))
        assert sup.suppresses(_finding("span-leak", line=3))
        assert not sup.suppresses(_finding("dtype-promotion", line=3))

    def test_trailing_explanation_is_allowed(self):
        sup = parse_suppressions(
            "x = f()  # repro: noqa[memmap-copy] bounded by n_hot\n"
        )
        assert sup.suppresses(_finding("memmap-copy", line=1))

    def test_whole_file_marker(self):
        sup = parse_suppressions(
            '"""doc"""\n# repro: noqa-file[dtype-promotion]\nx = 1\n'
        )
        assert sup.suppresses(_finding("dtype-promotion", line=99))
        assert not sup.suppresses(_finding("memmap-copy", line=99))

    def test_plain_flake8_noqa_is_ignored(self):
        sup = parse_suppressions("import os  # noqa: F401\n")
        assert not sup.by_line and not sup.whole_file


class TestRegistry:
    def test_expected_rules_are_registered(self):
        assert set(rule_names()) == {
            "blocking-under-lock",
            "dtype-promotion",
            "error-context",
            "hot-alloc",
            "lock-contract",
            "lock-discipline",
            "lock-order",
            "memmap-copy",
            "metric-name",
            "no-nondeterminism",
            "slow-unique",
            "span-leak",
            "thread-escape",
        }

    def test_rules_carry_metadata(self):
        for rule in all_rules():
            assert rule.description
            assert rule.invariant
            assert rule.default_scopes

    def test_unknown_rule_raises(self):
        with pytest.raises(AnalysisError, match="unknown lint rule"):
            get_rule("no-such-rule")


class TestFinding:
    def test_render_is_editor_clickable(self):
        f = Finding(
            path="src/repro/a.py", line=7, col=4, rule="span-leak", message="m"
        )
        assert f.render() == "src/repro/a.py:7:4: span-leak: m"

    def test_sorts_by_location(self):
        a = Finding(path="a.py", line=2, col=0, rule="r", message="m")
        b = Finding(path="a.py", line=10, col=0, rule="r", message="m")
        c = Finding(path="b.py", line=1, col=0, rule="r", message="m")
        assert sorted([c, b, a]) == [a, b, c]

    def test_roundtrips_through_dict(self):
        f = _finding()
        assert Finding.from_dict(f.to_dict()) == f
