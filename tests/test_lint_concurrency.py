"""Tests for the concurrency-contract rules (REP101..REP106).

Same single-walk engine as the determinism family; each rule gets a
firing and a non-firing fixture through ``check_source``, plus the
category plumbing and the ``--select``/``--ignore``/``--explain`` CLI.
"""

import io
import json
import textwrap
from dataclasses import replace

from repro.lint import LintConfig, check_source, run_lint
from repro.lint.findings import rule_category
from repro.lint.rules import CONCURRENCY_RULES, DETERMINISM_RULES, RULES


def lint(source: str, *, path: str = "mod.py",
         config: LintConfig | None = None):
    return check_source(textwrap.dedent(source), path=path, config=config)


def codes(findings) -> list[str]:
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# REP101 — guarded attribute accessed without its lock
# ---------------------------------------------------------------------------

REP101_CLASS = """
    from repro.sim.sync import WatchedLock, guarded_by

    class Box:
        value = guarded_by("_lock")

        def __init__(self):
            self._lock = WatchedLock("box")
            self.value = 0
    %s
"""


def test_rep101_flags_unlocked_access():
    findings = lint(REP101_CLASS % """
        def bump(self):
            self.value += 1
    """)
    assert codes(findings) == ["REP101"]
    assert "guarded_by('_lock')" in findings[0].message


def test_rep101_allows_with_lock_and_init():
    assert lint(REP101_CLASS % """
        def bump(self):
            with self._lock:
                self.value += 1
    """) == []


def test_rep101_honors_holds_escape():
    assert lint(REP101_CLASS % """
        def _bump(self):  # lint: holds(_lock)
            self.value += 1
    """) == []


def test_rep101_escape_scans_multiline_signatures():
    assert lint(REP101_CLASS % """
        def _bump(self,  # lint: holds(_lock)
                  amount):
            self.value += amount
    """) == []


def test_rep101_nested_function_does_not_inherit_lock():
    findings = lint(REP101_CLASS % """
        def bump(self):
            with self._lock:
                def later():
                    self.value += 1
                return later
    """)
    assert codes(findings) == ["REP101"]


def test_rep101_other_attrs_and_other_classes_ignored():
    assert lint(REP101_CLASS % """
        def fine(self):
            self.other = 1
    """) == []
    assert lint("""
        class Unrelated:
            def bump(self):
                self.value += 1
    """) == []


# ---------------------------------------------------------------------------
# REP102 — blocking call while holding a lock
# ---------------------------------------------------------------------------

REP102_CLASS = """
    import time
    from repro.sim.sync import WatchedLock

    class Worker:
        def __init__(self):
            self._lock = WatchedLock("w")
    %s
"""


def test_rep102_flags_sleep_under_lock():
    findings = lint(REP102_CLASS % """
        def spin(self):
            with self._lock:
                time.sleep(0.1)
    """)
    assert codes(findings) == ["REP102"]
    assert "time.sleep" in findings[0].message


def test_rep102_flags_configured_method_names():
    findings = lint(REP102_CLASS % """
        def run(self, scenario):
            with self._lock:
                return scenario.evaluate(seed=1)
    """)
    assert codes(findings) == ["REP102"]


def test_rep102_quiet_outside_lock():
    assert lint(REP102_CLASS % """
        def spin(self):
            time.sleep(0.1)
            with self._lock:
                pass
    """) == []


def test_rep102_follows_a_helper_call_to_its_blocking_body():
    # The broker's shape: _submit holds the lock and calls _prefill,
    # whose store write then runs under it.  Reported at the caller.
    findings = lint(REP102_CLASS % """
        def _submit(self, fleet, slots):
            with self._lock:
                return sum(self._prefill(fleet, slot) for slot in slots)

        def _prefill(self, fleet, slot):
            record = slot.record
            fleet.store.write_record(record)
            return True
    """, config=replace(LintConfig(),
                        rep102_blocking_methods=("write_record",)))
    assert codes(findings) == ["REP102"]
    assert findings[0].code_line.startswith("return sum(self._prefill(")
    assert "'self._prefill()' runs '.write_record()'" in findings[0].message


def test_rep102_follows_helpers_one_level_only():
    assert lint(REP102_CLASS % """
        def spin(self):
            with self._lock:
                self._outer()
            self._prefill()

        def _outer(self):
            self._inner()

        def _inner(self):
            time.sleep(0.1)

        def _prefill(self):
            time.sleep(0.1)
    """) == []


def test_rep102_does_not_follow_a_holds_helper_twice():
    # A holds() helper's body is checked under the lock already: its
    # blocking call is reported there, not again at every caller.
    findings = lint(REP102_CLASS % """
        def spin(self):
            with self._lock:
                self._nap()

        def _nap(self):  # lint: holds(_lock)
            time.sleep(0.1)
    """)
    assert codes(findings) == ["REP102"]
    assert findings[0].code_line == "time.sleep(0.1)"


def test_rep102_prefix_match_on_blocking_modules():
    findings = lint("""
        import urllib.request
        from repro.sim.sync import WatchedLock

        class Fetcher:
            def __init__(self):
                self._lock = WatchedLock("f")

            def fetch(self, url):
                with self._lock:
                    return urllib.request.urlopen(url)
    """)
    assert codes(findings) == ["REP102"]


# ---------------------------------------------------------------------------
# REP103 — mutable class-level attribute on a shared class
# ---------------------------------------------------------------------------

REP103_CONFIG = replace(LintConfig(), rep103_classes=("Shared",))


def test_rep103_flags_mutable_class_attrs():
    findings = lint("""
        class Shared:
            registry = {}
            items: list = []
            pool = set()
    """, config=REP103_CONFIG)
    assert codes(findings) == ["REP103"] * 3


def test_rep103_flags_mutable_constructor_calls():
    findings = lint("""
        import collections

        class Shared:
            counts = collections.Counter()
    """, config=REP103_CONFIG)
    assert codes(findings) == ["REP103"]


def test_rep103_allows_immutables_and_guards():
    assert lint("""
        from repro.sim.sync import guarded_by

        class Shared:
            LIMIT = 16
            NAMES = ("a", "b")
            state = guarded_by("_lock")
    """, config=REP103_CONFIG) == []


def test_rep103_only_configured_classes():
    assert lint("""
        class Elsewhere:
            registry = {}
    """, config=REP103_CONFIG) == []


# ---------------------------------------------------------------------------
# REP104 — threading.Thread without explicit daemon=
# ---------------------------------------------------------------------------

def test_rep104_flags_implicit_daemon():
    findings = lint("""
        import threading

        worker = threading.Thread(target=print)
    """)
    assert codes(findings) == ["REP104"]


def test_rep104_allows_explicit_daemon_either_way():
    assert lint("""
        import threading

        a = threading.Thread(target=print, daemon=True)
        b = threading.Thread(target=print, daemon=False)
    """) == []


def test_rep104_resolves_from_import():
    findings = lint("""
        from threading import Thread

        worker = Thread(target=print)
    """)
    assert codes(findings) == ["REP104"]


# ---------------------------------------------------------------------------
# REP105 — nested acquisition of a different declared lock
# ---------------------------------------------------------------------------

REP105_CLASS = """
    from repro.sim.sync import WatchedLock

    class TwoLocks:
        def __init__(self):
            self._a = WatchedLock("a")
            self._b = WatchedLock("b")
    %s
"""


def test_rep105_flags_nested_different_locks():
    findings = lint(REP105_CLASS % """
        def both(self):
            with self._a:
                with self._b:
                    pass
    """)
    assert codes(findings) == ["REP105"]
    assert "_a->_b" in findings[0].message


def test_rep105_whitelisted_pair_is_fine():
    config = replace(LintConfig(), lock_order=("_a -> _b",))
    assert lint(REP105_CLASS % """
        def both(self):
            with self._a:
                with self._b:
                    pass
    """, config=config) == []


def test_rep105_whitelist_is_directional():
    config = replace(LintConfig(), lock_order=("_a->_b",))
    findings = lint(REP105_CLASS % """
        def both(self):
            with self._b:
                with self._a:
                    pass
    """, config=config)
    assert codes(findings) == ["REP105"]


def test_rep105_reentrant_and_sequential_are_fine():
    assert lint(REP105_CLASS % """
        def fine(self):
            with self._a:
                with self._a:
                    pass
            with self._b:
                pass
    """) == []


def test_rep105_sees_holds_escape_as_held():
    findings = lint(REP105_CLASS % """
        def helper(self):  # lint: holds(_a)
            with self._b:
                pass
    """)
    assert codes(findings) == ["REP105"]


# ---------------------------------------------------------------------------
# REP106 — shared-cache mutation from executor-boundary code
# ---------------------------------------------------------------------------

REP106_CONFIG = replace(
    LintConfig(),
    rep106_exec_paths=("worker.py",),
    rep106_shared_attrs=("cache",),
    rep106_mutators=("put",),
    rep106_threadsafe=("SafeCache",),
)

REP106_CLASS = """
    class Pool:
        def __init__(self, directory):
            self.cache = %s

        def on_done(self, key, record):
            self.cache.put(key, record)
"""


def test_rep106_flags_unsafe_cache_type():
    findings = lint(REP106_CLASS % "PlainCache(directory)",
                    path="worker.py", config=REP106_CONFIG)
    assert codes(findings) == ["REP106"]
    assert "PlainCache" in findings[0].message


def test_rep106_quiet_for_threadsafe_type():
    assert lint(REP106_CLASS % "SafeCache(directory)",
                path="worker.py", config=REP106_CONFIG) == []


def test_rep106_quiet_when_provenance_unknown():
    assert lint(REP106_CLASS % "directory",
                path="worker.py", config=REP106_CONFIG) == []


def test_rep106_path_scoped():
    assert lint(REP106_CLASS % "PlainCache(directory)",
                path="elsewhere.py", config=REP106_CONFIG) == []


# ---------------------------------------------------------------------------
# categories + single-walk integration
# ---------------------------------------------------------------------------

def test_rule_families_and_categories():
    assert len(DETERMINISM_RULES) == 6
    assert len(CONCURRENCY_RULES) == 6
    assert RULES == DETERMINISM_RULES + CONCURRENCY_RULES
    for rule in DETERMINISM_RULES:
        assert rule.category == "determinism"
    for rule in CONCURRENCY_RULES:
        assert rule.category == "concurrency"
    assert rule_category("REP001") == "determinism"
    assert rule_category("REP106") == "concurrency"


def test_finding_carries_category():
    findings = lint("""
        import random
        import threading

        x = random.random()
        t = threading.Thread(target=print)
    """)
    assert codes(findings) == ["REP001", "REP104"]
    assert [f.category for f in findings] == ["determinism", "concurrency"]
    assert findings[1].to_dict()["category"] == "concurrency"


def test_both_families_fire_in_one_walk():
    # one source, violations from both families, single check_source call
    findings = lint("""
        import random
        from repro.sim.sync import WatchedLock, guarded_by

        class Mixed:
            value = guarded_by("_lock")

            def __init__(self):
                self._lock = WatchedLock("m")
                self.value = 0

            def bad(self):
                self.value = random.random()
    """)
    assert sorted(codes(findings)) == ["REP001", "REP101"]


# ---------------------------------------------------------------------------
# CLI: --select / --ignore / --explain
# ---------------------------------------------------------------------------

MIXED_SOURCE = textwrap.dedent("""
    import random
    import threading

    x = random.random()
    t = threading.Thread(target=print)
""")


def write_module(tmp_path, name, source):
    (tmp_path / name).write_text(textwrap.dedent(source))


def run(tmp_path, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = run_lint(["mixed.py"], root=str(tmp_path), out=out, err=err,
                    **kwargs)
    return code, out.getvalue(), err.getvalue()


def test_select_by_code_and_category(tmp_path):
    write_module(tmp_path, "mixed.py", MIXED_SOURCE)
    code, out, _ = run(tmp_path, select=("REP104",))
    assert code == 1
    assert "REP104" in out and "REP001" not in out

    code, out, _ = run(tmp_path, select=("determinism",))
    assert code == 1
    assert "REP001" in out and "REP104" not in out


def test_ignore_by_category(tmp_path):
    write_module(tmp_path, "mixed.py", MIXED_SOURCE)
    code, out, _ = run(tmp_path, ignore=("concurrency",))
    assert code == 1
    assert "REP001" in out and "REP104" not in out

    code, out, _ = run(tmp_path, ignore=("determinism", "concurrency"))
    assert code == 0


def test_ignore_wins_over_select(tmp_path):
    write_module(tmp_path, "mixed.py", MIXED_SOURCE)
    code, _, _ = run(tmp_path, select=("REP104",), ignore=("REP104",))
    assert code == 0


def test_filters_apply_to_json_rules_listing(tmp_path):
    write_module(tmp_path, "mixed.py", MIXED_SOURCE)
    code, out, _ = run(tmp_path, select=("concurrency",),
                       output_format="json")
    assert code == 1
    payload = json.loads(out)
    assert [v["rule"] for v in payload["violations"]] == ["REP104"]
    assert all(v["category"] == "concurrency"
               for v in payload["violations"])


def test_invalid_filter_token_exits_2(tmp_path):
    write_module(tmp_path, "mixed.py", MIXED_SOURCE)
    code, _, err = run(tmp_path, select=("REP999",))
    assert code == 2
    assert "REP999" in err


def test_select_with_write_baseline_refused(tmp_path):
    write_module(tmp_path, "mixed.py", MIXED_SOURCE)
    code, _, err = run(tmp_path, select=("concurrency",),
                       write_baseline=True)
    assert code == 2
    assert "baseline" in err.lower()


def test_explain_prints_rule_contract():
    out, err = io.StringIO(), io.StringIO()
    assert run_lint(explain="REP105", out=out, err=err) == 0
    text = out.getvalue()
    assert "REP105" in text and "[concurrency]" in text
    assert "lock-order" in text


def test_explain_unknown_code_exits_2():
    out, err = io.StringIO(), io.StringIO()
    assert run_lint(explain="REP042", out=out, err=err) == 2
    assert "REP042" in err.getvalue()
