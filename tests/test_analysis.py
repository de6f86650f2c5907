"""reprolint: per-rule unit tests on fixture snippets plus the tier-1 gate.

Each rule is proven twice — it *fires* on a minimal violating fixture
and it *stays silent* on the corrected version — and the shipped tree
itself must lint clean (``test_shipped_tree_is_clean``), which is what
makes the checker a tier-1 gate: any new invariant violation under
``src/`` fails ``python -m pytest -x -q``.  Skip the gate (not the unit
tests) with ``--no-lint``.

Rules scope themselves by file path, so fixtures opt into a rule by
living under a matching relative path (``tmp/repro/uarch/mod.py``
for determinism, ``tmp/repro/harness/queue.py`` for the transition
table, and so on).
"""

from __future__ import annotations

from pathlib import Path
from textwrap import dedent

import pytest

import repro
from repro.analysis import (
    Finding,
    all_rules,
    get_rules,
    lint_paths,
    lint_source,
)
from repro.analysis.cli import main as lint_main


def lint_snippet(source: str, path: str = "repro/somewhere/mod.py"):
    """Lint one dedented snippet as though it lived at ``path``."""
    return lint_source(dedent(source), path)


def rule_ids(findings: list[Finding]) -> set[str]:
    return {finding.rule_id for finding in findings}


# ----------------------------------------------------------------------
# Registry and framework basics
# ----------------------------------------------------------------------
def test_registry_ships_at_least_six_rules_with_unique_ids():
    rules = all_rules()
    ids = [rule.rule_id for rule in rules]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 6
    assert {
        "determinism",
        "atomic-io",
        "queue-transitions",
        "fingerprint-purity",
        "exception-hygiene",
        "optional-deps",
        "retry-discipline",
        "telemetry-purity",
    } <= set(ids)
    for rule in rules:
        assert rule.contract  # --list-rules has something to show


def test_rule_scope_tables_name_existing_modules():
    """Every module a rule's scope table names exists under ``src/``,
    so a deleted layer cannot leave its scope entries behind."""
    from repro.analysis.rules import (
        AtomicIoRule,
        OptionalDependencyRule,
        RetryDisciplineRule,
    )

    src_root = Path(next(iter(repro.__path__))).parent
    scoped = set(AtomicIoRule.SCOPED_MODULES)
    for homes in OptionalDependencyRule.SCOPED_IMPORTS.values():
        scoped.update(homes)
    scoped.add(RetryDisciplineRule.SLEEP_OWNER)
    missing = sorted(path for path in scoped if not (src_root / path).is_file())
    assert missing == []


def test_get_rules_rejects_unknown_ids():
    with pytest.raises(ValueError, match="unknown rule"):
        get_rules(["no-such-rule"])


def test_findings_carry_source_locations():
    result = lint_snippet(
        """
        try:
            x = 1
        except Exception:
            pass
        """
    )
    (finding,) = result.findings
    assert finding.rule_id == "exception-hygiene"
    assert finding.line == 4
    assert str(finding).startswith("repro/somewhere/mod.py:4:")


def test_syntax_error_becomes_a_finding_not_an_exception():
    result = lint_snippet("def broken(:\n")
    assert rule_ids(result.findings) == {"syntax-error"}


# ----------------------------------------------------------------------
# Rule 1: determinism (scoped to repro/uarch/)
# ----------------------------------------------------------------------
def test_determinism_fires_on_random_import_in_uarch():
    result = lint_snippet("import random\n", "repro/uarch/mod.py")
    assert rule_ids(result.findings) == {"determinism"}


@pytest.mark.parametrize(
    "line", ["import time", "from datetime import datetime", "import datetime"]
)
def test_determinism_fires_on_clock_imports_in_uarch(line):
    result = lint_snippet(line + "\n", "repro/uarch/mod.py")
    assert rule_ids(result.findings) == {"determinism"}


def test_determinism_fires_on_set_iteration_in_uarch():
    result = lint_snippet(
        """
        def f(items):
            for x in set(items):
                yield x
            return [y for y in {1, 2, 3}]
        """,
        "repro/uarch/mod.py",
    )
    assert len(result.findings) == 2
    assert rule_ids(result.findings) == {"determinism"}


def test_determinism_silent_on_sorted_iteration_and_outside_uarch():
    corrected = """
    def f(items):
        for x in sorted(set(items)):
            yield x
    """
    assert lint_snippet(corrected, "repro/uarch/mod.py").findings == []
    # The same nondeterminism outside the replay core is out of scope.
    assert lint_snippet("import random\n", "repro/harness/mod.py").findings == []


# ----------------------------------------------------------------------
# Rule 2: atomic-io (scoped to the cache-tree writer modules)
# ----------------------------------------------------------------------
def test_atomic_io_fires_on_write_mode_open_in_cache_module():
    result = lint_snippet(
        """
        def store(path, payload):
            with open(path, "w") as handle:
                handle.write(payload)
        """,
        "repro/harness/cache.py",
    )
    assert rule_ids(result.findings) == {"atomic-io"}


def test_atomic_io_fires_on_write_text_and_inline_json_dump():
    result = lint_snippet(
        """
        import json

        def store(path, payload):
            path.write_text(payload)
            json.dump(payload, open(path, "w"))
        """,
        "repro/harness/queue.py",
    )
    # write_text, json.dump-into-open, and the inline write-mode open.
    assert len(result.findings) == 3
    assert rule_ids(result.findings) == {"atomic-io"}


def test_atomic_io_silent_on_reads_and_on_publish_atomically():
    corrected = """
    import json
    from repro.atomicio import publish_atomically

    def store(path, payload):
        publish_atomically(path, lambda handle: json.dump(payload, handle))

    def load(path):
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def load_binary(path):
        with open(path, "rb") as handle:
            return handle.read()
    """
    assert lint_snippet(corrected, "repro/harness/cache.py").findings == []
    # Unscoped modules may write files directly (local reports etc.).
    writer = 'open(p, "w").write(x)\n'
    assert lint_snippet(writer, "repro/harness/figures.py").findings == []


def test_atomic_io_fires_on_dynamic_mode():
    result = lint_snippet(
        "def f(p, m):\n    return open(p, m)\n", "repro/uarch/trace.py"
    )
    assert rule_ids(result.findings) == {"atomic-io"}


# ----------------------------------------------------------------------
# Rule 3: queue-transitions (scoped to repro/harness/queue.py)
# ----------------------------------------------------------------------
QUEUE_FIXTURE_PATH = "repro/harness/queue.py"


def test_queue_transitions_silent_on_documented_edges():
    documented = """
    import os

    class Q:
        def claim(self, name):
            pending = self.pending_dir / name
            lease = self.leases_dir / name
            os.rename(pending, lease)

        def release(self, claimed):
            os.rename(claimed.lease_path, self.pending_dir / claimed.lease_path.name)

        def poison(self, lease):
            os.replace(lease, self.poison_dir / lease.name)

        def requeue(self, name):
            lease = self.leases_dir / name
            os.rename(lease, self.pending_dir / name)
    """
    assert lint_snippet(documented, QUEUE_FIXTURE_PATH).findings == []


def test_queue_transitions_catch_synthetic_undocumented_edge():
    # A done→pending rename is not in the protocol table: completion
    # markers are consumed, never requeued by rename.
    undocumented = """
    import os

    class Q:
        def resurrect(self, name):
            os.rename(self.done_dir / name, self.pending_dir / name)
    """
    (finding,) = lint_snippet(undocumented, QUEUE_FIXTURE_PATH).findings
    assert finding.rule_id == "queue-transitions"
    assert "done" in finding.message and "pending" in finding.message


def test_queue_transitions_fires_on_unclassifiable_endpoints():
    opaque = """
    import os

    def shuffle(a, b):
        os.rename(a, b)
    """
    (finding,) = lint_snippet(opaque, QUEUE_FIXTURE_PATH).findings
    assert finding.rule_id == "queue-transitions"
    assert "cannot be classified" in finding.message


def test_queue_transitions_resolves_helper_calls():
    via_helpers = """
    import os

    class Q:
        def claim(self, f):
            os.rename(self.pending_path(f), self.lease_path(f))
    """
    assert lint_snippet(via_helpers, QUEUE_FIXTURE_PATH).findings == []


def test_queue_transitions_out_of_scope_elsewhere():
    elsewhere = "import os\n\ndef f(a, b):\n    os.rename(a, b)\n"
    assert lint_snippet(elsewhere, "repro/harness/shard.py").findings == []


# ----------------------------------------------------------------------
# Rule 4: fingerprint-purity (whole tree)
# ----------------------------------------------------------------------
def test_fingerprint_purity_fires_on_engine_in_fingerprint_payload():
    impure = """
    import hashlib, json

    def simulation_fingerprint(traits, technique, engine):
        payload = {"traits": traits, "technique": technique, "engine": engine}
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    """
    findings = lint_snippet(impure).findings
    assert rule_ids(findings) == {"fingerprint-purity"}
    # The parameter, its uses and the dict key are each pinpointed.
    assert len(findings) >= 2


def test_fingerprint_purity_fires_on_engine_keyword_at_callsites():
    caller = """
    def enqueue(job, make_fingerprint):
        return make_fingerprint(job.traits, engine=job.engine)
    """
    (finding,) = lint_snippet(caller).findings
    assert finding.rule_id == "fingerprint-purity"


def test_fingerprint_purity_silent_on_pure_construction():
    pure = """
    import hashlib, json

    def simulation_fingerprint(traits, technique):
        '''Engines are bit-identical transport and never enter this key.'''
        payload = {"traits": traits, "technique": technique}
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()

    def run(job, engine):
        return engine.run(job)  # engine use outside fingerprinting is fine
    """
    assert lint_snippet(pure).findings == []


# ----------------------------------------------------------------------
# Rule 5: exception-hygiene (whole tree)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "clause", ["except Exception:", "except BaseException:", "except:"]
)
def test_exception_hygiene_fires_on_swallowing_broad_handlers(clause):
    snippet = f"""
    try:
        x = 1
    {clause}
        pass
    """
    assert rule_ids(lint_snippet(snippet).findings) == {"exception-hygiene"}


def test_exception_hygiene_silent_on_reraise_and_narrow_handlers():
    corrected = """
    try:
        x = 1
    except BaseException:
        cleanup = True
        raise

    try:
        y = 2
    except (OSError, ValueError):
        y = None
    """
    assert lint_snippet(corrected).findings == []


def test_exception_hygiene_suppressible_with_justified_pragma():
    annotated = """
    try:
        x = 1
    except Exception:  # repro: allow[exception-hygiene] third-party surface
        x = None
    """
    result = lint_snippet(annotated)
    assert result.findings == []
    assert rule_ids(result.suppressed) == {"exception-hygiene"}


# ----------------------------------------------------------------------
# Rule 6: optional-deps (whole tree)
# ----------------------------------------------------------------------
def test_optional_deps_fires_on_unguarded_top_level_numpy():
    result = lint_snippet("import numpy as np\n", "repro/harness/mod.py")
    assert rule_ids(result.findings) == {"optional-deps"}
    result = lint_snippet("from numpy import zeros\n", "repro/harness/mod.py")
    assert rule_ids(result.findings) == {"optional-deps"}
    # numpy has no home module: not even a replay kernel may import it.
    for path in ("repro/uarch/engine/scalar.py", "repro/uarch/engine/native.py"):
        result = lint_snippet("import numpy\n", path)
        assert rule_ids(result.findings) == {"optional-deps"}, path
        assert "no module may import it directly" in result.findings[0].message


def test_optional_deps_fires_on_unguarded_networkx_anywhere():
    # networkx has no home module either: the loop analysis finds its
    # recurrences without it, so no module may bring it back unguarded.
    paths = ("repro/core/loop_analysis.py", "repro/cfg/graph.py", "repro/harness/mod.py")
    for path in paths:
        for source in ("import networkx as nx\n", "from networkx import DiGraph\n"):
            result = lint_snippet(source, path)
            assert rule_ids(result.findings) == {"optional-deps"}, (path, source)
            assert "'networkx'" in result.findings[0].message
            assert "no module may import it directly" in result.findings[0].message
    deferred = """
    def components(graph):
        import networkx
        return networkx.strongly_connected_components(graph)
    """
    assert lint_snippet(deferred, "repro/core/loop_analysis.py").findings == []


def test_optional_deps_silent_when_guarded_or_deferred():
    guarded = """
    try:
        import numpy as np
    except ImportError:
        np = None

    def lazily():
        import numpy
        return numpy
    """
    assert lint_snippet(guarded, "repro/harness/mod.py").findings == []


def test_optional_deps_fires_on_compiled_backend_imports_outside_native():
    """The compiled kernel's artefacts (the built extension module, or a
    numba/Cython toolchain) are scoped to engine/native.py + its build
    helper."""
    for module in ("_native_replay", "numba", "Cython", "pyximport"):
        result = lint_snippet(f"import {module}\n", "repro/harness/mod.py")
        assert rule_ids(result.findings) == {"optional-deps"}, module
    result = lint_snippet(
        "from numba import njit\n", "repro/uarch/engine/scalar.py"
    )
    assert rule_ids(result.findings) == {"optional-deps"}  # wrong home
    assert "only repro/uarch/engine/native.py or" in result.findings[0].message


def test_optional_deps_silent_for_compiled_backend_in_its_home_modules():
    for path in (
        "repro/uarch/engine/native.py",
        "repro/uarch/engine/build.py",
    ):
        assert lint_snippet("import _native_replay\n", path).findings == []
        assert lint_snippet("import numba\n", path).findings == []
    # Guarded/deferred imports stay legal anywhere.
    guarded = """
    try:
        import numba
    except ImportError:
        numba = None

    def lazily():
        import _native_replay
        return _native_replay
    """
    assert lint_snippet(guarded, "repro/harness/mod.py").findings == []


# ----------------------------------------------------------------------
# Rule 7: retry-discipline (sleep ownership + uarch isolation)
# ----------------------------------------------------------------------
def test_retry_discipline_fires_on_time_sleep_outside_faults():
    snippet = """
    import time

    def poll():
        time.sleep(0.2)
    """
    result = lint_snippet(snippet, "repro/harness/queue.py")
    assert rule_ids(result.findings) == {"retry-discipline"}


def test_retry_discipline_fires_on_from_time_import_sleep():
    snippet = """
    from time import sleep

    def poll():
        sleep(0.2)
    """
    result = lint_snippet(snippet, "repro/harness/parallel.py")
    assert rule_ids(result.findings) == {"retry-discipline"}


def test_retry_discipline_silent_in_the_sleep_owner_module():
    snippet = """
    import time

    def sleep(seconds):
        time.sleep(seconds)
    """
    assert lint_snippet(snippet, "repro/harness/faults.py").findings == []


def test_retry_discipline_silent_on_monotonic_and_faults_sleep():
    snippet = """
    import time

    from repro.harness import faults

    def wait(deadline):
        while time.monotonic() < deadline:
            faults.sleep(0.1)
    """
    assert lint_snippet(snippet, "repro/harness/parallel.py").findings == []


def test_retry_discipline_fires_on_faults_import_under_uarch():
    for line in (
        "from repro.harness import faults\n",
        "from repro.harness.faults import RetryPolicy\n",
        "import repro.harness.faults\n",
    ):
        result = lint_snippet(line, "repro/uarch/trace.py")
        assert rule_ids(result.findings) == {"retry-discipline"}, line


def test_retry_discipline_faults_import_allowed_outside_uarch():
    line = "from repro.harness import faults\n"
    assert lint_snippet(line, "repro/harness/cache.py").findings == []


# ----------------------------------------------------------------------
# Rule 8: telemetry-purity (observability stays out of uarch and keys)
# ----------------------------------------------------------------------
def test_telemetry_purity_fires_on_telemetry_import_under_uarch():
    for line in (
        "from repro.telemetry import spans\n",
        "from repro.telemetry.spans import span\n",
        "import repro.telemetry\n",
        "from repro import telemetry\n",
    ):
        result = lint_snippet(line, "repro/uarch/pipeline.py")
        assert rule_ids(result.findings) == {"telemetry-purity"}, line


def test_telemetry_purity_import_allowed_outside_uarch():
    line = "from repro.telemetry import spans as tracing\n"
    assert lint_snippet(line, "repro/harness/queue.py").findings == []


def test_telemetry_purity_fires_on_telemetry_values_in_fingerprints():
    probe_rate = """
    def simulation_fingerprint(traits, cycles_per_second):
        return hash((traits, cycles_per_second))
    """
    result = lint_snippet(probe_rate, "repro/harness/cache.py")
    assert "telemetry-purity" in rule_ids(result.findings)

    trace_key = """
    def job_fingerprint(job):
        payload = {"benchmark": job.benchmark, "trace_id": job.trace_id}
        return digest(payload)
    """
    result = lint_snippet(trace_key, "repro/harness/queue.py")
    assert "telemetry-purity" in rule_ids(result.findings)


def test_telemetry_purity_silent_on_clean_fingerprints_and_elsewhere():
    clean = """
    def simulation_fingerprint(traits, technique, max_instructions):
        return digest({"traits": traits, "technique": technique})
    """
    assert lint_snippet(clean, "repro/harness/cache.py").findings == []
    # The vocabulary only binds fingerprint functions: a worker publishing
    # its own measurements is exactly what the telemetry plane is for.
    elsewhere = """
    def publish_stats(self):
        return {"probes": self.probes, "telemetry": True}
    """
    assert lint_snippet(elsewhere, "repro/harness/queue.py").findings == []


# ----------------------------------------------------------------------
# Suppression mechanics
# ----------------------------------------------------------------------
def test_pragma_on_preceding_comment_line_suppresses():
    snippet = """
    # repro: allow[determinism] seeded reproducibly at startup
    import random
    """
    result = lint_snippet(snippet, "repro/uarch/mod.py")
    assert result.findings == []
    assert rule_ids(result.suppressed) == {"determinism"}


def test_pragma_for_a_different_rule_does_not_suppress():
    snippet = "import random  # repro: allow[atomic-io]\n"
    result = lint_snippet(snippet, "repro/uarch/mod.py")
    assert rule_ids(result.findings) == {"determinism"}
    assert result.suppressed == []


def test_one_pragma_may_list_several_rules():
    snippet = (
        "import random  # repro: allow[determinism, optional-deps]\n"
    )
    result = lint_snippet(snippet, "repro/uarch/mod.py")
    assert result.findings == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def write_fixture(tmp_path: Path, relative: str, source: str) -> Path:
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dedent(source), encoding="utf-8")
    return path


def test_cli_exits_nonzero_on_strict_findings(tmp_path, capsys):
    bad = write_fixture(tmp_path, "repro/uarch/mod.py", "import random\n")
    assert lint_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[determinism]" in out
    assert "1 finding(s)" in out


def test_cli_exits_zero_on_clean_tree(tmp_path, capsys):
    write_fixture(tmp_path, "repro/uarch/mod.py", "VALUE = 1\n")
    assert lint_main([str(tmp_path)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_advisory_findings_never_fail_the_run(tmp_path, capsys):
    write_fixture(tmp_path, "clean/repro/uarch/mod.py", "VALUE = 1\n")
    write_fixture(tmp_path, "scratch/repro/uarch/mod.py", "import random\n")
    code = lint_main(
        [str(tmp_path / "clean"), "--advisory", str(tmp_path / "scratch")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "advisory:" in out and "[determinism]" in out
    assert "not failing the run" in out


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.rule_id in out


def test_cli_select_subset(tmp_path):
    bad = write_fixture(tmp_path, "repro/uarch/mod.py", "import random\n")
    assert lint_main([str(bad), "--select", "determinism"]) == 1
    assert lint_main([str(bad), "--select", "atomic-io"]) == 0


# ----------------------------------------------------------------------
# The tier-1 gate: the shipped tree lints clean
# ----------------------------------------------------------------------
def test_shipped_tree_is_clean(request):
    if request.config.getoption("--no-lint", default=False):
        pytest.skip("lint gate disabled via --no-lint")
    package_root = Path(next(iter(repro.__path__)))
    result = lint_paths([package_root])
    formatted = "\n".join(str(finding) for finding in result.findings)
    assert result.findings == [], f"reprolint violations in src/:\n{formatted}"
    assert result.files > 50  # the walk really covered the package
