"""The shipped reprolint rules — one per repo contract.

Each rule encodes one invariant the reproduction's correctness rests on
(see ``docs/static-analysis.md`` for the catalogue and ROADMAP.md for
the contracts themselves).  Rules are scoped by path where the contract
is scoped by layer: determinism binds the replay core under
``repro/uarch/``, the atomic-IO discipline binds the modules that write
the shared cache tree, and the rest bind the whole package.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.analysis.core import Finding, Rule, register_rule


def _walk_functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _call_name(func: ast.AST) -> str:
    """The trailing identifier of a call target (``os.rename`` → ``rename``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _string_constant(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# ----------------------------------------------------------------------
# 1. determinism — the replay core must be bit-identical run to run
# ----------------------------------------------------------------------
@register_rule
class DeterminismRule(Rule):
    """No nondeterminism sources inside ``repro/uarch/``.

    The acceptance gate of ``tests/test_engines.py`` is *byte-identical*
    statistics between replay kernels for every technique; one
    ``time.time()`` sample, ``random`` draw or iteration over an
    unordered set anywhere in the replay core silently voids it.  The
    rule bans importing ``random``/``time``/``datetime`` in the uarch
    layer outright and flags ``for``/comprehension iteration whose
    iterable is syntactically a set (literal, comprehension, or a
    direct ``set()``/``frozenset()`` call) — wrap such iterables in
    ``sorted(...)`` to pin the order.
    """

    rule_id = "determinism"
    contract = (
        "repro/uarch/ must stay bit-deterministic: no random/time/datetime "
        "imports, no iteration over unordered sets"
    )

    BANNED_MODULES = ("random", "time", "datetime")

    def applies_to(self, posix_path: str) -> bool:
        return "repro/uarch/" in posix_path

    def check(self, tree: ast.AST, path: str) -> Iterable[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self.BANNED_MODULES:
                        yield self.finding(
                            node,
                            path,
                            f"import of nondeterminism source {root!r} in the "
                            "replay core; uarch code must be bit-identical "
                            "run to run",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in self.BANNED_MODULES:
                    yield self.finding(
                        node,
                        path,
                        f"import from nondeterminism source {root!r} in the "
                        "replay core; uarch code must be bit-identical "
                        "run to run",
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expression(node.iter):
                    yield self.finding(
                        node.iter,
                        path,
                        "iteration over an unordered set in the replay core; "
                        "wrap the iterable in sorted(...) to pin the order",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if self._is_set_expression(generator.iter):
                        yield self.finding(
                            generator.iter,
                            path,
                            "comprehension over an unordered set in the replay "
                            "core; wrap the iterable in sorted(...) to pin "
                            "the order",
                        )

    @staticmethod
    def _is_set_expression(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False


# ----------------------------------------------------------------------
# 2. atomic-io — shared-tree writers must go through repro.atomicio
# ----------------------------------------------------------------------
@register_rule
class AtomicIoRule(Rule):
    """Cache-tree modules must publish files via ``repro.atomicio``.

    The gc sweeper identifies killed-writer debris purely by the
    ``.tmp-*`` prefix plus age, and readers rely on never observing a
    torn file; both guarantees hold only while every writer uses
    ``publish_atomically`` (temp file + ``os.replace`` in the
    destination directory).  The modules that operate on the shared
    cache directory therefore may not open files for writing, call
    ``Path.write_text``/``write_bytes``, or ``json.dump`` into an
    inline ``open()`` — only :mod:`repro.atomicio` itself owns the raw
    file-writing machinery.
    """

    rule_id = "atomic-io"
    contract = (
        "modules writing the shared cache tree must publish through "
        "repro.atomicio (temp file + os.replace), never raw write-mode IO"
    )

    #: The modules that write into the shared cache directory.  New
    #: writers of that tree must be added here to come under the rule.
    SCOPED_MODULES = (
        "repro/harness/cache.py",
        "repro/harness/parallel.py",
        "repro/uarch/trace.py",
    )

    WRITE_MODE_CHARS = set("wax+")

    def applies_to(self, posix_path: str) -> bool:
        return any(posix_path.endswith(suffix) for suffix in self.SCOPED_MODULES)

    def check(self, tree: ast.AST, path: str) -> Iterable[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            if name == "open" and self._open_mode_writes(node):
                yield self.finding(
                    node,
                    path,
                    "write-mode open() in a shared-cache-tree module; "
                    "publish through repro.atomicio.publish_atomically so "
                    "readers never see a torn file and gc can sweep orphans",
                )
            elif name in ("write_text", "write_bytes") and isinstance(
                node.func, ast.Attribute
            ):
                yield self.finding(
                    node,
                    path,
                    f"Path.{name}() in a shared-cache-tree module; publish "
                    "through repro.atomicio.publish_atomically instead",
                )
            elif name == "dump" and any(
                isinstance(arg, ast.Call) and _call_name(arg.func) == "open"
                for arg in node.args
            ):
                yield self.finding(
                    node,
                    path,
                    "json.dump into an inline open() in a shared-cache-tree "
                    "module; publish through "
                    "repro.atomicio.publish_atomically instead",
                )

    def _open_mode_writes(self, call: ast.Call) -> bool:
        mode = None
        if len(call.args) >= 2:
            mode = _string_constant(call.args[1])
        for keyword in call.keywords:
            if keyword.arg == "mode":
                mode = _string_constant(keyword.value)
        if mode is None:
            # No literal mode: either default "r" (positional absent) or a
            # dynamic expression we cannot prove read-only — flag the
            # latter so a computed write mode cannot slip through.
            return len(call.args) >= 2 or any(
                keyword.arg == "mode" for keyword in call.keywords
            )
        return bool(self.WRITE_MODE_CHARS & set(mode))


# ----------------------------------------------------------------------
# 3. fingerprint-purity — engine identity never enters cache keys
# ----------------------------------------------------------------------
@register_rule
class FingerprintPurityRule(Rule):
    """Replay-kernel identity must not flow into fingerprint construction.

    Replay engines are bit-identical by contract, so the engine is
    *transport*, like the worker count: a grid cached under the scalar
    kernel must be a pure hit under the native one.  One ``"engine"``
    key in a fingerprint payload silently doubles every cache.  The
    rule inspects every function whose name contains ``fingerprint``
    and flags any identifier, parameter, keyword or dict key matching
    the engine vocabulary (``engine``/``kernel``/``REPRO_REPLAY``);
    it also flags ``engine=``-style keywords passed *to* a fingerprint
    function from anywhere.
    """

    rule_id = "fingerprint-purity"
    contract = (
        "engine/kernel identifiers never flow into ResultCache/TraceCache "
        "fingerprint construction (engines are bit-identical transport)"
    )

    IMPURE_TOKENS = ("engine", "kernel", "repro_replay")

    def check(self, tree: ast.AST, path: str) -> Iterable[Finding]:
        fingerprint_functions = [
            node
            for node in _walk_functions(tree)
            if "fingerprint" in node.name.lower()
        ]
        for function in fingerprint_functions:
            yield from self._check_function(function, path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if "fingerprint" not in _call_name(node.func).lower():
                continue
            for keyword in node.keywords:
                if keyword.arg and self._impure(keyword.arg):
                    yield self.finding(
                        keyword.value,
                        path,
                        f"keyword {keyword.arg!r} passes engine identity into "
                        "a fingerprint function; engines are bit-identical "
                        "transport and must not enter cache keys",
                    )

    def _check_function(self, function: ast.AST, path: str) -> Iterator[Finding]:
        for arg in ast.walk(function):
            if isinstance(arg, ast.arg) and self._impure(arg.arg):
                yield self.finding(
                    arg,
                    path,
                    f"fingerprint function {function.name!r} takes engine "
                    f"identity parameter {arg.arg!r}; engines must not enter "
                    "cache keys",
                )
        body = function.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and _string_constant(body[0].value) is not None
        ):
            body = body[1:]  # prose may mention the contract by name
        for statement in body:
            for node in ast.walk(statement):
                label: Optional[str] = None
                if isinstance(node, ast.Name) and self._impure(node.id):
                    label = node.id
                elif isinstance(node, ast.Attribute) and self._impure(node.attr):
                    label = node.attr
                elif isinstance(node, ast.keyword) and node.arg and self._impure(node.arg):
                    label = node.arg
                elif isinstance(node, ast.Dict):
                    for key in node.keys:
                        text = _string_constant(key)
                        if text is not None and self._impure(text):
                            yield self.finding(
                                key,
                                path,
                                f"dict key {text!r} inside fingerprint "
                                f"function {function.name!r} injects engine "
                                "identity into the cache key",
                            )
                    continue
                if label is not None:
                    yield self.finding(
                        node,
                        path,
                        f"engine identifier {label!r} referenced inside "
                        f"fingerprint function {function.name!r}; engines "
                        "are bit-identical transport and must not enter "
                        "cache keys",
                    )

    def _impure(self, name: str) -> bool:
        lowered = name.lower()
        return any(token in lowered for token in self.IMPURE_TOKENS)


# ----------------------------------------------------------------------
# 4. exception-hygiene — broad handlers need a re-raise or a pragma
# ----------------------------------------------------------------------
@register_rule
class ExceptionHygieneRule(Rule):
    """``except Exception``/``except:`` must re-raise or carry a pragma.

    A broad handler that swallows is where torn cache state,
    half-folded counters and silently wrong figures go to hide.
    Handlers that re-raise (``repro.atomicio``'s cleanup-then-``raise``)
    are fine; genuinely unbounded exception surfaces (unpickling foreign
    payloads, executing user code) stay broad with a justified
    ``# repro: allow[exception-hygiene] <reason>`` pragma on the
    ``except`` line; everything else narrows to the exception types the
    body actually expects.
    """

    rule_id = "exception-hygiene"
    contract = (
        "broad except Exception/bare except must re-raise or carry a "
        "justified # repro: allow[exception-hygiene] pragma"
    )

    BROAD_NAMES = ("Exception", "BaseException")

    def check(self, tree: ast.AST, path: str) -> Iterable[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if any(isinstance(inner, ast.Raise) for inner in ast.walk(node)):
                continue
            caught = "bare except" if node.type is None else ast.unparse(node.type)
            yield self.finding(
                node,
                path,
                f"broad handler ({caught}) neither re-raises nor carries a "
                "justification pragma; narrow it to the exceptions the body "
                "expects or annotate why it must stay broad",
            )

    def _is_broad(self, node: Optional[ast.AST]) -> bool:
        if node is None:
            return True
        if isinstance(node, ast.Name):
            return node.id in self.BROAD_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in self.BROAD_NAMES
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(element) for element in node.elts)
        return False


# ----------------------------------------------------------------------
# 5. optional-deps — optional backends stay in their home modules
# ----------------------------------------------------------------------
@register_rule
class OptionalDependencyRule(Rule):
    """Each optional dependency stays inside its kernel's home module.

    The package has no runtime requirement: the compiler and the scalar
    replay path run on a plain Python install.  Every accelerated
    kernel's dependency is a setup.py extra with exactly one home: the
    compiled backend's artefacts (the built ``_native_replay`` module,
    or a numba/Cython toolchain should a second backend adopt one)
    belong to ``engine/native.py`` plus its ``engine/build.py`` compiler
    harness.  numpy and networkx have no home: no shipped code needs
    either (the compiler's loop analysis finds recurrences itself), so
    an unguarded import of one anywhere would make every process pay for
    it at startup.  A top-level unguarded import outside a listed home
    turns a missing extra into an ``ImportError`` at callsite depth
    instead of the deliberate named ``*UnavailableError``.  Imports are
    fine inside the module's listed home(s), inside a function body
    (deferred), or inside ``try``/``except ImportError`` (guarded).
    """

    rule_id = "optional-deps"
    contract = (
        "optional dependencies only in their kernel's home module "
        "(compiled-backend artefacts → engine/native.py + engine/build.py; "
        "numpy, networkx → none) or behind a guarded/deferred import; the "
        "compiler and the scalar replay path need no extra"
    )

    #: Optional import root → the module suffixes allowed to import it
    #: at top level, unguarded (an empty tuple: no module may).  A new
    #: optional backend adds one entry.
    SCOPED_IMPORTS: dict[str, tuple[str, ...]] = {
        "numpy": (),
        "networkx": (),
        "_native_replay": (
            "repro/uarch/engine/native.py",
            "repro/uarch/engine/build.py",
        ),
        "numba": (
            "repro/uarch/engine/native.py",
            "repro/uarch/engine/build.py",
        ),
        "Cython": (
            "repro/uarch/engine/native.py",
            "repro/uarch/engine/build.py",
        ),
        "cython": (
            "repro/uarch/engine/native.py",
            "repro/uarch/engine/build.py",
        ),
        "pyximport": (
            "repro/uarch/engine/native.py",
            "repro/uarch/engine/build.py",
        ),
    }
    GUARD_EXCEPTIONS = ("ImportError", "ModuleNotFoundError", "Exception")

    def check(self, tree: ast.AST, path: str) -> Iterable[Finding]:
        yield from self._visit(tree, path, guarded=False)

    def _visit(self, node: ast.AST, path: str, guarded: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_guarded = guarded
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_guarded = True
            elif isinstance(child, ast.Try) and self._guards_import_error(child):
                child_guarded = True
            if isinstance(child, (ast.Import, ast.ImportFrom)) and not guarded:
                for module in self._imported_roots(child):
                    homes = self.SCOPED_IMPORTS.get(module)
                    if homes is None:
                        continue
                    if any(path.endswith(home) for home in homes):
                        continue
                    scope = (
                        f"only {' or '.join(homes)} may import it "
                        "directly — elsewhere"
                        if homes
                        else "no module may import it directly —"
                    )
                    yield self.finding(
                        child,
                        path,
                        f"unguarded import of optional dependency "
                        f"{module!r}; {scope} guard with try/except "
                        "ImportError or defer into a function",
                    )
            yield from self._visit(child, path, child_guarded)

    def _imported_roots(self, node: ast.AST) -> list[str]:
        if isinstance(node, ast.Import):
            return [alias.name.split(".")[0] for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            return [(node.module or "").split(".")[0]]
        return []

    def _guards_import_error(self, node: ast.Try) -> bool:
        for handler in node.handlers:
            names = (
                handler.type.elts
                if isinstance(handler.type, ast.Tuple)
                else [handler.type]
            )
            for name in names:
                if name is None:
                    return True
                if isinstance(name, ast.Name) and name.id in self.GUARD_EXCEPTIONS:
                    return True
        return False


# ----------------------------------------------------------------------
# 6. retry-discipline — waiting is centralised, injection stays out of
#    the replay core
# ----------------------------------------------------------------------
@register_rule
class RetryDisciplineRule(Rule):
    """All sleeping goes through chaoskit; no fault hooks under uarch.

    Two halves of one contract.  First, ``time.sleep`` anywhere outside
    :mod:`repro.harness.faults` is an ad-hoc wait: it cannot be
    compressed by a chaos plan's ``sleep_scale``, cannot be seeded, and
    hides backoff policy at the call site — route it through
    ``faults.sleep`` or a ``RetryPolicy``, which that module owns.
    Second, the replay kernels must be bit-identical with and without an
    installed fault plan, so ``repro/uarch/`` may not import the fault
    machinery at all — trace-store faults are exercised through the
    :mod:`repro.atomicio` hooks below the uarch layer instead.
    """

    rule_id = "retry-discipline"
    contract = (
        "time.sleep only inside repro/harness/faults.py (faults.sleep / "
        "RetryPolicy own all waiting); repro/uarch/ never imports the "
        "fault-injection machinery"
    )

    #: The single module allowed to call ``time.sleep`` — the seam every
    #: other wait routes through.
    SLEEP_OWNER = "repro/harness/faults.py"

    def check(self, tree: ast.AST, path: str) -> Iterable[Finding]:
        in_uarch = "repro/uarch/" in path
        owner = path.endswith(self.SLEEP_OWNER)
        for node in ast.walk(tree):
            if (
                not owner
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sleep"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "time"
            ):
                yield self.finding(
                    node,
                    path,
                    "ad-hoc time.sleep; waiting must be centralised and "
                    "chaos-scalable — use repro.harness.faults.sleep (or a "
                    "RetryPolicy) instead",
                )
            elif not owner and isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "time" and any(
                    alias.name == "sleep" for alias in node.names
                ):
                    yield self.finding(
                        node,
                        path,
                        "importing sleep from time sidesteps the centralised "
                        "wait seam; use repro.harness.faults.sleep instead",
                    )
            if in_uarch and isinstance(node, (ast.Import, ast.ImportFrom)):
                # import repro.harness.faults / from repro.harness import
                # faults / from repro.harness.faults import ... all count.
                module_names = [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom):
                    module_names.append(node.module or "")
                if any("faults" in name.split(".") for name in module_names):
                    yield self.finding(
                        node,
                        path,
                        "fault-injection machinery imported into the replay "
                        "core; uarch statistics must be bit-identical with "
                        "and without a fault plan, so hooks stop at the "
                        "harness/atomicio layers",
                    )


# ----------------------------------------------------------------------
# 7. telemetry-purity — observability never shapes simulation identity
# ----------------------------------------------------------------------
@register_rule
class TelemetryPurityRule(Rule):
    """Telemetry stays off the replay hot path and out of cache keys.

    The telemetry package (:mod:`repro.telemetry`) is an observer: spans,
    metric counters and throughput measurements describe a run, they
    must never *change* one.  Two halves enforce that.  First,
    ``repro/uarch/`` — the replay kernels' inner loops — may not import
    any telemetry module: a span context manager or registry lookup in
    the per-instruction path is both a perf tax and a bit-identity
    hazard, so instrumentation stops at the harness layer (mirroring the
    fault-machinery ban in ``retry-discipline``).  Second, functions
    whose name contains ``fingerprint`` may not reference telemetry
    vocabulary (``telemetry``/``trace_id``/``probe``/
    ``cycles_per_second``/``metrics``): a probed throughput figure or
    trace id in a cache key
    would split bit-identical results across host-dependent keys,
    exactly the duplication ``fingerprint-purity`` exists to prevent for
    engines.
    """

    rule_id = "telemetry-purity"
    contract = (
        "repro/uarch/ never imports repro.telemetry (spans/metrics/probes "
        "stay off the replay hot path); telemetry vocabulary never flows "
        "into fingerprint construction (observations are not identity)"
    )

    IMPURE_TOKENS = ("telemetry", "trace_id", "probe", "cycles_per_second", "metrics")

    def check(self, tree: ast.AST, path: str) -> Iterable[Finding]:
        in_uarch = "repro/uarch/" in path
        for node in ast.walk(tree):
            if in_uarch and isinstance(node, (ast.Import, ast.ImportFrom)):
                # import repro.telemetry / from repro.telemetry import
                # trend / from repro.telemetry.trend import ... all count.
                module_names = [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom):
                    module_names.append(node.module or "")
                if any("telemetry" in name.split(".") for name in module_names):
                    yield self.finding(
                        node,
                        path,
                        "telemetry imported into the replay core; spans and "
                        "metric registries stay at the harness layer so the "
                        "per-instruction loop pays zero observability tax "
                        "and stats remain bit-identical when tracing is on",
                    )
        for function in _walk_functions(tree):
            if "fingerprint" not in function.name.lower():
                continue
            yield from self._check_fingerprint(function, path)

    def _check_fingerprint(self, function: ast.AST, path: str) -> Iterator[Finding]:
        body = function.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and _string_constant(body[0].value) is not None
        ):
            body = body[1:]  # prose may mention the contract by name
        for arg in ast.walk(function):
            if isinstance(arg, ast.arg) and self._impure(arg.arg):
                yield self.finding(
                    arg,
                    path,
                    f"fingerprint function {function.name!r} takes telemetry "
                    f"parameter {arg.arg!r}; observations must not enter "
                    "cache keys",
                )
        for statement in body:
            for node in ast.walk(statement):
                label: Optional[str] = None
                if isinstance(node, ast.Name) and self._impure(node.id):
                    label = node.id
                elif isinstance(node, ast.Attribute) and self._impure(node.attr):
                    label = node.attr
                elif isinstance(node, ast.keyword) and node.arg and self._impure(node.arg):
                    label = node.arg
                elif isinstance(node, ast.Dict):
                    for key in node.keys:
                        text = _string_constant(key)
                        if text is not None and self._impure(text):
                            yield self.finding(
                                key,
                                path,
                                f"dict key {text!r} inside fingerprint "
                                f"function {function.name!r} injects a "
                                "telemetry value into the cache key",
                            )
                    continue
                if label is not None:
                    yield self.finding(
                        node,
                        path,
                        f"telemetry identifier {label!r} referenced inside "
                        f"fingerprint function {function.name!r}; spans, "
                        "probes and metric values are observations, not "
                        "identity, and must not enter cache keys",
                    )

    def _impure(self, name: str) -> bool:
        lowered = name.lower()
        return any(token in lowered for token in self.IMPURE_TOKENS)
