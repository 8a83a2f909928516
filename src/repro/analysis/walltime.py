"""R006: wall-clock isolation — host-clock reads only in ``repro.obs``.

The simulators deal exclusively in *simulated* time: every latency,
wait and makespan is derived from the closed-form model, so reruns are
bit-identical and results never depend on the speed of the machine
that produced them.  A stray ``time.time()`` or ``time.perf_counter()``
in model code silently breaks that promise (and poisons cache keys and
golden outputs with host-dependent values).

Host-clock reads are therefore quarantined to the sanctioned homes:

* ``src/repro/obs/`` — the self-profiling layer
  (:mod:`repro.obs.profile`) exists precisely to measure the harness's
  own wall-clock cost;
* ``src/repro/experiments/run_all.py`` — the top-level driver, which
  prints each experiment's render time in its banner.

Everywhere else under ``src/repro``, calls to ``time.time``,
``time.perf_counter`` (and ``_ns`` variants), ``time.monotonic``,
``time.process_time``, ``time.thread_time`` and
``datetime.datetime.now`` / ``utcnow`` / ``today`` are flagged —
whether spelled through the module (``time.monotonic()``) or imported
bare (``from time import perf_counter``).  ``time.sleep`` is not a
clock *read* and is left alone.  Test files are not linted.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Module, Project, Rule, register

#: ``time`` module attributes that read the host clock.
_TIME_CLOCKS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "thread_time",
    "thread_time_ns", "clock_gettime", "clock_gettime_ns",
}

#: ``datetime.datetime`` constructors that read the host clock.
_DATETIME_CLOCKS = {"now", "utcnow", "today"}

#: Path prefixes / files where host-clock reads are sanctioned.
_ALLOWED_PREFIXES = ("src/repro/obs/",)
_ALLOWED_FILES = ("src/repro/experiments/run_all.py",)


def _dotted(node: ast.expr) -> list[str]:
    """Attribute chain as names, e.g. ``time.perf_counter`` -> [time, perf_counter]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def _allowed(rel: str) -> bool:
    return rel in _ALLOWED_FILES \
        or any(rel.startswith(prefix) for prefix in _ALLOWED_PREFIXES)


def _bare_clock_imports(module: Module) -> set[str]:
    """Names bound by ``from time import <clock>`` (including aliases)."""
    names: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _TIME_CLOCKS:
                    names.add(alias.asname or alias.name)
    return names


@register
class WalltimeRule(Rule):
    """Flag host-clock reads outside the observability layer."""

    rule_id = "R006"
    title = "wall-clock isolation (host clocks live in repro.obs)"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if _allowed(module.rel):
                continue
            bare = _bare_clock_imports(module)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = self._clock_name(node, bare)
                if name is None:
                    continue
                yield Finding(
                    rule_id=self.rule_id, path=module.rel,
                    line=node.lineno,
                    message=f"host-clock read '{name}' outside repro.obs",
                    hint="simulators must use simulated time only; "
                         "wall-clock profiling belongs in "
                         "repro.obs.Profiler (or pass timings in)")

    def _clock_name(self, node: ast.Call, bare: set[str]) -> str | None:
        chain = _dotted(node.func)
        if not chain:
            return None
        if len(chain) == 2 and chain[0] == "time" \
                and chain[1] in _TIME_CLOCKS:
            return ".".join(chain)
        # from time import perf_counter [as pc]; pc()
        if len(chain) == 1 and chain[0] in bare:
            return chain[0]
        # datetime.now() / datetime.datetime.utcnow() / date.today()
        if len(chain) >= 2 and chain[-1] in _DATETIME_CLOCKS \
                and chain[-2] in ("datetime", "date"):
            return ".".join(chain)
        return None
