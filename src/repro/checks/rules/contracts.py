"""Project-contract rule: fault-site parity.

The rule is cross-file and *semantic*: it reconstructs the pipeline's
fault-site registry from the code under analysis and diffs it against
the hook sites.  It runs against the
:class:`~repro.checks.project.ProjectIndex` facts (not the ASTs), so a
warm incremental run checks it without re-parsing a single unchanged
file.  (Stage-cache fingerprint coverage needs no rule: every
``IndiceConfig`` field declares its stages, and an untagged field fails
at import — see :mod:`repro.core.config`.)

* **FAULT001** — every site registered in ``KNOWN_SITES`` must have an
  ``injector.arrive(SITE)`` / ``injector.fire(SITE)`` call site, and every
  call site must use a registered site.  A registered-but-unhooked site is
  a chaos plan that silently never fires; an unregistered call site is an
  injection point no plan can reach.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..model import Finding, Rule, register

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, types only
    from ..project import FileSummary, ProjectIndex

__all__ = ["FaultSiteParity"]


@register
class FaultSiteParity(Rule):
    """FAULT001 — KNOWN_SITES registry vs. arrive()/fire() hook sites."""

    code = "FAULT001"
    name = "fault-site-parity"
    rationale = (
        "a KNOWN_SITES entry with no arrive()/fire() hook is a chaos rule "
        "that silently never fires; an unregistered hook is unreachable "
        "by any FaultPlan"
    )

    #: Methods whose first argument names an injection site.
    hook_methods = ("arrive", "fire")

    def check_index(self, index: "ProjectIndex") -> Iterator[Finding]:
        """Diff the site registry against the hook call sites."""
        registry_summary: "FileSummary | None" = None
        registry_line = 0
        registered: tuple[str, ...] = ()
        const_names: dict[str, str] = {}

        for summary in index.summaries:
            entry = summary.facts.get("string_tuples", {}).get("KNOWN_SITES")
            if entry is None:
                continue
            constants = summary.facts.get("string_consts", {})
            registry_summary, registry_line = summary, entry["lineno"]
            literal_values = tuple(entry["values"])
            named_values = tuple(
                constants[ref]
                for ref in entry.get("name_refs", ())
                if ref in constants
            )
            registered = literal_values or named_values
            const_names.update(constants)
        if registry_summary is None:
            return  # no site registry in this file set

        called: dict[str, list[tuple]] = {}
        for summary in index.summaries:
            for method, site, ref, lineno, col in summary.facts.get(
                "hook_calls", ()
            ):
                if method not in self.hook_methods:
                    continue
                resolved = site or const_names.get(ref)
                if not resolved:
                    continue
                called.setdefault(resolved, []).append((summary, lineno, col))

        for site in registered:
            if site not in called:
                yield Finding(
                    registry_summary.display, registry_line, 0, self.code,
                    f"registered fault site '{site}' has no arrive()/fire() "
                    "call site; a plan naming it would silently never fire",
                )
        for site in sorted(called):
            if site in registered:
                continue
            for summary, lineno, col in called[site]:
                yield Finding(
                    summary.display, lineno, col, self.code,
                    f"injection call site uses unregistered fault site "
                    f"'{site}'; add it to KNOWN_SITES so plans can target "
                    "(and validators can accept) it",
                )
