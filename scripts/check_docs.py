#!/usr/bin/env python
"""Docs smoke check: render the serving API and verify links and names.

Four checks, all intended for CI (which also uploads ``docs/`` plus the
rendered API text as a workflow artifact):

* **pydoc render** — import every ``repro.serving``, ``repro.privacy``
  and ``repro.telemetry`` module and render its documentation with
  :mod:`pydoc` into
  ``build/docs-api/``.  This catches signature drift the moment it
  happens: a public class/function whose import breaks, or whose
  docstring disappears, fails the build.  Public API members (everything
  in each package's ``__all__`` and the public methods of exported
  classes) must carry docstrings.
* **link check** — every *relative* markdown link in ``README.md`` and
  ``docs/*.md`` must resolve to an existing file (external http(s) links
  are not fetched).  Dead links fail the build.
* **attribute names** — every backticked `` `ServingConfig.<name>` ``,
  `` `ServiceStats.<name>` ``, `` `EnsemblerConfig.<name>` `` or
  `` `ExperimentPreset.<name>` `` in the same files must name a real
  attribute of that class, so a deleted config knob or stats counter
  cannot linger in the docs.
* **scheduler names** — every ``scheduler="<name>"`` in the same files
  must be a ``SCHEDULERS`` registry key, and every backticked
  `` `<Name>Scheduler` `` must be exported by ``repro.serving``, so a
  deleted policy or alias cannot linger in the docs either.

Usage: ``python scripts/check_docs.py``
"""

import dataclasses
import inspect
import pydoc
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SERVING_MODULES = (
    "repro.nn.arena",
    "repro.serving",
    "repro.serving.autoscale",
    "repro.serving.checkpoint",
    "repro.serving.errors",
    "repro.serving.faults",
    "repro.serving.fleet",
    "repro.serving.overload",
    "repro.serving.protocol",
    "repro.serving.scheduler",
    "repro.serving.service",
    "repro.serving.session",
    "repro.serving.simulate",
    "repro.serving.traffic",
    "repro.privacy",
    "repro.privacy.accountant",
    "repro.privacy.budget",
    "repro.privacy.rotation",
    "repro.telemetry",
    "repro.telemetry.metrics",
    "repro.telemetry.sketch",
)

#: Packages whose ``__all__`` (and exported classes' public methods) must
#: carry docstrings.
API_PACKAGES = ("repro.serving", "repro.privacy", "repro.telemetry")

RENDER_DIR = REPO_ROOT / "build" / "docs-api"

#: markdown inline links: [text](target); images and reference-style
#: definitions resolve through the same pattern.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: backticked ``<Class>.<name>`` references to the checked config/stats classes.
_ATTRIBUTE_REF = re.compile(
    r"`(ServingConfig|ServiceStats|EnsemblerConfig|ExperimentPreset)"
    r"\.([A-Za-z_]\w*)")

#: ``scheduler="<name>"`` selections and backticked ``<Name>Scheduler``
#: class names.
_SCHEDULER_NAME = re.compile(r'scheduler="([^"]*)"')
_SCHEDULER_CLASS = re.compile(r"`(\w*Scheduler)`")


def render_api_docs(render_dir: Path = RENDER_DIR) -> list[str]:
    """Pydoc-render the serving modules; returns failure messages."""
    failures = []
    render_dir.mkdir(parents=True, exist_ok=True)
    for name in SERVING_MODULES:
        try:
            module = __import__(name, fromlist=["_"])
            text = pydoc.render_doc(module, renderer=pydoc.plaintext)
        except Exception as exc:  # import or render breakage is the point
            failures.append(f"pydoc render failed for {name}: {exc!r}")
            continue
        out = render_dir / (name.replace(".", "_") + ".txt")
        out.write_text(text)
        shown = (out.relative_to(REPO_ROOT)
                 if out.is_relative_to(REPO_ROOT) else out)
        print(f"rendered {name} -> {shown} ({len(text.splitlines())} lines)")
    return failures


def check_public_docstrings() -> list[str]:
    """Every exported API symbol (and its public methods) has a doc."""
    failures = []
    for package_name in API_PACKAGES:
        package = __import__(package_name, fromlist=["_"])
        for symbol in package.__all__:
            obj = getattr(package, symbol)
            if not inspect.isclass(obj) and not callable(obj):
                continue  # constants (SCHEDULERS, WIRE_VERSION, PRIVACY_LADDER)
            if not inspect.getdoc(obj):
                failures.append(f"{package_name}.{symbol} has no docstring")
            if inspect.isclass(obj):
                for name, member in inspect.getmembers(obj):
                    if name.startswith("_") or not callable(member):
                        continue
                    if name in vars(obj) and not inspect.getdoc(member):
                        failures.append(
                            f"{package_name}.{symbol}.{name} has no docstring")
    return failures


def _iter_doc_files() -> list[Path]:
    return [REPO_ROOT / "README.md",
            *sorted((REPO_ROOT / "docs").glob("*.md"))]


def check_links() -> list[str]:
    """Relative markdown links in README/docs must resolve; returns failures."""
    failures = []
    for doc in _iter_doc_files():
        if not doc.exists():
            failures.append(f"missing documentation file: {doc.name}")
            continue
        for target in _LINK.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]  # drop in-page anchors
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                failures.append(
                    f"{doc.relative_to(REPO_ROOT)}: dead relative link "
                    f"'{target}'")
    return failures


def stale_attribute_refs(text: str) -> list[str]:
    """The ``Class.name`` references in ``text`` that name no attribute
    (dataclass field, property or method) of ``Class``."""
    from repro.core.training import EnsemblerConfig
    from repro.experiments.common import ExperimentPreset
    from repro.serving.service import ServiceStats, ServingConfig
    classes = {"ServingConfig": ServingConfig, "ServiceStats": ServiceStats,
               "EnsemblerConfig": EnsemblerConfig,
               "ExperimentPreset": ExperimentPreset}
    stale = []
    for class_name, attr in _ATTRIBUTE_REF.findall(text):
        cls = classes[class_name]
        fields = {field.name for field in dataclasses.fields(cls)}
        if attr not in fields and not hasattr(cls, attr):
            stale.append(f"{class_name}.{attr}")
    return stale


def check_attribute_refs() -> list[str]:
    """Config/stats names in README/docs must exist; returns failures."""
    failures = []
    for doc in _iter_doc_files():
        if not doc.exists():
            continue  # reported by check_links
        for ref in stale_attribute_refs(doc.read_text()):
            failures.append(f"{doc.relative_to(REPO_ROOT)}: `{ref}` names "
                            f"no attribute of that class")
    return failures


def stale_scheduler_refs(text: str) -> list[str]:
    """The scheduler names in ``text`` that are not registered
    (``scheduler="<name>"``) or not exported (`` `<Name>Scheduler` ``)."""
    import repro.serving as serving
    stale = [f'scheduler="{name}"' for name in _SCHEDULER_NAME.findall(text)
             if name not in serving.SCHEDULERS]
    stale += [f"`{name}`" for name in _SCHEDULER_CLASS.findall(text)
              if name not in serving.__all__]
    return stale


def check_scheduler_refs() -> list[str]:
    """Scheduler names in README/docs must exist; returns failures."""
    failures = []
    for doc in _iter_doc_files():
        if not doc.exists():
            continue  # reported by check_links
        for ref in stale_scheduler_refs(doc.read_text()):
            failures.append(f"{doc.relative_to(REPO_ROOT)}: {ref} is not a "
                            f"registered or exported scheduler")
    return failures


def main() -> int:
    failures = (render_api_docs() + check_public_docstrings()
                + check_links() + check_attribute_refs()
                + check_scheduler_refs())
    if failures:
        print("\nDOCS CHECK FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\ndocs check ok: serving and privacy APIs render with full "
          "docstring coverage; all relative links, config/stats "
          "attribute names and scheduler names in README.md and docs/ "
          "resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
