"""Generate a Markdown API index from the library's docstrings.

``python -m repro.tools.apidocs > docs/API.md`` (or the checked-in copy
under ``docs/``) produces guide sections (full module docstrings for the
subsystems that need narrative docs) followed by one section per module
with the first docstring line of every public class, method, and
function — a browsable map of the library without a docs toolchain.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from typing import Iterator, List

#: Narrative guide sections: (heading, module(s) whose full docstring is
#: the guide text).  Kept as docstrings so the guides cannot drift from
#: code.  A tuple of module names concatenates their docstrings.
GUIDES = [
    ("Configuration: one default per axis", "repro.core.config"),
    ("Execution backends", "repro.exec"),
    ("Oblivious kernels", "repro.oblivious.kernels"),
    ("Tickets", "repro.core.tickets"),
    (
        "Epoch pipelining",
        ("repro.core.pipeline", "repro.telemetry.overlap"),
    ),
    (
        "Fault tolerance & chaos testing",
        ("repro.core.resilience", "repro.core.faults"),
    ),
    ("Telemetry", "repro.telemetry"),
    ("The SnoopyClient protocol", "repro.core.client"),
    (
        "The network front door",
        ("repro.serve", "repro.serve.server", "repro.serve.workers",
         "repro.serve.secure"),
    ),
    (
        "Store crypto & zero-copy state",
        ("repro.crypto.aead", "repro.crypto.vector",
         "repro.suboram.store"),
    ),
    (
        "Workloads & trace replay",
        ("repro.workloads", "repro.workloads.trace",
         "repro.workloads.tuner"),
    ),
]


def _first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.strip().splitlines()[0] if doc.strip() else ""


def _iter_modules() -> Iterator:
    import repro

    yield repro
    for info in sorted(
        pkgutil.walk_packages(repro.__path__, "repro."), key=lambda i: i.name
    ):
        yield importlib.import_module(info.name)


def _is_function_like(member) -> bool:
    # lru_cache and similar functools wrappers are still API functions.
    return inspect.isfunction(member) or inspect.isfunction(
        getattr(member, "__wrapped__", None)
    )


def _public_defs(module):
    for name in sorted(vars(module)):
        member = vars(module)[name]
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(member) or _is_function_like(member):
            yield name, member


def generate() -> str:
    """Render the API index as Markdown text."""
    lines: List[str] = [
        "# API index",
        "",
        "Generated from docstrings by `python -m repro.tools.apidocs`.",
        "",
    ]
    for title, module_names in GUIDES:
        if isinstance(module_names, str):
            module_names = (module_names,)
        lines.append(f"## {title}")
        lines.append("")
        for module_name in module_names:
            module = importlib.import_module(module_name)
            lines.append(inspect.getdoc(module) or "")
            lines.append("")
    for module in _iter_modules():
        entries = list(_public_defs(module))
        if not entries and module.__name__ != "repro":
            continue
        lines.append(f"## `{module.__name__}`")
        lines.append("")
        summary = _first_line(module)
        if summary:
            lines.append(summary)
            lines.append("")
        for name, member in entries:
            kind = "class" if inspect.isclass(member) else "def"
            lines.append(f"- **`{kind} {name}`** — {_first_line(member)}")
            if inspect.isclass(member):
                for method_name in sorted(vars(member)):
                    if method_name.startswith("_"):
                        continue
                    method = vars(member)[method_name]
                    target = (
                        method.fget if isinstance(method, property) else method
                    )
                    if not (inspect.isfunction(target)):
                        continue
                    marker = "property " if isinstance(method, property) else ""
                    lines.append(
                        f"  - `{marker}{method_name}` — {_first_line(target)}"
                    )
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    """Print the API index to stdout."""
    print(generate())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
