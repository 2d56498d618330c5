#!/usr/bin/env python
"""Enforce the import-layering contract of the hierarchy-engine refactor.

Layering (DESIGN.md, engine section):

* ``repro.graph``, ``repro.errors``, ``repro.kernels`` — foundation; must
  not import the engine or any family package.
* ``repro.kernels._native_impl`` — the python bodies of the compiled loop
  kernels: a leaf that imports numpy at most and no ``repro`` module at
  all, not even its ``kernels`` siblings.  ``native_backend`` and
  ``_native_cc`` take nothing from ``repro`` outside ``kernels`` but the
  ``obs`` leaf.
* ``repro.engine`` — the generic layer; must not import any family
  package statically (built-ins bootstrap lazily via ``importlib`` inside
  function bodies, which this checker intentionally does not whitelist
  away: it only inspects ``import``/``from`` statements).
* family packages (``repro.core``, ``repro.truss``, ``repro.weighted``,
  ``repro.ecc``) — may depend on ``engine``, ``kernels``, ``graph``,
  ``errors``, ``generators`` — and NEVER on each other.
* ``repro.parallel`` — execution plumbing above the foundation but below
  the index: may use ``graph``/``errors``, must not import ``kernels``,
  the engine, a family package, or anything higher (families never fan
  themselves out; only ``repro.index`` and the apps layer schedule
  work).
* ``repro.dynamic`` — the mutability seam, a sibling of ``parallel``:
  may use ``graph``/``errors``/``kernels``/``obs`` (the rebuild fallback
  dispatches through the kernel registry, never through a family), must
  not import the engine, a family package, ``parallel`` or ``index``.
  Conversely no family ever imports it — incremental maintenance is
  consumed from above, by ``repro.index.BestKIndex.apply``.
* ``repro.obs`` — the observability leaf: stdlib only, must not import
  *anything* from ``repro``.  Conversely the family packages, ``graph``
  and ``errors`` must never import it — algorithm code stays free of
  instrumentation; spans are emitted by the infrastructure layers that
  call it (``kernels``, ``engine``, ``parallel``, ``index``, ``bench``,
  ``cli``).
* ``repro.scenarios`` — the self-measurement harness, directly below the
  CLI: may import ``obs``, ``engine``, ``index``, ``bench``, ``dynamic``
  and the generators, but never ``cli``/``apps``/``viz`` — and no family,
  kernel, engine or plumbing package may import it back (it is in every
  lower layer's forbidden list via ``ALL_LAYERS``).
* ``repro.index`` — the shared best-k index: may use the engine and
  everything below it, but never a family package; families reach it
  only through the :class:`~repro.engine.HierarchyFamily` hooks.
* everything else (``apps``, ``bench``, ``cli``, ``external``, ...) —
  higher layers, unconstrained.

The check is AST-based and covers module-level *and* function-local
``import x`` / ``from x import y`` statements, including relative imports,
so a lazy ``from ..core import ...`` inside a function still counts.

Exit status 0 when the contract holds, 1 with a violation listing
otherwise.  Run from the repository root::

    python scripts/check_imports.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = "repro"

FAMILY_PACKAGES = ("core", "truss", "weighted", "ecc")

#: every repro subpackage with layering significance; ``obs`` may import
#: none of them (it is a stdlib-only leaf).
ALL_LAYERS = (
    "graph", "errors", "kernels", "engine", "parallel", "dynamic", "index",
    "apps", "bench", "cli", "generators", "viz", "scenarios",
) + FAMILY_PACKAGES

#: every top-level module and subpackage of repro, for leaves that may
#: import none of them.
EVERY_SUBPACKAGE = tuple(sorted(
    path.stem for path in (SRC / PACKAGE).iterdir()
    if path.name != "__init__.py"
    and (path.suffix == ".py" or (path / "__init__.py").is_file())
))

#: subpackage -> the repro subpackages it must never import.
FORBIDDEN: dict[str, tuple[str, ...]] = {
    "obs": ALL_LAYERS,
    "graph": ("engine", "parallel", "dynamic", "index", "apps", "bench", "cli", "obs",
              "scenarios")
    + FAMILY_PACKAGES,
    "errors": ("engine", "parallel", "dynamic", "index", "apps", "bench", "cli", "obs",
               "scenarios")
    + FAMILY_PACKAGES,
    "kernels": ("engine", "parallel", "dynamic", "index", "apps", "bench", "cli",
                "scenarios")
    + FAMILY_PACKAGES,
    "engine": FAMILY_PACKAGES
    + ("parallel", "dynamic", "index", "apps", "bench", "cli", "scenarios"),
    "parallel": FAMILY_PACKAGES
    + ("kernels", "engine", "dynamic", "index", "apps", "bench", "cli", "scenarios"),
    "dynamic": FAMILY_PACKAGES
    + ("engine", "parallel", "index", "apps", "bench", "cli", "scenarios"),
    # The shared index serves every family through the engine's artifact
    # chain and family hooks alone, so it can never grow a family-specific
    # path again.
    "index": FAMILY_PACKAGES,
    # The self-measurement harness sits above the whole execution stack:
    # it may reach down into obs/engine/index/bench/dynamic, but never
    # sideways into the CLI (the CLI fronts it, not the reverse).
    "scenarios": ("cli", "apps", "viz"),
}
for _family in FAMILY_PACKAGES:
    FORBIDDEN[_family] = tuple(f for f in FAMILY_PACKAGES if f != _family) + (
        "parallel", "dynamic", "index", "apps", "bench", "cli", "obs", "scenarios",
    )

#: full module name -> repro subpackages that *specific module* must not
#: import, on top of its package's FORBIDDEN entry.
FORBIDDEN_MODULES: dict[str, tuple[str, ...]] = {
    # The native backend and its C module are self-contained: raw arrays
    # in, raw arrays out, nothing from repro outside the kernels package
    # (obs, the stdlib-only leaf, is the one sanctioned import — the
    # fallback counter must be visible).  Keeps the compiled seam
    # trivially portable: the ctypes boundary sees only raw arrays.
    "repro.kernels.native_backend": ("graph", "errors", "generators", "viz"),
    # The loop twins are the C unit's python bodies: plain loops over the
    # raw arrays they are handed, importing nothing from repro.
    "repro.kernels._native_impl": EVERY_SUBPACKAGE,
    "repro.kernels._native_cc": ("graph", "errors", "generators", "viz"),
}


def module_name(path: Path) -> str:
    """Dotted module name of a source file under ``src/``."""
    rel = path.relative_to(SRC).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def resolve_relative(module: str, node: ast.ImportFrom, is_package: bool) -> str | None:
    """Absolute dotted target of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    # A package's own __init__ counts as one level deeper than its name.
    anchor = parts if is_package else parts[:-1]
    up = node.level - 1
    if up > len(anchor):
        return None
    base = anchor[: len(anchor) - up]
    return ".".join(base + [node.module]) if node.module else ".".join(base)


def imported_targets(path: Path) -> list[tuple[int, str]]:
    """All (lineno, absolute dotted target) imports in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    module = module_name(path)
    is_package = path.name == "__init__.py"
    out: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            target = resolve_relative(module, node, is_package)
            if target is None:
                continue
            out.append((node.lineno, target))
            # ``from ..pkg import sub`` may bind submodules too; record them
            # so ``from .. import core`` inside repro.truss is caught.
            for alias in node.names:
                out.append((node.lineno, f"{target}.{alias.name}"))
    return out


def owning_subpackage(dotted: str) -> str | None:
    """The repro subpackage a dotted module belongs to, if any."""
    parts = dotted.split(".")
    if len(parts) >= 2 and parts[0] == PACKAGE:
        return parts[1]
    return None


def check() -> list[str]:
    violations: list[str] = []
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        mod = module_name(path)
        source_pkg = owning_subpackage(mod + ".x")
        banned = FORBIDDEN.get(source_pkg, ()) + FORBIDDEN_MODULES.get(mod, ())
        if not banned:
            continue
        for lineno, target in imported_targets(path):
            target_pkg = owning_subpackage(target)
            if target_pkg in banned:
                violations.append(
                    f"{path.relative_to(SRC.parent)}:{lineno}: "
                    f"{mod!r} must not import {PACKAGE}.{target_pkg} "
                    f"(got {target})"
                )
    return violations


def main() -> int:
    violations = check()
    if violations:
        print("import-layering contract violated:")
        for line in violations:
            print(f"  {line}")
        return 1
    checked = ", ".join(sorted(FORBIDDEN))
    print(f"import-layering contract holds for: {checked}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
