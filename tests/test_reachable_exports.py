"""Every exported name must be reachable from outside its own module.

A name listed in some ``repro.*`` ``__all__`` is public API.  If the
only code that mentions it is its own module, a package ``__init__.py``
re-exporting it, or ``tests/``, then no experiment, benchmark or example
reaches it: it is dead weight that still has to be read, documented and
kept passing.

The check is static.  It compiles the Python sources under ``src/``,
``benchmarks/`` (including ``benchmarks/e2e``) and ``examples/`` and
reads the names their bytecode loads: globals, attributes and imported
names, never strings, docstrings or comments.  Inside a module, a
top-level function, class or constant is *live* when another scanned
file (not a package ``__init__.py``) names it, when module-level code
(which runs at import) names it, or when a live definition of the same
module names it; a method is live when its class is live and its name
appears in another scanned file or in a live definition.  An export
whose definition is not live fails the test, named with its module.  So
``AnyOf``, used only by a ``Simulator.any_of`` that only tests call, is
dead, while a result type built by a live function is not.

A name may stay without such a caller only through :data:`ALLOWED`,
with the reason it earns its lines.
"""

import ast
import dis
import re
from pathlib import Path
from types import CodeType
from typing import Callable, Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SCANNED = (ROOT / "src", ROOT / "benchmarks", ROOT / "examples")

#: Exports kept without an outside caller, each with its reason.
ALLOWED: Dict[str, str] = {
    "Interrupt": "raised by Process.interrupt, the kernel's process "
    "cancellation; the SimPy-style process API keeps it",
    "mm1_mean_rt": "analytic M/M/1 reference that "
    "tests/test_integration.py checks the single-station simulation against",
    "row_slots": "documented reader of the packed span-row layout; the "
    "columnar packing test walks adopted arrays with it",
    "run_fig2": "the package docstring's quickstart entry point (one Fig 2 "
    "panel)",
    # Unreached as well; each group still has unit tests of its own and
    # is deleted together with them (ROADMAP, "Delete what nothing
    # reaches").
    "AllOf": "pending deletion with Simulator.all_of and its kernel tests",
    "AnyOf": "pending deletion with Simulator.any_of and its kernel tests",
    "Container": "pending deletion with its tests",
    "KalmanFilter": "pending deletion with its tests",
    "PIController": "pending deletion with its tests",
    "RttEstimator": "pending deletion with its tests",
    "Store": "pending deletion with its tests",
    "amplification_factors": "pending deletion with its tests",
    "mm1_mean_queue": "pending deletion with its tests",
    "mm1_rt_percentile": "pending deletion with its tests",
    "mm1_utilization": "pending deletion with its tests",
    "mm1k_blocking": "pending deletion with its tests",
    "mmc_erlang_c": "pending deletion with mmc_mean_rt and its tests",
    "mmc_mean_rt": "pending deletion with its tests",
    "predicted_percentile_curve": "pending deletion with its tests",
    "tandem_mean_rt": "pending deletion with its tests",
}

#: ("name",) for a top-level definition, ("Class", "method") for a method.
Key = Tuple[str, ...]

_ALL = re.compile(r"^__all__ = (\[.*?\])", re.MULTILINE | re.DOTALL)
_ENTRY_POINT = re.compile(r"^[a-z_][\w.]*:(\w+)$")
_IMPORTS = {"IMPORT_NAME", "IMPORT_FROM"}
#: CO_OPTIMIZED | CO_NEWLOCALS: set on function code, not on class bodies.
_FUNCTION = 0x3


def _python_files() -> Iterator[Path]:
    for top in SCANNED:
        yield from sorted(top.rglob("*.py"))


def _names(code: CodeType) -> Set[str]:
    """Every name ``code`` and the code nested in it refer to.

    A ``"package.module:function"`` string constant, the form of the
    sweep engine's lazily imported cell entry points, names
    ``function``.
    """
    found = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            found |= _names(const)
        elif isinstance(const, str):
            entry = _ENTRY_POINT.match(const)
            if entry:
                found.add(entry.group(1))
    return found


def _loads(code: CodeType) -> Tuple[Set[str], List[str]]:
    """Names one body reads, and the names it binds other than imports."""
    loaded: Set[str] = set()
    stored: List[str] = []
    previous = ""
    for ins in dis.get_instructions(code):
        if ins.opname == "STORE_NAME":
            if previous not in _IMPORTS:
                stored.append(ins.argval)
        elif isinstance(ins.argval, str) and ins.opname not in _IMPORTS and (
            "NAME" in ins.opname or "GLOBAL" in ins.opname or "ATTR" in ins.opname
            or ins.opname == "LOAD_METHOD"
        ):
            loaded.add(ins.argval)
        previous = ins.opname
    return loaded, stored


class _Module:
    """Top-level definitions of one module and what each one names."""

    def __init__(self, source: str, code: CodeType):
        match = _ALL.search(source)
        self.exports: Tuple[str, ...] = (
            tuple(ast.literal_eval(match.group(1))) if match else ()
        )
        self.refs: Dict[Key, Set[str]] = {}
        self.roots, stored = _loads(code)
        for name in stored:
            self.refs.setdefault((name,), set())
        self.roots.discard("__all__")
        for const in code.co_consts:
            if not isinstance(const, CodeType):
                continue
            if const.co_name.startswith("<"):  # a lambda or comprehension
                self.roots |= _names(const)
            elif const.co_flags & _FUNCTION:
                self.refs[(const.co_name,)] = _names(const)
            else:
                self._add_class(const)

    def _add_class(self, body: CodeType) -> None:
        own, _ = _loads(body)
        for const in body.co_consts:
            if not isinstance(const, CodeType):
                continue
            if const.co_name.startswith("<"):
                own |= _names(const)
            else:
                self.refs[(body.co_name, const.co_name)] = _names(const)
        self.refs[(body.co_name,)] = own

    def live(self, outside: Callable[[str], bool]) -> Set[Key]:
        """Definitions reachable from names ``outside(name)`` accepts."""
        named = set(self.roots)
        live: Set[Key] = set()
        changed = True
        while changed:
            changed = False
            for key, refs in self.refs.items():
                if key in live:
                    continue
                name = key[-1]
                if len(key) == 1:
                    reached = name in named or outside(name)
                else:
                    reached = (key[0],) in live and (
                        name in named
                        or outside(name)
                        or (name.startswith("__") and name.endswith("__"))
                    )
                if reached:
                    live.add(key)
                    named |= refs
                    changed = True
        return live


def unreferenced_exports() -> Dict[str, str]:
    """``{name: defining module}`` for every export nothing else reaches."""
    users: Dict[str, Set[Path]] = {}
    modules: Dict[Path, _Module] = {}
    for path in _python_files():
        source = path.read_text()
        code = compile(source, str(path), "exec", dont_inherit=True)
        if path.name == "__init__.py":
            modules[path] = _Module(source, code)
            continue
        for name in _names(code):
            users.setdefault(name, set()).add(path)
        if PACKAGE in path.parents:
            modules[path] = _Module(source, code)
    definers: Dict[str, List[Tuple[Path, bool]]] = {}
    for path, module in modules.items():
        if path.name == "__init__.py":
            continue
        live = module.live(
            lambda name: len(users.get(name, ())) > (path in users.get(name, ()))
        )
        for key in module.refs:
            if len(key) == 1:
                definers.setdefault(key[0], []).append((path, key in live))
    dead: Dict[str, str] = {}
    for module in modules.values():
        for name in module.exports:
            homes = definers.get(name, [])
            if homes and not any(is_live for _, is_live in homes):
                dead[name] = str(homes[0][0].relative_to(ROOT / "src"))
    return dead


def test_every_export_is_reached_from_outside_its_module():
    dead = {
        name: home
        for name, home in unreferenced_exports().items()
        if name not in ALLOWED
    }
    assert not dead, "exports reached only from their own module or tests:\n" + "\n".join(
        f"  {home}: {name}" for name, home in sorted(dead.items(), key=lambda kv: kv[::-1])
    )


def test_allow_list_entries_are_still_needed():
    dead = unreferenced_exports()
    stale = sorted(name for name in ALLOWED if name not in dead)
    assert not stale, f"allow-listed exports now have callers: {stale}"
