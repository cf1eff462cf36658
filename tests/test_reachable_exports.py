"""Every definition under ``src/repro`` must be reached from outside its module.

A top-level function, class or constant, or a method, is dead weight
when the only code that mentions it is its own module, a package
``__init__.py`` re-exporting it, or ``tests/``: no experiment,
benchmark or example reaches it, yet it still has to be read,
documented and kept passing.

The check is static.  It compiles the Python sources under ``src/``,
``benchmarks/`` (including ``benchmarks/e2e``) and ``examples/`` and
reads the names their bytecode loads: globals, attributes and imported
names, never strings, docstrings or comments.  Annotations are the one
place it reads strings: under ``from __future__ import annotations``
the bytecode keeps each annotation as a string, and a quoted forward
reference is one anyway, so the names of every annotation are parsed
from the syntax tree.  They count as uses by the file that writes them,
never inside their own module: a type alias still needs a use in
another file.  Inside a module:

* A top-level definition is *live* when another scanned file (not a
  package ``__init__.py``) names it, when module-level code that runs
  at import names it, or when a live definition of the same module
  names it.  What a ``def``/``class`` statement or an assignment reads
  itself (decorators, base classes, default values, the assigned
  expression) counts only once its binding is live: a base class that
  only a dead subclass names is dead too.
* A method is live when its class is live and its name appears in
  another scanned file or in a live definition.  Dunder methods of a
  live class are live; every method of a dead class is dead.
* A method the program calls only through a ``getattr`` string (such
  as the kernel hook protocol's ``on_attach``) is not seen, so it needs
  an :data:`ALLOWED` entry.  A ``"package.module:function"`` string
  constant, the form of the sweep engine's lazily imported cell entry
  points, does name ``function``.

A definition may stay without such a caller only through
:data:`ALLOWED`, keyed by module and qualified name, with the reason
it earns its lines.  An allowed definition counts as reached, so what
it calls is live as well.
"""

import ast
import dis
import re
from pathlib import Path
from types import CodeType
from typing import Callable, Dict, Iterable, List, Mapping, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SCANNED = (ROOT / "src", ROOT / "benchmarks", ROOT / "examples")

#: Definitions kept without an outside caller, each with its reason.
ALLOWED: Dict[str, str] = {
    "sim.core.Interrupt": "raised by Process.interrupt, the kernel's "
    "process cancellation; the SimPy-style process API keeps it",
    "sim.core.Process.interrupt": "the kernel's process cancellation, "
    "kept with Interrupt; the kernel and replication-failure tests "
    "interrupt processes with it",
    "sim.core.Event.defuse": "marks a failure handled: the kernel tests "
    "check with it that dispatch re-raises only unhandled failures",
    "sim.core.Event.ok": "kernel tests read an event's outcome with it",
    "sim.core.Simulator.event": "the kernel tests' bare pending event",
    "sim.core.Simulator.defer_in": "tests/_reference_psserver.py, the "
    "reference copy of the PS server, schedules its timers with it",
    "sim.resources.Resource.queued": "the pool tests' oracle of waiting "
    "acquirers, in tests/test_sim_resources.py and tests/test_hybrid.py",
    "sim.psserver.ProcessorSharingServer.work_done": "oracle of served "
    "work in tests/test_reference_equivalence.py",
    "sim.psserver.ProcessorSharingServer.background_load": "oracle of "
    "the fluid coupling in tests/test_reference_equivalence.py and "
    "tests/test_hybrid.py",
    "net.queues.FiniteQueue.in_flight": "oracle of stage occupancy in "
    "the queue-chain equivalence and conservation tests",
    "obs.bus.KernelProfiler.on_attach": "called by name through "
    "getattr by Simulator.attach_hooks, the kernel hook protocol",
    "obs.columnar.ColumnarTrace.depth": "oracle of open spans in "
    "tests/test_obs_columnar.py's equivalence with the object tracer",
    "obs.columnar.row_slots": "documented reader of the packed span-row "
    "layout; the columnar packing test walks adopted arrays with it",
    "experiments.datacenter.DatacenterRun.tier_stat": "oracle of "
    "per-tier conservation across shards in "
    "tests/test_scenario_matrix.py",
    "experiments.fig2.run_fig2": "the package docstring's quickstart "
    "entry point (one Fig 2 panel)",
    "model.mm1.mm1_mean_rt": "analytic M/M/1 reference that "
    "tests/test_integration.py checks the single-station simulation "
    "against",
}

#: ("name",) for a top-level definition, ("Class", "method") for a method.
Key = Tuple[str, ...]
#: A bound name, the names its statement reads and the code it builds.
Binding = Tuple[str, Set[str], List[CodeType]]

_ENTRY_POINT = re.compile(r"^[a-z_][\w.]*:(\w+)$")
_IMPORTS = {"IMPORT_NAME", "IMPORT_FROM"}
#: Opcodes that end a statement binding no name: an expression
#: statement, an attribute or item store, a return.
_STATEMENT_ENDS = {
    "POP_TOP", "STORE_ATTR", "STORE_SUBSCR", "RETURN_VALUE", "RETURN_CONST",
}
#: CO_OPTIMIZED | CO_NEWLOCALS: set on function code, not on class bodies.
_FUNCTION = 0x3


def _entry_point(const: object) -> str:
    """``function`` of a ``"package.module:function"`` string, else ``""``."""
    match = _ENTRY_POINT.match(const) if isinstance(const, str) else None
    return match.group(1) if match else ""


def _names(code: CodeType) -> Set[str]:
    """Every name ``code`` and the code nested in it refer to."""
    found = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            found |= _names(const)
        elif _entry_point(const):
            found.add(_entry_point(const))
    return found


def _annotation_names(tree: ast.AST) -> Set[str]:
    """The names and attributes every annotation in ``tree`` mentions.

    A string inside an annotation (the whole annotation or a part such
    as ``Optional["Tier"]``) is parsed as an expression in turn.
    """
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.append(node.returns)
            annotations.extend(
                arg.annotation
                for arg in args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]
                if arg is not None
            )
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    found: Set[str] = set()
    pending = [a for a in annotations if a is not None]
    while pending:
        for node in ast.walk(pending.pop()):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    pending.append(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    return found


def _reads(ins: dis.Instruction) -> bool:
    """Whether ``ins`` names a global, module-level or attribute name.

    Opcode names differ between versions (3.11 has ``LOAD_METHOD``,
    3.12 folds it into ``LOAD_ATTR``); matching on the name parts
    covers both.
    """
    name = ins.opname
    return (
        isinstance(ins.argval, str)
        and name not in _IMPORTS
        and ("NAME" in name or "GLOBAL" in name or "ATTR" in name
             or name == "LOAD_METHOD")
    )


def _bindings(code: CodeType) -> Tuple[Set[str], List[Binding]]:
    """Split one body into what its bindings read and what the rest reads.

    Returns ``(loose, bound)``.  ``bound`` lists, per ``STORE_NAME``
    other than an import, the bound name with the names read and the
    code objects built since the previous binding or discarded value;
    ``loose`` holds the names every other statement reads.
    """
    loose: Set[str] = set()
    bound: List[Binding] = []
    names: Set[str] = set()
    codes: List[CodeType] = []
    previous = ""
    for ins in dis.get_instructions(code):
        op = ins.opname
        if op == "STORE_NAME":
            if previous not in _IMPORTS:
                bound.append((ins.argval, names, codes))
            names, codes = set(), []
        elif isinstance(ins.argval, CodeType):
            codes.append(ins.argval)
        elif _reads(ins):
            names.add(ins.argval)
        elif _entry_point(ins.argval):
            names.add(_entry_point(ins.argval))
        if op in _STATEMENT_ENDS:
            # A statement that binds no name: what it read runs at
            # import whatever else is live.
            loose |= names
            for nested in codes:
                loose |= _names(nested)
            names, codes = set(), []
        previous = op
    loose |= names
    for nested in codes:
        loose |= _names(nested)
    return loose, bound


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Module:
    """Top-level definitions and methods of one module, and what each names."""

    def __init__(self, code: CodeType):
        self.refs: Dict[Key, Set[str]] = {}
        self.roots, bound = _bindings(code)
        for name, names, codes in bound:
            refs = self.refs.setdefault((name,), set())
            refs |= names
            for nested in codes:
                if nested.co_flags & _FUNCTION or nested.co_name.startswith("<"):
                    refs |= _names(nested)
                else:
                    self._add_class(nested)
            if _dunder(name):
                self.roots.add(name)

    def _add_class(self, body: CodeType) -> None:
        own, bound = _bindings(body)
        for _, names, codes in bound:
            own |= names
            for nested in codes:
                if nested.co_name.startswith("<"):  # a lambda or comprehension
                    own |= _names(nested)
                else:
                    key = (body.co_name, nested.co_name)
                    self.refs.setdefault(key, set()).update(_names(nested))
        self.refs.setdefault((body.co_name,), set()).update(own)

    def live(
        self, outside: Callable[[str], bool], seeds: Iterable[Key] = ()
    ) -> Set[Key]:
        """Definitions reachable from names ``outside(name)`` accepts.

        ``seeds`` count as reached whatever names them.
        """
        live: Set[Key] = {key for key in seeds if key in self.refs}
        named = set(self.roots)
        for key in live:
            named |= self.refs[key]
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
                        name in named or outside(name) or _dunder(name)
                    )
                if reached:
                    live.add(key)
                    named |= refs
                    changed = True
        return live


def unreached(
    sources: Mapping[Path, str], package: Path, allowed: Iterable[str] = ()
) -> Dict[str, Path]:
    """``{qualified name: file}`` of every definition nothing else reaches.

    ``sources`` maps every scanned file to its text; the definitions of
    the files under ``package`` are checked.  A qualified name is the
    module's dotted path under ``package`` plus the definition's name,
    as in ``"sim.core.Simulator.run"``; ``allowed`` lists such names
    that count as reached.
    """
    allowed = set(allowed)
    users: Dict[str, Set[Path]] = {}
    modules: Dict[Path, _Module] = {}
    for path, source in sources.items():
        tree = ast.parse(source, str(path))
        code = compile(tree, str(path), "exec", dont_inherit=True)
        if path.name != "__init__.py":
            for name in _names(code) | _annotation_names(tree):
                users.setdefault(name, set()).add(path)
        if package in path.parents:
            modules[path] = _Module(code)
    dead: Dict[str, Path] = {}
    for path, module in modules.items():
        parts = path.relative_to(package).with_suffix("").parts
        prefix = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        qualified = {
            key: ".".join((prefix,) + key if prefix else key)
            for key in module.refs
        }
        live = module.live(
            lambda name: len(users.get(name, ())) > (path in users.get(name, ())),
            seeds=[key for key, name in qualified.items() if name in allowed],
        )
        for key, name in qualified.items():
            if key not in live:
                dead[name] = path
    return dead


def _repo_sources() -> Dict[Path, str]:
    return {
        path: path.read_text()
        for top in SCANNED
        for path in sorted(top.rglob("*.py"))
    }


def test_every_definition_is_reached_from_outside_its_module():
    dead = unreached(_repo_sources(), PACKAGE, ALLOWED)
    assert not dead, (
        "definitions reached only from their own module or tests:\n"
        + "\n".join(
            f"  {path.relative_to(ROOT / 'src')}: {name}"
            for name, path in sorted(dead.items())
        )
    )


def test_allow_list_entries_are_still_needed():
    dead = unreached(_repo_sources(), PACKAGE)
    stale = sorted(name for name in ALLOWED if name not in dead)
    assert not stale, f"allow-listed definitions now have callers or are gone: {stale}"


class TestGateOnSyntheticModules:
    """The gate's rules, on a tiny package ``pkg`` and one outside script."""

    PKG = Path("/synthetic/src/pkg")
    SCRIPT = Path("/synthetic/examples/demo.py")

    def dead(self, module: str, script: str, allowed: Iterable[str] = ()):
        sources = {
            self.PKG / "__init__.py": "from .mod import *\n",
            self.PKG / "mod.py": module,
            self.SCRIPT: script,
        }
        return set(unreached(sources, self.PKG, allowed))

    def test_method_no_other_file_names_is_dead(self):
        module = (
            "class Server:\n"
            "    def __init__(self):\n"
            "        self.jobs = []\n"
            "    def submit(self, job):\n"
            "        self.jobs.append(job)\n"
            "    def occupancies(self):\n"
            "        return len(self.jobs)\n"
        )
        script = "from pkg.mod import Server\nServer().submit(1)\n"
        assert self.dead(module, script) == {"mod.Server.occupancies"}

    def test_method_named_only_inside_its_own_module_is_dead(self):
        module = (
            "class Server:\n"
            "    def submit(self, job):\n"
            "        return job\n"
            "    def peek(self):\n"
            "        return self.peek_at(0)\n"
            "    def peek_at(self, i):\n"
            "        return i\n"
        )
        script = "from pkg.mod import Server\nServer().submit(1)\n"
        assert self.dead(module, script) == {
            "mod.Server.peek",
            "mod.Server.peek_at",
        }

    def test_methods_and_base_of_a_dead_class_are_dead(self):
        module = (
            "class _Base:\n"
            "    def check(self):\n"
            "        return True\n"
            "class Store(_Base):\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def put(self, item):\n"
            "        return item\n"
            "def build():\n"
            "    return 1\n"
        )
        # The script names ``put`` and ``check``, but never ``Store``.
        script = "from pkg.mod import build\nbuild().put(1)\nbuild().check()\n"
        assert self.dead(module, script) == {
            "mod._Base",
            "mod._Base.check",
            "mod.Store",
            "mod.Store.__len__",
            "mod.Store.put",
        }

    def test_getattr_string_does_not_reach_a_method(self):
        module = (
            "class Hooks:\n"
            "    def on_events(self, count):\n"
            "        return count\n"
            "    def on_attach(self, sim):\n"
            "        return sim\n"
            "def attach(hooks, sim):\n"
            "    hooks.on_events(0)\n"
            "    getattr(hooks, 'on_attach')(sim)\n"
        )
        script = "from pkg.mod import Hooks, attach\nattach(Hooks(), None)\n"
        assert self.dead(module, script) == {"mod.Hooks.on_attach"}
        allowed = ["mod.Hooks.on_attach"]
        assert self.dead(module, script, allowed) == set()

    def test_allowed_definition_reaches_what_it_calls(self):
        module = (
            "def _check(rate):\n"
            "    return rate\n"
            "def mean_rt(rate):\n"
            "    return 1 / _check(rate)\n"
            "def used():\n"
            "    return 0\n"
        )
        script = "from pkg.mod import used\nused()\n"
        assert self.dead(module, script) == {"mod._check", "mod.mean_rt"}
        assert self.dead(module, script, ["mod.mean_rt"]) == set()

    def test_entry_point_string_names_a_function(self):
        module = "def cell(seed):\n    return seed\n"
        script = "CELL = 'pkg.mod:cell'\nprint(CELL)\n"
        assert self.dead(module, script) == set()

    def test_string_annotation_names_a_definition(self):
        module = (
            "from __future__ import annotations\n"
            "from typing import Callable\n"
            "Factory = Callable[[int], int]\n"
            "Unused = Callable[[], int]\n"
            "Local = Callable[[str], int]\n"
            "def build(factory: Local) -> int:\n"
            "    return factory('x')\n"
        )
        # Under the future import the script's annotations are strings
        # in its bytecode; the quoted one is a string either way.
        script = (
            "from __future__ import annotations\n"
            "from pkg.mod import build\n"
            "def use(factory: Factory, other: 'Optional[Unused]') -> None:\n"
            "    build(factory)\n"
        )
        # ``Local`` is annotated only inside its own module, and there
        # as a string.
        assert self.dead(module, script) == {"mod.Local"}
        bare = "from pkg.mod import build\nbuild(len)\n"
        assert self.dead(module, bare) == {
            "mod.Factory",
            "mod.Unused",
            "mod.Local",
        }
