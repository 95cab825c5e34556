"""Per-layer self time for the traced pass, measured from outside the program.

:class:`LayerClock` installs timing wrappers around the library's public
entry points (the table in :data:`ENTRY_POINTS`) and removes them again,
so untraced passes run the unmodified code. Every wrapper pushes a frame
on one stack; when it returns, its duration minus the time of the
wrapped calls nested inside it is that layer's *self time*. The event
engine is attributed the same way: every callback handed to
``Simulator.schedule_at`` is wrapped, so ``Simulator.run``'s self time is
the engine's own work (heap operations and dispatch) without the
protocol and network handlers it calls.

Counts come from the program itself: the pass runs under an active
``repro.obs`` tracer, which emits the ``lp.*``, ``fractional.*`` and
``strategy.*`` counters and the ``placement.search`` spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable

#: (layer, module, attribute path) of every wrapped entry point. An
#: attribute path ``Class.method`` wraps the method on the class; a bare
#: name wraps a module-level function everywhere it has been imported.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("qu.handler", "repro.qu.server", "QUServer.on_request"),
    ("qu.handler", "repro.qu.client", "QUClient.on_reply"),
    ("sim.engine", "repro.sim.engine", "Simulator.run"),
    ("sim.network", "repro.sim.network", "SimNetwork.send"),
    ("lp.solve", "repro.lp.batched", "BatchedProgram.solve"),
    ("lp.solve_many", "repro.lp.batched", "BatchedProgram.solve_many"),
    ("lp.update", "repro.lp.batched", "BatchedProgram.update_objective"),
    ("lp.update", "repro.lp.batched", "BatchedProgram.update_le_rows"),
    ("lp.build", "repro.lp.batched", "BatchedProgram.__init__"),
    ("placement.search", "repro.placement.search", "best_placement"),
    ("placement.fractional", "repro.placement.fractional", "FractionalProgram.solve"),
    ("placement.fractional", "repro.placement.fractional", "FractionalFamily.solve"),
    ("placement.m2o", "repro.placement.many_to_one", "many_to_one_placement"),
    ("placement.round", "repro.placement.gap", "round_fractional_placement"),
    ("strategies.sweep", "repro.strategies.capacity_sweep", "sweep_uniform_capacities"),
    ("strategies.program", "repro.strategies.lp_optimizer", "StrategyProgram.__init__"),
    ("core.evaluate", "repro.core.response_time", "evaluate"),
    ("core.iterative", "repro.core.iterative", "iterative_optimize"),
    ("network.load", "repro.network.datasets", "planetlab_50"),
    ("network.load", "repro.network.datasets", "daxlist_161"),
)

#: Layer of an event callback, by the module that defined it.
CALLBACK_LAYERS = (
    ("repro.sim.network", "sim.network"),
    ("repro.qu.", "qu.handler"),
)

#: Catch-all layer of callbacks from any other module.
OTHER_CALLBACK = "sim.callback"


class LayerClock:
    """Self time and call counts per layer, over one or more passes."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self._stack: list[list[int]] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- measurement -------------------------------------------------------

    def timed(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped to charge its self time to ``layer``."""
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] = self_ns.get(layer, 0) + elapsed - frame[0]
                calls[layer] = calls.get(layer, 0) + 1
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()

    # -- installation ------------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every entry point; :meth:`uninstall` undoes it exactly."""
        if self._restore:
            raise RuntimeError("layer wrappers are already installed")
        for layer, module_name, path in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, attr, self.timed(layer, cls.__dict__[attr]))
            else:
                self._rebind_everywhere(getattr(module, path), layer)
        self._wrap_callbacks()

    def _rebind_everywhere(self, fn: Callable[..., Any], layer: str) -> None:
        # ``from module import fn`` copies the reference, so the wrapper
        # replaces it in every loaded library module.
        wrapped = self.timed(layer, fn)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro"):
                continue
            namespace = getattr(module, "__dict__", {})
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def _wrap_callbacks(self) -> None:
        from repro.sim.engine import Simulator

        schedule_at = Simulator.__dict__["schedule_at"]
        timed = self.timed

        def layer_of(callback: Any) -> str:
            module = getattr(callback, "__module__", "") or ""
            for prefix, layer in CALLBACK_LAYERS:
                if module.startswith(prefix):
                    return layer
            return OTHER_CALLBACK

        def wrapped_schedule_at(sim: Any, when: float, callback: Any) -> Any:
            return schedule_at(sim, when, timed(layer_of(callback), callback))

        self._set(Simulator, "schedule_at", wrapped_schedule_at)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "LayerClock":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()
