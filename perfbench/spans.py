"""Span recorder that times slipctl's public functions from outside the package.

While a traced operation runs, the functions and methods listed in FUNCTIONS
and METHODS are replaced by wrappers that append one span per call to an
in-memory list; the originals are put back when the operation ends, so untraced
operations run the unmodified program.  A span is
[name, start, end, parent, op]: parent is the index of the enclosing span
(-1 at the top) and op the closed-loop operation it belongs to.
"""

import contextlib
import json
import sys
import time
from statistics import median, median_low

from slipctl import adjoint_solver, control_opt, mesh, operators

# span name -> module-level function; every slipctl module that imported
# the function under the same name gets the wrapper too
FUNCTIONS = (
    ("state_solver.solve_state", "slipctl.state_solver", "solve_state"),
    ("state_solver.energy_residual", "slipctl.state_solver", "energy_identity_residual"),
    ("state_solver.save_trajectory", "slipctl.state_solver", "save_trajectory"),
    ("linearized_solver.solve_linearized", "slipctl.linearized_solver", "solve_linearized"),
    ("adjoint_solver.solve_adjoint", "slipctl.adjoint_solver", "solve_adjoint"),
    ("adjoint_solver.duality_residual", "slipctl.adjoint_solver", "duality_residual"),
    ("control_opt.optimize", "slipctl.control_opt", "optimize"),
    ("control_opt.project", "slipctl.control_opt", "project_admissible"),
    ("control_opt.optimality_parts", "slipctl.control_opt", "optimality_parts"),
    ("control_opt.fd_gradient", "slipctl.control_opt", "fd_gradient_oracle"),
    ("fields.hp_norm", "slipctl.fields", "hp_norm"),
    ("cli.main", "slipctl.cli", "main"),
    ("cli.solve", "slipctl.cli", "cmd_solve"),
    ("cli.optimize", "slipctl.cli", "cmd_optimize"),
    ("cli.grad_check", "slipctl.cli", "cmd_grad_check"),
)

# span name -> method
METHODS = (
    ("operators.step_init", operators.StepSolver, "__init__"),
    ("operators.step_solve", operators.StepSolver, "solve"),
    ("operators.step_solve_T", operators.StepSolver, "solve_transpose"),
    ("adjoint_solver.export_kernels", adjoint_solver.AdjointTrajectory, "export_kernels_csv"),
    ("control_opt.engine.cost", control_opt.GradientEngine, "cost"),
    ("control_opt.engine.gradient", control_opt.GradientEngine, "gradient"),
)

LAYERS = ("mesh", "operators", "state_solver", "linearized_solver",
          "adjoint_solver", "control_opt", "fields", "cli")


class _SpluProxy:
    """Stands in for scipy.sparse.linalg inside slipctl.operators only."""

    def __init__(self, module, splu):
        self._module = module
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.lu_nnz = []          # (op, SuperLU stored L+U entries) per factorization
        self._stack = []
        self._op = None
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
        return traced

    def _install(self):
        def patch(owner, attr, new):
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "slipctl" or n.startswith("slipctl."))]
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    patch(mod, attr, wrapped)
        for name, cls, attr in METHODS:
            patch(cls, attr, self._wrap(name, getattr(cls, attr)))

        spla = operators.spla
        traced_splu = self._wrap("operators.splu", spla.splu)

        def splu(*args, **kwargs):
            lu = traced_splu(*args, **kwargs)
            self.lu_nnz.append((self._op, int(lu.nnz)))
            return lu
        patch(operators, "spla", _SpluProxy(spla, splu))

        build = mesh.Grid.ops.fget
        traced_build = self._wrap("mesh.ops_build", build)

        def ops(grid):
            # only the first access builds the operators
            return traced_build(grid) if grid._ops is None else build(grid)
        patch(mesh.Grid, "ops", property(ops))

    def _uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def op(self, op_id):
        """Record spans of every wrapped call made inside the block."""
        self._op = op_id
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self._op = None

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer, op_ids, setup_ids):
    """Per-operation layer times and counts over the traced operations.

    A span's self time is its duration minus that of its direct children;
    a layer's self time sums the self times of its spans.
    """
    ops = set(op_ids)
    n = max(len(ops), 1)
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    total, count = {}, {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    engine_solves = optimize_costs = optimize_grads = 0
    for i, (name, start, end, parent, op) in enumerate(spans):
        if op not in ops:
            continue
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        self_s[name.split(".")[0]] += dur - child[i]
        pname = spans[parent][0] if parent >= 0 else ""
        if name == "state_solver.solve_state" and pname.startswith("control_opt.engine."):
            engine_solves += 1
        if pname == "control_opt.optimize":
            optimize_costs += name == "control_opt.engine.cost"
            optimize_grads += name == "control_opt.engine.gradient"

    builds = [end - start for name, start, end, parent, op in spans
              if name == "mesh.ops_build" and op in setup_ids]
    nnz = [v for op, v in tracer.lu_nnz if op in ops]
    lookups = count.get("control_opt.engine.cost", 0) + count.get("control_opt.engine.gradient", 0)

    def t(name):
        return total.get(name, 0.0) / n

    def c(name):
        return count.get(name, 0) / n

    m = {
        "mesh.ops_build_s": (median(builds) if builds else 0.0, "s"),
        "operators.step_init_s": (t("operators.step_init"), "s"),
        "operators.step_init.count": (c("operators.step_init"), "count"),
        "operators.splu_s": (t("operators.splu"), "s"),
        "operators.assemble_s": (t("operators.step_init") - t("operators.splu"), "s"),
        "operators.lu_fill_nnz": (median_low(nnz) if nnz else 0, "count"),
        "operators.step_solve_s": (t("operators.step_solve"), "s"),
        "operators.step_solve_T_s": (t("operators.step_solve_T"), "s"),
        "state_solver.solve_state_s": (t("state_solver.solve_state"), "s"),
        "state_solver.solve_state.count": (c("state_solver.solve_state"), "count"),
        "state_solver.energy_residual_s": (t("state_solver.energy_residual"), "s"),
        "state_solver.save_trajectory_s": (t("state_solver.save_trajectory"), "s"),
        "linearized_solver.solve_linearized_s": (t("linearized_solver.solve_linearized"), "s"),
        "linearized_solver.solve_linearized.count": (c("linearized_solver.solve_linearized"), "count"),
        "adjoint_solver.solve_adjoint_s": (t("adjoint_solver.solve_adjoint"), "s"),
        "adjoint_solver.duality_residual_s": (t("adjoint_solver.duality_residual"), "s"),
        "adjoint_solver.export_kernels_s": (t("adjoint_solver.export_kernels"), "s"),
        "control_opt.engine.cost_calls": (c("control_opt.engine.cost"), "count"),
        "control_opt.engine.state_solves": (engine_solves / n, "count"),
        "control_opt.engine.cache_hit_ratio": (
            1.0 - engine_solves / lookups if lookups else 0.0, "ratio"),
        "control_opt.armijo_trials": ((optimize_costs - optimize_grads) / n, "count"),
        "control_opt.project_s": (t("control_opt.project"), "s"),
        "control_opt.optimality_parts_s": (t("control_opt.optimality_parts"), "s"),
        "fields.hp_norm_s": (t("fields.hp_norm"), "s"),
        "fields.hp_norm.count": (c("fields.hp_norm"), "count"),
        "cli.solve_s": (t("cli.solve"), "s"),
        "cli.optimize_s": (t("cli.optimize"), "s"),
        "cli.grad_check_s": (t("cli.grad_check"), "s"),
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = (self_s[layer] / n, "s")
    return m
