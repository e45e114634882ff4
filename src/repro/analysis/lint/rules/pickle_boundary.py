"""RPR004: only whitelisted shapes cross the supervisor's channels.

Everything on the worker task queues and result pipes must pickle on
the way out *and* unpickle in a process that may not share the
sender's module state — the reason a worker failure travels as a plain
error-info dict carrying its formatted traceback instead of an
arbitrary exception object.  The rule checks the two directions:

* every ``.put()`` / ``.send()`` on a queue or pipe receiver carries
  ``None`` (the stop sentinel) or a literal tuple whose elements are
  constants, names, attribute loads, literal dicts/lists or calls to
  pickle-safe constructors
  (:data:`~repro.analysis.lint.policy.PICKLE_SAFE_CALLS`);
* worker-side code never raises ``BaseException`` family types that
  would escape the ``except Exception`` boundary that turns failures
  into ``err`` messages.
"""

from __future__ import annotations

import ast

from repro.analysis.lint import policy
from repro.analysis.lint.engine import FileContext, Rule, dotted_name
from repro.analysis.lint.rules.determinism import _worker_scope


def _payload_problem(node: ast.AST) -> str | None:
    """Why this payload element is not statically pickle-safe, or None."""
    if isinstance(node, ast.Constant):
        return None
    if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)):
        return None
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            problem = _payload_problem(elt)
            if problem:
                return problem
        return None
    if isinstance(node, ast.Dict):
        for key in node.keys:
            if not isinstance(key, ast.Constant):
                return "dict payload with a non-constant key"
        for value in node.values:
            problem = _payload_problem(value)
            if problem:
                return problem
        return None
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in policy.PICKLE_SAFE_CALLS:
            return None
        return (
            f"call to {name or 'a dynamic target'}() is not in the "
            "pickle-safe whitelist"
        )
    if isinstance(node, (ast.Lambda, ast.GeneratorExp)):
        return "lambdas/generators do not pickle"
    if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare,
                         ast.IfExp)):
        return None  # scalar expression of already-checked operands
    return f"{type(node).__name__} expression is not whitelisted"


class PickleBoundaryRule(Rule):
    id = "RPR004"
    name = "pickle-boundary"
    severity = "error"
    hint = (
        "queue and pipe payloads must be the None sentinel or literal "
        "tuples of spec/record/error-info values; ship worker errors as "
        "structured err messages"
    )

    def applies(self, module: str) -> bool:
        return "repro/campaign/" in module

    def check(self, ctx: FileContext):
        findings = []
        findings.extend(self._check_sends(ctx))
        findings.extend(self._check_raises(ctx))
        return findings

    def _check_sends(self, ctx: FileContext):
        findings = []
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("put", "put_nowait", "send")
            ):
                continue
            receiver = dotted_name(node.func.value)
            if receiver is None:
                continue
            if receiver.split(".")[-1] not in policy.QUEUE_RECEIVER_NAMES:
                continue
            site = f"{receiver}.{node.func.attr}()"
            if not node.args:
                continue
            payload = node.args[0]
            if isinstance(payload, ast.Constant) and payload.value is None:
                continue
            if not isinstance(payload, ast.Tuple):
                findings.append(ctx.finding(
                    self,
                    payload,
                    f"payload on {site} is not the None "
                    "sentinel or a literal message tuple",
                ))
                continue
            problem = _payload_problem(payload)
            if problem:
                findings.append(ctx.finding(
                    self,
                    payload,
                    f"payload on {site}: {problem}",
                ))
        return findings

    def _check_raises(self, ctx: FileContext):
        findings = []
        for func in _worker_scope(ctx.tree):
            for stmt in func.body:
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Raise) or node.exc is None:
                        continue
                    exc = node.exc
                    if isinstance(exc, ast.Call):
                        exc = exc.func
                    name = dotted_name(exc)
                    if name is None:
                        continue
                    if (
                        name.split(".")[-1]
                        in policy.FORBIDDEN_WORKER_RAISES
                    ):
                        findings.append(ctx.finding(
                            self,
                            node,
                            f"worker-side raise of {name} escapes the "
                            "RemoteTaskError wrapping boundary",
                        ))
        return findings
