"""RPR001: execution hints must never reach digest-affecting code.

The kernel backend and the compile-cache budget steer *how* a scenario
executes — which kernel runs it, how big the compile cache is — while
digests, wire dicts and group keys define *what* it computes.  The
whole resume/store/equivalence machinery rests on the two never mixing:
a backend that leaked into ``to_spec`` would fork every stored digest
per installation.  Neither is a ``SimPolicy`` field: the backend is a
call argument (``simulate(spec, backend=...)``) and the compile cache
belongs to the run.  The rule guards against the names returning: it
statically rejects any reference to an execution-hint name (attribute
read, string key, bare name) inside the digest-affecting function
bodies of ``repro/spec/``.
"""

from __future__ import annotations

import ast

from repro.analysis.lint import policy
from repro.analysis.lint.engine import FileContext, Rule


class DigestPurityRule(Rule):
    id = "RPR001"
    name = "digest-purity"
    severity = "error"
    hint = (
        "execution hints (backend, compile_cache) must not be read in "
        "to_spec/digest/group_key; resolve them at execution time instead"
    )

    def applies(self, module: str) -> bool:
        return module.startswith("repro/spec/")

    def check(self, ctx: FileContext):
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if node.name not in policy.DIGEST_FUNCTIONS:
                continue
            findings.extend(self._check_body(ctx, node))
        return findings

    def _check_body(self, ctx: FileContext, func: ast.FunctionDef):
        findings = []
        docstring = None
        if (
            func.body
            and isinstance(func.body[0], ast.Expr)
            and isinstance(func.body[0].value, ast.Constant)
        ):
            docstring = func.body[0].value
        for stmt in func.body:
            for node in ast.walk(stmt):
                if node is docstring:
                    continue
                hit = None
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in policy.EXECUTION_HINT_FIELDS
                ):
                    hit = node.attr
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value in policy.EXECUTION_HINT_FIELDS
                ):
                    hit = node.value
                elif (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in policy.EXECUTION_HINT_FIELDS
                ):
                    hit = node.id
                if hit is not None:
                    findings.append(ctx.finding(
                        self,
                        node,
                        f"execution hint {hit!r} referenced inside "
                        f"digest-affecting function {func.name}()",
                    ))
        return findings
