"""A small statement language for driving the library from text files.

A script is a sequence of semicolon-terminated statements:

    ring R = GF(101)[w,x,y,z] / (w*x - y*z);
    module N = coker R [[w], [x], [y], [z]];
    let M1 = syzygy(N, 1);
    scan ext(k, dual(N), 1..10);
    betti k, 4;
    check theorem21(M1, N, 10);
    search harness(20);
    emit json "out.json";

`#` starts a comment running to end of line.  Each `ring` statement
rebinds the built-ins `k` (its residue field) and `R` (the ring itself);
a ring name used where a module is expected denotes the rank-one free
module.  Matrix literals are row-major: one inner list per generator,
one column per relation.

Execution produces a RunReport: a JSON-ready dict with one entry per
statement.  Failures are recorded per statement and execution continues
(except for time budget exhaustion); the report's exit code is the worst
outcome seen, with parse errors ranked above theorem violations, above
resource caps, above hypothesis failures.  A statement that fails at run
time binds nothing (a ring over a non-prime field, say, leaves its name
and the built-ins unbound); each later statement using such a name fails
with "unknown name", which counts as a hypothesis failure (exit code 2).
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field

from . import __version__
from .errors import (
    ExtlabError,
    HypothesisNotMet,
    InvariantViolation,
    ParseError,
    ResourceCapError,
)
from .groebner import RingCtx
from .modules import (
    PresentedModule,
    dual_module,
    hom_module,
    stable_hom,
    tensor_module,
)
from .poly import FieldSpec, PolyRing
from .realize import matlis_dual_module
from .resolution import BettiTable, minimal_free_resolution, syzygy
from .vanishing import (
    ExperimentConfig,
    external_product_check,
    free_or_nonvanishing_check,
    gap_analysis,
    lescot_betti_check,
    random_pair,
    scan_ext,
    scan_tor,
    search_harness,
    stable_suite_check,
    symmetry_check,
    tail_equivalence_check,
    tensor_mcm_check,
    tor_duality_check,
)

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_VIOLATION = 3
EXIT_RESOURCE = 4
EXIT_PARSE = 5

# worst-outcome ordering: parse > violation > resource > hypothesis > ok
_SEVERITY = {EXIT_OK: 0, EXIT_HYPOTHESIS: 1, EXIT_RESOURCE: 2, EXIT_VIOLATION: 3, EXIT_PARSE: 4}


def _worse(a: int, b: int) -> int:
    return a if _SEVERITY[a] >= _SEVERITY[b] else b


def _exit_code_of(e: Exception) -> int:
    """Exit code of a statement that raised e: a resource cap, a violated
    invariant, or else a hypothesis or input failure."""
    if isinstance(e, ResourceCapError):
        return EXIT_RESOURCE
    if isinstance(e, InvariantViolation):
        return EXIT_VIOLATION
    return EXIT_HYPOTHESIS


# -- tokens -------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<ws>\s+|#[^\n]*)"
    r"|(?P<range>\.\.)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<int>\d+)"
    r"|(?P<string>\"[^\"\n]*\")"
    r"|(?P<sym>[][(){},;=/+*^-])"
)


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    out = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        frag = m.group()
        if m.lastgroup != "ws":
            out.append(_Tok(m.lastgroup, frag, line, col))
        nl = frag.count("\n")
        if nl:
            line += nl
            col = len(frag) - frag.rfind("\n")
        else:
            col += len(frag)
        pos = m.end()
    return out


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


@dataclass
class Statement:
    line: int
    kind: str
    source: str


@dataclass
class RingStmt(Statement):
    name: str = ""
    characteristic: int = 0
    variables: tuple[str, ...] = ()
    relations: tuple[str, ...] = ()


@dataclass
class ModuleStmt(Statement):
    name: str = ""
    ring_name: str = ""
    rows: tuple[tuple[str, ...], ...] = ()


@dataclass
class LetStmt(Statement):
    name: str = ""
    expr: object = None


@dataclass
class ScanStmt(Statement):
    scan_kind: str = "ext"
    left: object = None
    right: object = None
    lo: int = 1
    hi: int = 1


@dataclass
class CheckStmt(Statement):
    check: str = ""
    args: tuple = ()


@dataclass
class SearchStmt(Statement):
    target: str = ""
    args: tuple = ()


@dataclass
class BettiStmt(Statement):
    expr: object = None
    upto: int = 0


@dataclass
class EmitStmt(Statement):
    format: str = "json"
    path: str = ""


@dataclass
class Script:
    statements: list[Statement] = field(default_factory=list)


# The tables name their functions instead of holding them: the runner looks
# each name up in this module's globals at call time, so a rebinding of the
# module attribute (a test's monkeypatch, a tracing wrapper) reaches the call.

# expression functions: name -> (function, module argument count, trailing int count)
_EXPR_FUNCS = {
    "syzygy": ("syzygy", 1, 1),
    "dual": ("dual_module", 1, 0),
    "matlis": ("matlis_dual_module", 1, 0),
    "hom": ("hom_module", 2, 0),
    "tensor": ("tensor_module", 2, 0),
    "stablehom": ("stable_hom", 2, 0),
}

# check name -> (checker, module arg count, takes an optional window)
_CHECKS = {
    "theorem21": ("tail_equivalence_check", 2, True),
    "symmetry": ("symmetry_check", 2, True),
    "corollary42": ("tor_duality_check", 2, True),
    "lescot": ("lescot_betti_check", 1, False),
    "lemma36": ("free_or_nonvanishing_check", 2, False),
    "theorem59": ("tensor_mcm_check", 2, False),
    "stablesuite": ("stable_suite_check", 2, False),
    "prop43": ("external_product_check", 2, True),
}

_SEARCHES = ("harness", "lemma36", "symmetry")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        # identifier -> "ring" | "module", for define-before-use checking
        self.types: dict[str, str] = {}

    # token plumbing -------------------------------------------------

    def _peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self) -> _Tok:
        t = self._peek()
        if t is None:
            last = self.toks[-1] if self.toks else _Tok("sym", "", 1, 1)
            raise ParseError("unexpected end of script", last.line, last.col)
        self.i += 1
        return t

    def _expect(self, text: str) -> _Tok:
        t = self._next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def _expect_kind(self, kind: str) -> _Tok:
        t = self._next()
        if t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.text!r}", t.line, t.col)
        return t

    def _source_since(self, start: int) -> str:
        lo = self.toks[start]
        hi = self.toks[self.i - 1]
        a = _offset_of(self.text, lo.line, lo.col)
        b = _offset_of(self.text, hi.line, hi.col) + len(hi.text)
        return self.text[a:b]

    # grammar --------------------------------------------------------

    def parse(self) -> Script:
        out = Script()
        while self._peek() is not None:
            out.statements.append(self._statement())
        return out

    def _statement(self) -> Statement:
        start = self.i
        head = self._expect_kind("name")
        method = getattr(self, f"_stmt_{head.text}", None)
        if method is None:
            raise ParseError(f"unknown statement {head.text!r}", head.line, head.col)
        stmt = method(head)
        self._expect(";")
        stmt.source = self._source_since(start)
        return stmt

    def _declare(self, tok: _Tok, typ: str) -> str:
        if tok.text in ("k", "R"):
            raise ParseError(f"{tok.text!r} is a built-in name", tok.line, tok.col)
        self.types[tok.text] = typ
        return tok.text

    def _require(self, tok: _Tok, types: tuple[str, ...]) -> str:
        got = self.types.get(tok.text)
        if got is None:
            raise ParseError(f"use of undefined identifier {tok.text!r}", tok.line, tok.col)
        if got not in types:
            raise ParseError(
                f"{tok.text!r} is a {got}, expected {' or '.join(types)}", tok.line, tok.col)
        return tok.text

    def _stmt_ring(self, head: _Tok) -> RingStmt:
        name = self._declare(self._expect_kind("name"), "ring")
        self._expect("=")
        gf = self._expect_kind("name")
        if gf.text != "GF":
            raise ParseError(f"expected GF(p), found {gf.text!r}", gf.line, gf.col)
        self._expect("(")
        p = int(self._expect_kind("int").text)
        self._expect(")")
        self._expect("[")
        variables = [self._expect_kind("name").text]
        while self._peek() and self._peek().text == ",":
            self._next()
            variables.append(self._expect_kind("name").text)
        self._expect("]")
        relations: list[str] = []
        if self._peek() and self._peek().text == "/":
            self._next()
            self._expect("(")
            relations = self._poly_list()
        # the new ring shadows the built-ins
        self.types["k"] = "module"
        self.types["R"] = "ring"
        return RingStmt(head.line, "ring", "", name=name, characteristic=p,
                        variables=tuple(variables), relations=tuple(relations))

    def _poly_text(self, stop: tuple[str, ...]) -> str:
        """Concatenate raw tokens until a stop symbol at depth zero."""
        depth = 0
        parts: list[str] = []
        while True:
            t = self._peek()
            if t is None:
                raise ParseError("unterminated polynomial", self.toks[-1].line, self.toks[-1].col)
            if depth == 0 and t.text in stop:
                break
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth < 0:
                    break
            parts.append(self._next().text)
        if not parts:
            t = self._peek()
            raise ParseError("empty polynomial", t.line, t.col)
        return "".join(parts)

    def _poly_list(self) -> list[str]:
        out = [self._poly_text((",", ")"))]
        while self._peek() and self._peek().text == ",":
            self._next()
            out.append(self._poly_text((",", ")")))
        self._expect(")")
        return out

    def _stmt_module(self, head: _Tok) -> ModuleStmt:
        name_tok = self._expect_kind("name")
        self._expect("=")
        kw = self._expect_kind("name")
        if kw.text != "coker":
            raise ParseError(f"expected coker, found {kw.text!r}", kw.line, kw.col)
        ring = self._require(self._expect_kind("name"), ("ring",))
        rows = self._matrix()
        name = self._declare(name_tok, "module")
        return ModuleStmt(head.line, "module", "", name=name, ring_name=ring, rows=rows)

    def _matrix(self) -> tuple[tuple[str, ...], ...]:
        self._expect("[")
        rows = [self._matrix_row()]
        while self._peek() and self._peek().text == ",":
            self._next()
            rows.append(self._matrix_row())
        self._expect("]")
        width = {len(r) for r in rows}
        if len(width) != 1:
            t = self.toks[self.i - 1]
            raise ParseError("matrix rows have unequal lengths", t.line, t.col)
        return tuple(rows)

    def _matrix_row(self) -> tuple[str, ...]:
        self._expect("[")
        row = [self._poly_text((",", "]"))]
        while self._peek() and self._peek().text == ",":
            self._next()
            row.append(self._poly_text((",", "]")))
        self._expect("]")
        return tuple(row)

    def _stmt_let(self, head: _Tok) -> LetStmt:
        name_tok = self._expect_kind("name")
        self._expect("=")
        expr = self._expr()
        name = self._declare(name_tok, "module")
        return LetStmt(head.line, "let", "", name=name, expr=expr)

    def _expr(self):
        t = self._expect_kind("name")
        nxt = self._peek()
        if nxt is None or nxt.text != "(":
            self._require(t, ("module", "ring"))
            return Name(t.text)
        spec = _EXPR_FUNCS.get(t.text)
        if spec is None:
            raise ParseError(f"unknown operation {t.text!r}", t.line, t.col)
        _, nmod, nint = spec
        self._expect("(")
        args = []
        for j in range(nmod):
            if j:
                self._expect(",")
            args.append(self._expr())
        for _ in range(nint):
            self._expect(",")
            args.append(int(self._expect_kind("int").text))
        self._expect(")")
        return Call(t.text, tuple(args))

    def _stmt_scan(self, head: _Tok) -> ScanStmt:
        kind = self._expect_kind("name")
        if kind.text not in ("ext", "tor"):
            raise ParseError(f"scan expects ext or tor, found {kind.text!r}", kind.line, kind.col)
        self._expect("(")
        left = self._expr()
        self._expect(",")
        right = self._expr()
        self._expect(",")
        lo_tok = self._expect_kind("int")
        lo = int(lo_tok.text)
        self._expect("..")
        hi = int(self._expect_kind("int").text)
        self._expect(")")
        if lo != 1:
            raise ParseError("scan windows start at 1", lo_tok.line, lo_tok.col)
        return ScanStmt(head.line, "scan", "", scan_kind=kind.text,
                        left=left, right=right, lo=lo, hi=hi)

    def _stmt_check(self, head: _Tok) -> CheckStmt:
        name = self._expect_kind("name")
        spec = _CHECKS.get(name.text)
        if spec is None:
            known = ", ".join(sorted(_CHECKS))
            raise ParseError(f"unknown check {name.text!r} (known: {known})",
                             name.line, name.col)
        _, nmod, windowed = spec
        self._expect("(")
        args = []
        for j in range(nmod):
            if j:
                self._expect(",")
            args.append(self._expr())
        if windowed and self._peek() and self._peek().text == ",":
            self._next()
            args.append(int(self._expect_kind("int").text))
        self._expect(")")
        return CheckStmt(head.line, "check", "", check=name.text, args=tuple(args))

    def _stmt_search(self, head: _Tok) -> SearchStmt:
        name = self._expect_kind("name")
        if name.text not in _SEARCHES:
            raise ParseError(
                f"unknown search {name.text!r} (known: {', '.join(_SEARCHES)})",
                name.line, name.col)
        self._expect("(")
        args = [int(self._expect_kind("int").text)]
        if self._peek() and self._peek().text == ",":
            self._next()
            args.append(int(self._expect_kind("int").text))
        self._expect(")")
        return SearchStmt(head.line, "search", "", target=name.text, args=tuple(args))

    def _stmt_betti(self, head: _Tok) -> BettiStmt:
        expr = self._expr()
        self._expect(",")
        upto = int(self._expect_kind("int").text)
        return BettiStmt(head.line, "betti", "", expr=expr, upto=upto)

    def _stmt_emit(self, head: _Tok) -> EmitStmt:
        fmt = self._expect_kind("name")
        if fmt.text not in ("json", "table"):
            raise ParseError(f"emit expects json or table, found {fmt.text!r}",
                             fmt.line, fmt.col)
        path = self._expect_kind("string").text[1:-1]
        return EmitStmt(head.line, "emit", "", format=fmt.text, path=path)


def _offset_of(text: str, line: int, col: int) -> int:
    pos = 0
    for _ in range(line - 1):
        pos = text.index("\n", pos) + 1
    return pos + col - 1


def parse_script(text: str) -> Script:
    """Parse and type-check; raises ParseError with line/column on any slip."""
    return _Parser(text).parse()


# -- execution ----------------------------------------------------------------


@dataclass(frozen=True)
class RunFlags:
    seed: int = 0
    window: int = 10
    degree_cap: int = 64
    timeout_secs: float | None = None


class _Runner:
    def __init__(self, flags: RunFlags):
        self.flags = flags
        self.env: dict[str, object] = {}
        self.current_ring: RingCtx | None = None
        self.report: dict = {
            "engine_version": __version__,
            "seed": flags.seed,
            "window": flags.window,
            "degree_cap": flags.degree_cap,
            "statements": [],
        }
        self.exit_code = EXIT_OK
        self.deadline = (
            time.monotonic() + flags.timeout_secs if flags.timeout_secs else None
        )

    # resolution helpers ----------------------------------------------

    def _module_of(self, value) -> PresentedModule:
        if isinstance(value, RingCtx):
            return PresentedModule.free(value, (0,))
        return value

    def _lookup(self, name: str):
        """The ring or module bound to `name`.  The parser admits any
        declared name, but a statement that failed at run time bound
        nothing."""
        try:
            return self.env[name]
        except KeyError:
            raise ValueError(f"unknown name {name!r}: no ring, module or let binds it") from None

    def _eval(self, expr) -> PresentedModule:
        if isinstance(expr, Name):
            return self._module_of(self._lookup(expr.ident))
        args = [self._eval(a) if isinstance(a, (Name, Call)) else a for a in expr.args]
        return globals()[_EXPR_FUNCS[expr.func][0]](*args)

    def _expr_label(self, expr) -> str:
        if isinstance(expr, Name):
            return expr.ident
        inner = ", ".join(
            self._expr_label(a) if isinstance(a, (Name, Call)) else str(a)
            for a in expr.args
        )
        return f"{expr.func}({inner})"

    # statements -------------------------------------------------------

    def run(self, script: Script) -> dict:
        for idx, stmt in enumerate(script.statements):
            if self.deadline is not None and time.monotonic() > self.deadline:
                self.report["statements"].append({
                    "index": idx, "line": stmt.line, "kind": stmt.kind,
                    "source": stmt.source, "status": "error",
                    "error": "time budget exhausted before this statement",
                })
                self.exit_code = _worse(self.exit_code, EXIT_RESOURCE)
                break
            entry = {"index": idx, "line": stmt.line, "kind": stmt.kind, "source": stmt.source}
            t0 = time.perf_counter()
            try:
                result = self._dispatch(stmt)
                entry["status"] = "ok"
                if result is not None:
                    entry["result"] = result
            except (ValueError, KeyError, ExtlabError) as e:
                entry["status"] = "error"
                entry["error"] = str(e)
                self.exit_code = _worse(self.exit_code, _exit_code_of(e))
            entry["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
            self.report["statements"].append(entry)
        self.report["exit_code"] = self.exit_code
        return self.report

    def _dispatch(self, stmt):
        return getattr(self, f"_run_{stmt.kind}")(stmt)

    def _run_ring(self, stmt: RingStmt):
        ring = PolyRing(FieldSpec(stmt.characteristic), stmt.variables,
                        degree_cap=self.flags.degree_cap)
        rels = [ring.parse(r) for r in stmt.relations]
        ctx = RingCtx(ring, rels)
        self.env[stmt.name] = ctx
        self.env["R"] = ctx
        self.env["k"] = PresentedModule.residue_field(ctx)
        self.current_ring = ctx
        return {
            "ring": stmt.name,
            "dimension": ctx.dim,
            "artinian": bool(ctx.is_artinian),
            "length": ctx.length,
        }

    def _bind_module(self, name: str, mod: PresentedModule) -> dict:
        self.env[name] = mod
        m = mod.minimal_presentation()
        return {"module": name, "generators": m.rank0,
                "generator_degrees": list(m.row_twists), "relations": len(m.columns)}

    def _run_module(self, stmt: ModuleStmt):
        ctx = self._lookup(stmt.ring_name)
        rows = [[ctx.ring.parse(e) for e in row] for row in stmt.rows]
        return self._bind_module(stmt.name, PresentedModule.from_matrix(ctx, rows))

    def _run_let(self, stmt: LetStmt):
        return self._bind_module(stmt.name, self._eval(stmt.expr))

    def _run_scan(self, stmt: ScanStmt):
        left = self._eval(stmt.left)
        right = self._eval(stmt.right)
        labels = (self._expr_label(stmt.left), self._expr_label(stmt.right))
        fn = scan_ext if stmt.scan_kind == "ext" else scan_tor
        pat = fn(left, right, stmt.hi, labels=labels)
        return {
            "scan": pat.to_json_dict(),
            "gaps": [g.to_json_dict() for g in gap_analysis(pat)],
        }

    def _run_check(self, stmt: CheckStmt):
        mods = [self._eval(a) for a in stmt.args if isinstance(a, (Name, Call))]
        ints = [a for a in stmt.args if isinstance(a, int)]
        fname, _, windowed = _CHECKS[stmt.check]
        if windowed:
            mods.append(ints[0] if ints else self.flags.window)
        rep = globals()[fname](*mods)
        if rep.is_violation:
            self.exit_code = _worse(self.exit_code, EXIT_VIOLATION)
        return {"check": stmt.check, "report": rep.to_json_dict()}

    def _run_search(self, stmt: SearchStmt):
        if self.current_ring is None:
            raise ValueError("search requires a ring statement first")
        ctx = self.current_ring
        trials = stmt.args[0]
        H = stmt.args[1] if len(stmt.args) > 1 else self.flags.window
        cfg = ExperimentConfig(seed=self.flags.seed, trials=trials, window=H)
        if stmt.target == "harness":
            out = search_harness(cfg, ctx)
            if out["candidates"]:
                self.exit_code = _worse(self.exit_code, EXIT_VIOLATION)
            return {"search": "harness", "report": out}
        violations = 0
        skipped = 0
        ran = 0
        for t in range(trials):
            M, N = random_pair(cfg, ctx, t)
            try:
                if stmt.target == "lemma36":
                    rep = free_or_nonvanishing_check(M, N)
                else:
                    rep = symmetry_check(M, N, H)
            except HypothesisNotMet:
                skipped += 1
                continue
            ran += 1
            if rep.is_violation:
                violations += 1
        if violations:
            self.exit_code = _worse(self.exit_code, EXIT_VIOLATION)
        return {"search": stmt.target, "trials": trials, "ran": ran,
                "hypothesis_skipped": skipped, "violations": violations}

    def _run_betti(self, stmt: BettiStmt):
        mod = self._eval(stmt.expr)
        _, table = minimal_free_resolution(mod, stmt.upto)
        return {"betti": table.to_json_dict(), "text": table.render_text()}

    def _run_emit(self, stmt: EmitStmt):
        snapshot = dict(self.report)
        snapshot["exit_code"] = self.exit_code
        if stmt.format == "json":
            payload = report_json(snapshot)
        else:
            payload = render_report_text(snapshot)
        try:
            with open(stmt.path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as e:
            raise ValueError(f"cannot write {stmt.path!r}: {e.strerror}") from None
        return {"wrote": stmt.path, "format": stmt.format}


def run_script(script: Script, flags: RunFlags | None = None) -> dict:
    """Execute a parsed script and return its RunReport dict."""
    return _Runner(flags or RunFlags()).run(script)


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _summary_line(entry: dict) -> str:
    if entry["status"] == "error":
        return f"error: {entry['error']}"
    kind, result = entry["kind"], entry["result"]
    if kind == "ring":
        return f"ring {result['ring']}, dimension {result['dimension']}"
    if kind in ("module", "let"):
        return f"module {result['module']}, {result['generators']} generators"
    if kind == "scan":
        scan = result["scan"]
        tail = "tail-vanishing" if scan["tail_vanishing"] else "nonvanishing tail"
        return f"{tail}, last nonzero {scan['last_nonzero']}"
    if kind == "check":
        return f"verdict {result['report']['verdict']}"
    if kind == "search" and result["search"] == "harness":
        rep = result["report"]
        return f"{len(rep['trials'])} trials, {len(rep['candidates'])} candidates"
    if kind == "search":
        return (f"{result['ran']} ran, {result['hypothesis_skipped']} skipped, "
                f"{result['violations']} violations")
    if kind == "betti":
        return "betti table below"
    return f"wrote {result['wrote']}"  # emit


def render_report_text(report: dict) -> str:
    lines = [f"engine {report['engine_version']}, seed {report['seed']}, window {report['window']}"]
    for entry in report["statements"]:
        lines.append(f"[{entry['line']:>3}] {entry['kind']:<7} {_summary_line(entry)}")
        if entry["kind"] == "betti" and entry["status"] == "ok":
            lines.extend("      " + ln for ln in entry["result"]["text"].splitlines())
    lines.append(f"exit code {report.get('exit_code', 0)}")
    return "\n".join(lines) + "\n"
