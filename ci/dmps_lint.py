#!/usr/bin/env python3
"""dmps_lint: repo-invariant checks that a compiler cannot express.

Four checks, each enforcing a rule DESIGN.md states in prose (§10):

  layer        The include graph between dmps layers must match the DAG
               declared in DESIGN.md's ```dmps-layers fenced block
               exactly. An upward or sideways #include is an
               architecture break even when it compiles, and a declared
               edge that no file of its layer includes is a stale
               claim about the architecture.
  obs-register Instrument creation (MetricsRegistry::counter/gauge/
               histogram/gauge_callback find-or-create calls, and
               FloorInstruments/WireInstruments pack construction) is
               only legal inside `// dmps-lint: obs-register-begin` ..
               `obs-register-end` regions — the init/ctor regions that
               run before any hot path. Everywhere else a new name
               would first-allocate inside a hot loop.
  wire-schema  Every fproto::MsgKind enumerator must appear in the
               wire_type() table (src/fproto/codec.cpp), in the
               to_string() switch, and in the frame round-trip test's
               sample_payloads() (tests/test_transport.cpp), and
               kMsgKindCount must equal the enumerator count. Adding a
               kind and forgetting one of the three is a silent
               interop bug until a daemon drops the frame. docs/WIRE.md's
               kind table and frame-limits table must match the code.
  hot          Inside `// dmps-lint: hot-begin(<name>)` .. `hot-end`
               regions (the sharded facade's routing, GrantStore
               mutation paths, the UDP rx path, arbitration): no `new`
               expressions, no std::function construction, no insert
               into (or other mutation of) a std::unordered_map or
               util::FlatMap member, and no text formatting
               (printf-family calls, std::to_string, string streams).
               A map member's name is checked only in the file that
               declares it and in the .cpp files that include that
               header directly, so an unrelated member elsewhere that
               happens to share the name is not flagged.
               These are the alloc-probed paths; one stray node
               allocation regresses the million-station sweep, and one
               formatted sentence per decision once cost a third of the
               daemon's CPU. The region names are declared in
               DESIGN.md's ```dmps-hot-regions fenced block: a listed
               region with no marker left (a deleted or moved file took
               it along) and a marker naming an unlisted region are both
               configuration errors.

Escapes (use sparingly, justify in a comment):
  // dmps-lint: allow(<rule>)        trailing on the offending line
  // dmps-lint: allow-next(<rule>)   on the line before it

Exit status: 0 clean, 1 violations (each printed as file:line: [rule] msg),
2 configuration trouble (missing DAG or hot-regions block, unbalanced
markers, hot regions that disagree with their block).
"""

import argparse
import re
import sys
from pathlib import Path

# Directories scanned per rule. Tests are exempt from obs-register (test
# fixtures register ad hoc) and from hot (no hot regions are marked there).
LAYER_DIRS = ("include/dmps", "src")
OBS_DIRS = ("include/dmps", "src", "tools", "bench")
HOT_DIRS = ("include/dmps", "src", "tools", "bench")

CXX_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

# A justification may trail the marker ("hot-begin(x) — why"), so no $.
MARKER_RE = re.compile(r"//\s*dmps-lint:\s*([a-z-]+)(?:\((?P<arg>[^)]*)\))?")
ALLOW_RE = re.compile(r"//\s*dmps-lint:\s*allow\((?P<rule>[^)]+)\)")
ALLOW_NEXT_RE = re.compile(r"//\s*dmps-lint:\s*allow-next\((?P<rule>[^)]+)\)")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line):
    """Replace // comments, string and char literals with spaces so bans
    do not fire on prose or quoted text. Column positions are preserved."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            out.append(" " * (n - i))
            break
        if c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    out.append("  ")
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(" ")
                    i += 1
                    break
                out.append(" ")
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def iter_cxx_files(root, subdirs):
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                yield path


def allowed_on(lines, idx, rule):
    """True when line idx (0-based) carries allow(rule) or the previous
    line carries allow-next(rule)."""
    m = ALLOW_RE.search(lines[idx])
    if m and m.group("rule").strip() == rule:
        return True
    if idx > 0:
        m = ALLOW_NEXT_RE.search(lines[idx - 1])
        if m and m.group("rule").strip() == rule:
            return True
    return False


# ----------------------------------------------------------------- layer DAG


def parse_layer_dag(design_path):
    """The ```dmps-layers block: one `layer: dep dep` line per layer.
    Returns ({layer: set(deps)}, {layer: DESIGN.md line number}) or None
    when the block is missing."""
    try:
        text = design_path.read_text()
    except OSError:
        return None
    m = re.search(r"```dmps-layers\n(.*?)```", text, re.S)
    if not m:
        return None
    first_line = text.count("\n", 0, m.start(1)) + 1
    dag = {}
    lines = {}
    for offset, raw in enumerate(m.group(1).splitlines()):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, deps = line.partition(":")
        dag[name.strip()] = set(deps.split())
        lines[name.strip()] = first_line + offset
    return dag, lines


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([a-z_0-9]+)/[^"]+"')


def check_layers(root, violations, config_errors):
    parsed = parse_layer_dag(root / "DESIGN.md")
    if parsed is None:
        config_errors.append(
            "DESIGN.md: no ```dmps-layers fenced block found — the layer "
            "check needs the DAG declared there (see §10)")
        return
    dag, dag_lines = parsed
    layers = set(dag)
    used = set()
    for path in iter_cxx_files(root, LAYER_DIRS):
        rel = path.relative_to(root)
        parts = rel.parts
        # include/dmps/<layer>/... or src/<layer>/...
        layer = parts[2] if parts[0] == "include" else parts[1]
        if layer not in layers:
            config_errors.append(
                f"{rel}: layer '{layer}' is not declared in DESIGN.md's "
                "dmps-layers block")
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            target = m.group(1)
            if target not in layers or target == layer:
                continue
            used.add((layer, target))
            if target not in dag[layer]:
                violations.append(Violation(
                    rel, lineno, "layer",
                    f"illegal include edge {layer} -> {target}: DESIGN.md "
                    f"allows {layer} -> "
                    f"{{{', '.join(sorted(dag[layer])) or 'nothing'}}} — "
                    "either the include is an architecture break or the "
                    "DAG in DESIGN.md §10 needs a deliberate update"))
    for layer in sorted(dag):
        for target in sorted(dag[layer]):
            if (layer, target) not in used:
                violations.append(Violation(
                    "DESIGN.md", dag_lines[layer], "layer",
                    f"declared edge {layer} -> {target} is unused: no "
                    f"{layer} file includes any {target}/ header — drop it "
                    "from the dmps-layers block"))


# ------------------------------------------------------------- obs-register


OBS_CALL_RE = re.compile(
    r"[.\w>]\s*\.\s*(counter|gauge|histogram|gauge_callback)\s*\(")
OBS_PACK_RE = re.compile(r"\b(FloorInstruments|WireInstruments)\s+\w+\s*[({]")


def check_obs(root, violations, config_errors):
    for path in iter_cxx_files(root, OBS_DIRS):
        rel = path.relative_to(root)
        # The registry implementation itself defines find-or-create.
        if rel.as_posix() in ("include/dmps/obs/registry.hpp",
                              "include/dmps/obs/metrics.hpp",
                              "src/obs/registry.cpp"):
            in_exempt_impl = True
        else:
            in_exempt_impl = False
        lines = path.read_text().splitlines()
        in_region = False
        for idx, raw in enumerate(lines):
            m = MARKER_RE.search(raw)
            if m:
                kind = m.group(1)
                if kind == "obs-register-begin":
                    if in_region:
                        config_errors.append(
                            f"{rel}:{idx + 1}: nested obs-register-begin")
                    in_region = True
                    continue
                if kind == "obs-register-end":
                    if not in_region:
                        config_errors.append(
                            f"{rel}:{idx + 1}: obs-register-end without begin")
                    in_region = False
                    continue
            if in_region:
                continue
            code = strip_comments_and_strings(raw)
            hit = OBS_CALL_RE.search(code) or OBS_PACK_RE.search(code)
            if not hit:
                continue
            if in_exempt_impl or allowed_on(lines, idx, "obs-register"):
                continue
            violations.append(Violation(
                rel, idx + 1, "obs-register",
                f"instrument creation ('{hit.group(0).strip()}') outside an "
                "obs-register region: registration must happen in init/ctor "
                "code before any hot path runs (DESIGN.md §7, §10) — wrap the "
                "init region in '// dmps-lint: obs-register-begin/end' or "
                "move the call"))
        if in_region:
            config_errors.append(f"{rel}: obs-register-begin never closed")


# -------------------------------------------------------------- wire-schema


def check_wire_schema(root, violations, config_errors):
    hdr = root / "include/dmps/fproto/codec.hpp"
    impl = root / "src/fproto/codec.cpp"
    test = root / "tests/test_transport.cpp"
    try:
        hdr_text = hdr.read_text()
        impl_text = impl.read_text()
        test_text = test.read_text()
    except OSError as e:
        config_errors.append(f"wire-schema: cannot read {e.filename}")
        return
    m = re.search(r"enum class MsgKind\s*\{(.*?)\};", hdr_text, re.S)
    if not m:
        config_errors.append(f"{hdr.relative_to(root)}: MsgKind enum not found")
        return
    kinds = re.findall(r"\b(k[A-Z]\w*)\s*[,=}]",
                       strip_block(m.group(1)))
    if not kinds:
        config_errors.append(
            f"{hdr.relative_to(root)}: no MsgKind enumerators parsed")
        return
    count_m = re.search(r"kMsgKindCount\s*=\s*(\d+)", hdr_text)
    if not count_m:
        config_errors.append(
            f"{hdr.relative_to(root)}: kMsgKindCount literal not found")
    elif int(count_m.group(1)) != len(kinds):
        violations.append(Violation(
            hdr.relative_to(root), line_of(hdr_text, "kMsgKindCount"),
            "wire-schema",
            f"kMsgKindCount = {count_m.group(1)} but MsgKind declares "
            f"{len(kinds)} enumerators — the wire id range and the enum "
            "drifted apart"))
    wire_m = re.search(
        r"net::MsgType wire_type\(MsgKind kind\)\s*\{(.*?)\n\}", impl_text,
        re.S)
    tostr_m = re.search(
        r"to_string\(MsgKind kind\)\s*\{(.*?)\n\}", impl_text, re.S)
    for kind in kinds:
        if wire_m and f"MsgKind::{kind}" not in wire_m.group(1):
            violations.append(Violation(
                impl.relative_to(root), line_of(impl_text, "wire_type"),
                "wire-schema",
                f"MsgKind::{kind} missing from the wire_type() table — the "
                "kind cannot be framed, so every send of it would hit an "
                "out-of-range wire id"))
        if tostr_m and f"MsgKind::{kind}" not in tostr_m.group(1):
            violations.append(Violation(
                impl.relative_to(root), line_of(impl_text, "to_string"),
                "wire-schema",
                f"MsgKind::{kind} missing from the to_string() switch — "
                "traces and the interned type name would read fp.unknown"))
        # kJoinAck -> JoinAckMsg: the round-trip test must encode one.
        token = kind[1:] + "Msg"
        if token not in test_text:
            violations.append(Violation(
                test.relative_to(root), line_of(test_text, "sample_payloads"),
                "wire-schema",
                f"no fproto::{token} sample in tests/test_transport.cpp "
                f"sample_payloads() — MsgKind::{kind} is not covered by the "
                "frame round-trip test"))
    if wire_m:
        table_kinds = set(re.findall(r"MsgKind::(k\w+)", wire_m.group(1)))
        for stray in sorted(table_kinds - set(kinds)):
            violations.append(Violation(
                impl.relative_to(root), line_of(impl_text, "wire_type"),
                "wire-schema",
                f"wire_type() names MsgKind::{stray} which the enum does "
                "not declare"))

    # docs/WIRE.md publishes the kind table (wire id, type name, lane count)
    # for third-party clients; cross-check it against the code so the doc
    # cannot rot. Ground truth: enum order for ids, the to_string() switch
    # for names, the codec's well_formed(msg, kind, N) guards for lanes.
    names = dict(re.findall(
        r'case MsgKind::(k\w+):\s*return\s*"([^"]+)"',
        tostr_m.group(1))) if tostr_m else {}
    lane_counts = {}
    for kind, lanes in re.findall(
            r"well_formed\(msg,\s*MsgKind::(k\w+),\s*(\d+)\)", impl_text):
        lane_counts.setdefault(kind, int(lanes))
    doc = root / "docs/WIRE.md"
    try:
        doc_text = doc.read_text()
    except OSError:
        violations.append(Violation(
            Path("docs/WIRE.md"), 1, "wire-schema",
            "docs/WIRE.md is missing — the wire protocol doc must exist and "
            "carry the dmps-lint: wire-kind-table kind table"))
        return
    doc_rel = doc.relative_to(root)
    marker = "dmps-lint: wire-kind-table"
    if marker not in doc_text:
        violations.append(Violation(
            doc_rel, 1, "wire-schema",
            f"no '{marker}' marker in docs/WIRE.md — the kind table must be "
            "tagged so this check can find it"))
        return
    doc_rows = {}
    for cells, lineno in table_rows(doc_text, marker):
        if len(cells) < 4 or not cells[0].isdigit():
            continue  # header / separator row
        doc_rows[cells[1]] = (int(cells[0]), cells[2].strip("`"),
                              int(cells[3]), lineno)
    for wire_id, kind in enumerate(kinds):
        if kind not in doc_rows:
            violations.append(Violation(
                doc_rel, line_of(doc_text, marker), "wire-schema",
                f"MsgKind::{kind} missing from the docs/WIRE.md kind table — "
                "a third-party client reading the doc would not know the "
                "kind exists"))
            continue
        doc_id, doc_name, doc_lanes, lineno = doc_rows[kind]
        if doc_id != wire_id:
            violations.append(Violation(
                doc_rel, lineno, "wire-schema",
                f"docs/WIRE.md gives {kind} wire id {doc_id} but the MsgKind "
                f"enum order says {wire_id} — frames built from the doc "
                "would carry the wrong kind byte"))
        if kind in names and doc_name != names[kind]:
            violations.append(Violation(
                doc_rel, lineno, "wire-schema",
                f"docs/WIRE.md names {kind} '{doc_name}' but to_string() "
                f"says '{names[kind]}'"))
        if kind in lane_counts and doc_lanes != lane_counts[kind]:
            violations.append(Violation(
                doc_rel, lineno, "wire-schema",
                f"docs/WIRE.md gives {kind} {doc_lanes} lanes but the "
                f"codec's well_formed guard requires {lane_counts[kind]} — "
                "a client framing from the doc would be dropped as "
                "malformed"))
    for stray in sorted(set(doc_rows) - set(kinds)):
        violations.append(Violation(
            doc_rel, doc_rows[stray][3], "wire-schema",
            f"docs/WIRE.md documents {stray} which the MsgKind enum does "
            "not declare"))
    check_frame_limits(root, doc_rel, doc_text, violations, config_errors)


# The frame limits docs/WIRE.md publishes, each a constant in frame.hpp.
FRAME_LIMITS = ("kFrameVersion", "kFrameMaxLanes", "kFrameMaxBytes",
                "kDatagramMaxBytes")
CONSTEXPR_RE = re.compile(r"inline\s+constexpr\s+[\w:]+\s+(k\w+)\s*=\s*([^;]+);")
INT_LITERAL_RE = re.compile(r"\b(0[xX][0-9a-fA-F]+|\d+)[uUlL]*\b")


def header_constants(text):
    """The integer constants a header defines, folding expressions of
    earlier ones (`kA + kB * 8`). A constant whose expression is not plain
    integer arithmetic is left out."""
    values = {}
    for name, expr in CONSTEXPR_RE.findall(strip_block(text)):
        expr = INT_LITERAL_RE.sub(lambda m: str(int(m.group(1), 0)), expr)
        expr = re.sub(r"\bk\w+\b",
                      lambda m: str(values.get(m.group(0), m.group(0))), expr)
        if re.fullmatch(r"[\d\s+*()-]+", expr):
            values[name] = eval(expr, {"__builtins__": {}}, {})  # digits only
    return values


def check_frame_limits(root, doc_rel, doc_text, violations, config_errors):
    """docs/WIRE.md's frame-limits table against the constants in
    include/dmps/transport/frame.hpp, which the endpoints frame by."""
    hdr = root / "include/dmps/transport/frame.hpp"
    try:
        constants = header_constants(hdr.read_text())
    except OSError as e:
        config_errors.append(f"wire-schema: cannot read {e.filename}")
        return
    marker = "dmps-lint: wire-frame-limits"
    if marker not in doc_text:
        violations.append(Violation(
            doc_rel, 1, "wire-schema",
            f"no '{marker}' marker in docs/WIRE.md — the frame limits "
            "(version, lanes, frame and datagram bytes) must be tagged so "
            "this check can find them"))
        return
    doc_values = {}
    for cells, lineno in table_rows(doc_text, marker):
        name = cells[0].strip("`")
        value = cells[1].replace(",", "") if len(cells) > 1 else ""
        if name in FRAME_LIMITS and value.isdigit():
            doc_values[name] = (int(value), lineno)
    for name in FRAME_LIMITS:
        if name not in constants:
            config_errors.append(
                f"{hdr.relative_to(root)}: no integer constant {name} found")
            continue
        if name not in doc_values:
            violations.append(Violation(
                doc_rel, line_of(doc_text, marker), "wire-schema",
                f"{name} missing from the docs/WIRE.md frame-limits table"))
            continue
        value, lineno = doc_values[name]
        if value != constants[name]:
            violations.append(Violation(
                doc_rel, lineno, "wire-schema",
                f"docs/WIRE.md gives {name} = {value} but frame.hpp says "
                f"{constants[name]} — a client built from the doc would "
                "frame datagrams the daemon drops"))


def table_rows(text, marker):
    """(cells, line number) for each row of the first markdown table after
    the line holding `marker`."""
    rows = []
    in_table = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if marker in line:
            in_table = True
            continue
        if not in_table:
            continue
        stripped = line.strip()
        if not stripped.startswith("|"):
            if rows:
                break  # table ended
            continue
        rows.append(([c.strip() for c in stripped.strip("|").split("|")],
                     lineno))
    return rows


def strip_block(text):
    return "\n".join(strip_comments_and_strings(l) for l in text.splitlines())


def line_of(text, needle):
    for lineno, line in enumerate(text.splitlines(), 1):
        if needle in line:
            return lineno
    return 1


# ---------------------------------------------------------------- hot paths


# Hash-map members whose insert can allocate: a std::unordered_map node,
# or a util::FlatMap growing its slot array.
UMAP_DECL_RE = re.compile(
    r"(?:std::unordered_map|\butil::FlatMap)<.*?>\s+(\w+)\s*"
    r"(?:DMPS_GUARDED_BY\([^)]*\))?\s*[;={]",
    re.S)
NEW_RE = re.compile(r"\bnew\b")
STD_FUNCTION_RE = re.compile(r"\bstd::function\s*<")
# printf, fprintf, sprintf, snprintf and their v-forms; std::to_string;
# the string streams.
FORMAT_RE = re.compile(
    r"\b(?:v?(?:f|s|sn)?printf\s*\(|std::to_string\s*\(|"
    r"(?:std::)?(?:basic_)?[io]?stringstream\b)")


QUOTED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


def collect_umap_members(root):
    """{member name: set of the declaring files, as root-relative posix
    paths} for every std::unordered_map or util::FlatMap member."""
    decls = {}
    for path in iter_cxx_files(root, LAYER_DIRS):
        rel = path.relative_to(root).as_posix()
        for m in UMAP_DECL_RE.finditer(path.read_text()):
            decls.setdefault(m.group(1), set()).add(rel)
    return decls


def umap_names_in_scope(rel, text, decls):
    """The map member names the hot rule checks in file `rel`: the ones
    it declares itself and, for a .cpp, the ones declared in a header it
    includes directly (`#include "floor/x.hpp"` names
    include/dmps/floor/x.hpp)."""
    scope = {rel.as_posix()}
    if rel.suffix in (".cpp", ".cc"):
        scope.update("include/dmps/" + inc
                     for inc in QUOTED_INCLUDE_RE.findall(text))
    return sorted(name for name, files in decls.items() if files & scope)


def parse_hot_regions(design_path):
    """The ```dmps-hot-regions block: region names, whitespace-separated.
    Returns the set of names, or None when the block is missing."""
    try:
        text = design_path.read_text()
    except OSError:
        return None
    m = re.search(r"```dmps-hot-regions\n(.*?)```", text, re.S)
    if not m:
        return None
    names = set()
    for raw in m.group(1).splitlines():
        names.update(raw.split("#", 1)[0].split())
    return names


def check_hot(root, violations, config_errors):
    declared = parse_hot_regions(root / "DESIGN.md")
    if declared is None:
        config_errors.append(
            "DESIGN.md: no ```dmps-hot-regions fenced block found — the hot "
            "check needs the alloc-probed region names declared there "
            "(see §10.3)")
        declared = set()
    seen = set()
    umap_decls = collect_umap_members(root)
    for path in iter_cxx_files(root, HOT_DIRS):
        rel = path.relative_to(root)
        text = path.read_text()
        lines = text.splitlines()
        mutate_re = None
        umap_names = umap_names_in_scope(rel, text, umap_decls)
        if umap_names:
            alts = "|".join(re.escape(n) for n in umap_names)
            mutate_re = re.compile(
                r"\b(?:%s)\s*(?:\[|\.\s*(?:insert|emplace|try_emplace|"
                r"erase|clear|operator\[\])\s*\()" % alts)
        region = None  # (name, begin_line)
        for idx, raw in enumerate(lines):
            m = MARKER_RE.search(raw)
            if m:
                kind = m.group(1)
                if kind == "hot-begin":
                    if region:
                        config_errors.append(
                            f"{rel}:{idx + 1}: nested hot-begin (inside "
                            f"'{region[0]}' from line {region[1]})")
                    region = (m.group("arg") or "?", idx + 1)
                    seen.add(region[0])
                    if region[0] not in declared:
                        config_errors.append(
                            f"{rel}:{idx + 1}: hot-begin('{region[0]}') names "
                            "a region not listed in DESIGN.md's "
                            "dmps-hot-regions block — list it there or fix "
                            "the name")
                    continue
                if kind == "hot-end":
                    if not region:
                        config_errors.append(
                            f"{rel}:{idx + 1}: hot-end without hot-begin")
                    region = None
                    continue
            if not region:
                continue
            code = strip_comments_and_strings(raw)
            name = region[0]
            if NEW_RE.search(code) and not allowed_on(lines, idx, "hot-new"):
                violations.append(Violation(
                    rel, idx + 1, "hot-new",
                    f"`new` expression inside hot region '{name}': this "
                    "path is alloc-probed; allocate at setup or pool it "
                    "(escape: dmps-lint: allow(hot-new))"))
            if (STD_FUNCTION_RE.search(code)
                    and not allowed_on(lines, idx, "hot-std-function")):
                violations.append(Violation(
                    rel, idx + 1, "hot-std-function",
                    f"std::function constructed inside hot region '{name}': "
                    "capturing callables allocate; take the callable at "
                    "setup time (escape: dmps-lint: allow(hot-std-function))"))
            fmt = FORMAT_RE.search(code)
            if fmt and not allowed_on(lines, idx, "hot-format"):
                violations.append(Violation(
                    rel, idx + 1, "hot-format",
                    f"text formatting ('{fmt.group(0).rstrip('( ')}') inside "
                    f"hot region '{name}': this path runs per operation; "
                    "carry a code and render text off the path (escape: "
                    "dmps-lint: allow(hot-format))"))
            if (mutate_re and mutate_re.search(code)
                    and not allowed_on(lines, idx, "hot-unordered-map")):
                hit = mutate_re.search(code).group(0).strip()
                violations.append(Violation(
                    rel, idx + 1, "hot-unordered-map",
                    f"hash-map insert or mutation ('{hit}') inside hot "
                    f"region '{name}': an insert can allocate (a "
                    "std::unordered_map node, a util::FlatMap growing its "
                    "slots) on this alloc-probed path (escape: dmps-lint: "
                    "allow(hot-unordered-map) with a justification)"))
        if region:
            config_errors.append(
                f"{rel}: hot-begin('{region[0]}') at line {region[1]} "
                "never closed")
    for name in sorted(declared - seen):
        config_errors.append(
            f"DESIGN.md: hot region '{name}' is listed in the "
            "dmps-hot-regions block but no hot-begin marker names it — the "
            "code it guarded moved or was deleted without its marker")


# --------------------------------------------------------------------- main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repo root (default: this script's parent dir)")
    parser.add_argument("--check", action="append",
                        choices=["layer", "obs-register", "wire-schema",
                                 "hot"],
                        help="run only these checks (default: all)")
    args = parser.parse_args(argv)
    root = args.root.resolve()

    violations = []
    config_errors = []
    checks = args.check or ["layer", "obs-register", "wire-schema", "hot"]
    if "layer" in checks:
        check_layers(root, violations, config_errors)
    if "obs-register" in checks:
        check_obs(root, violations, config_errors)
    if "wire-schema" in checks:
        check_wire_schema(root, violations, config_errors)
    if "hot" in checks:
        check_hot(root, violations, config_errors)

    for err in config_errors:
        print(f"dmps_lint: config error: {err}", file=sys.stderr)
    for v in violations:
        print(v)
    if config_errors:
        return 2
    if violations:
        print(f"dmps_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"dmps_lint: clean ({', '.join(checks)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
