#!/usr/bin/env python3
"""Unit tests for ci/dmps_lint.py.

Each invariant class gets a synthetic mini-repo: one seeded violation
that must FAIL with a pointed message, and a clean variant that must
PASS. Runs under ctest as ci.dmps_lint_unit (pure Python, no build)."""

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import dmps_lint  # noqa: E402

DESIGN_WITH_DAG = """# design
## 10
```dmps-layers
util:
obs: util
floor: util obs
transport: util
fproto: util obs floor
```
```dmps-hot-regions
drain
route
```
"""

# Marks both declared hot regions, so a tree without any other hot code
# satisfies the region list.
REGIONS_CPP = """// dmps-lint: hot-begin(drain)
void drain_loop() {}
// dmps-lint: hot-end
// dmps-lint: hot-begin(route)
void route_map() {}
// dmps-lint: hot-end
"""

CODEC_HPP = """#pragma once
enum class MsgKind {
  kJoin,
  kGrant,
};
inline constexpr std::size_t kMsgKindCount = 2;
"""

CODEC_CPP = """#include "fproto/codec.hpp"
std::string_view to_string(MsgKind kind) {
  switch (kind) {
    case MsgKind::kJoin: return "fp.join";
    case MsgKind::kGrant: return "fp.grant";
  }
  return "fp.unknown";
}
net::MsgType wire_type(MsgKind kind) {
  static const net::MsgType types[] = {
      net::msg_type(to_string(MsgKind::kJoin)),
      net::msg_type(to_string(MsgKind::kGrant)),
  };
  return types[static_cast<int>(kind)];
}
std::optional<JoinMsg> decode_join(const net::Message& msg) {
  if (!well_formed(msg, MsgKind::kJoin, 2)) return std::nullopt;
  return JoinMsg{};
}
std::optional<GrantMsg> decode_grant(const net::Message& msg) {
  if (!well_formed(msg, MsgKind::kGrant, 3)) return std::nullopt;
  return GrantMsg{};
}
"""

FRAME_HPP = """#pragma once
inline constexpr std::uint32_t kFrameMagic = 0x53504D44u;  // "DMPS" LE
inline constexpr std::uint8_t kFrameVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 8;
inline constexpr std::size_t kFrameMaxLanes = 16;
inline constexpr std::size_t kFrameMaxBytes =
    kFrameHeaderBytes + kFrameMaxLanes * 8;
inline constexpr std::size_t kDatagramMaxBytes = 1472;
"""

WIRE_MD = """# wire doc
<!-- dmps-lint: wire-frame-limits -->
| constant            | value | meaning |
|---------------------|------:|---------|
| `kFrameVersion`     |     2 | version |
| `kFrameMaxLanes`    |    16 | lanes   |
| `kFrameMaxBytes`    |   136 | frame   |
| `kDatagramMaxBytes` |  1472 | datagram |

<!-- dmps-lint: wire-kind-table -->
| id | kind   | type name  | lanes | direction |
|---:|--------|------------|------:|-----------|
|  0 | kJoin  | `fp.join`  |     2 | c->s      |
|  1 | kGrant | `fp.grant` |     3 | s->c      |
"""

TEST_TRANSPORT = """// round-trip test
std::vector<net::Payload> sample_payloads() {
  return {
      fproto::encode(fproto::JoinMsg{}),
      fproto::encode(fproto::GrantMsg{}),
  };
}
"""


def write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def make_repo(root):
    """A minimal tree every check can run over without config errors."""
    write(root, "DESIGN.md", DESIGN_WITH_DAG)
    write(root, "include/dmps/util/a.hpp", "#pragma once\n")
    write(root, "include/dmps/obs/b.hpp", '#include "util/a.hpp"\n')
    write(root, "include/dmps/floor/c.hpp", '#include "obs/b.hpp"\n')
    write(root, "include/dmps/fproto/codec.hpp", CODEC_HPP)
    write(root, "src/fproto/codec.cpp", CODEC_CPP)
    write(root, "include/dmps/transport/frame.hpp", FRAME_HPP)
    write(root, "tests/test_transport.cpp", TEST_TRANSPORT)
    write(root, "docs/WIRE.md", WIRE_MD)
    write(root, "src/floor/regions.cpp", REGIONS_CPP)


class LintCase(unittest.TestCase):
    def run_lint(self, root, checks=None):
        argv = ["--root", str(root)]
        for c in checks or []:
            argv += ["--check", c]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = dmps_lint.main(argv)
        return status, out.getvalue(), err.getvalue()

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        make_repo(self.root)

    def tearDown(self):
        self._tmp.cleanup()


class CleanTree(LintCase):
    def test_clean_tree_passes_all_checks(self):
        status, out, err = self.run_lint(self.root)
        self.assertEqual(status, 0, msg=out + err)
        self.assertIn("clean", out)


class LayerDag(LintCase):
    def test_upward_include_fails_with_edge_named(self):
        # util is the bottom layer; including floor from it is upward.
        write(self.root, "src/util/bad.cpp", '#include "floor/c.hpp"\n')
        status, out, _ = self.run_lint(self.root, ["layer"])
        self.assertEqual(status, 1)
        self.assertIn("illegal include edge util -> floor", out)
        self.assertIn("src/util/bad.cpp:1", out)

    def test_declared_edge_passes(self):
        write(self.root, "src/floor/ok.cpp", '#include "util/a.hpp"\n')
        status, out, err = self.run_lint(self.root, ["layer"])
        self.assertEqual(status, 0, msg=out + err)

    def test_missing_dag_block_is_config_error(self):
        write(self.root, "DESIGN.md", "# design without the block\n")
        status, _, err = self.run_lint(self.root, ["layer"])
        self.assertEqual(status, 2)
        self.assertIn("dmps-layers", err)


class ObsRegister(LintCase):
    def test_unmarked_registration_fails(self):
        write(self.root, "src/floor/svc.cpp",
              "void f(R& registry) {\n"
              '  registry.counter("floor.requests").inc();\n'
              "}\n")
        status, out, _ = self.run_lint(self.root, ["obs-register"])
        self.assertEqual(status, 1)
        self.assertIn("obs-register", out)
        self.assertIn("src/floor/svc.cpp:2", out)
        self.assertIn("before any hot path runs", out)

    def test_marked_region_passes(self):
        write(self.root, "src/floor/svc.cpp",
              "void init(R& registry) {\n"
              "  // dmps-lint: obs-register-begin\n"
              '  registry.counter("floor.requests");\n'
              "  // dmps-lint: obs-register-end\n"
              "}\n")
        status, out, err = self.run_lint(self.root, ["obs-register"])
        self.assertEqual(status, 0, msg=out + err)

    def test_pack_construction_outside_region_fails(self):
        write(self.root, "tools/t.cpp",
              "int main() {\n"
              "  obs::FloorInstruments pack(metrics);\n"
              "}\n")
        status, out, _ = self.run_lint(self.root, ["obs-register"])
        self.assertEqual(status, 1)
        self.assertIn("FloorInstruments pack(", out)

    def test_mention_in_comment_or_string_ignored(self):
        write(self.root, "src/floor/doc.cpp",
              "// call registry.counter(name) only at init\n"
              'const char* kDoc = "registry.histogram(x)";\n')
        status, out, err = self.run_lint(self.root, ["obs-register"])
        self.assertEqual(status, 0, msg=out + err)

    def test_unclosed_region_is_config_error(self):
        write(self.root, "src/floor/svc.cpp",
              "// dmps-lint: obs-register-begin\n")
        status, _, err = self.run_lint(self.root, ["obs-register"])
        self.assertEqual(status, 2)
        self.assertIn("never closed", err)


class WireSchema(LintCase):
    def test_kind_missing_from_wire_type_table_fails(self):
        write(self.root, "src/fproto/codec.cpp",
              CODEC_CPP.replace(
                  "      net::msg_type(to_string(MsgKind::kGrant)),\n", ""))
        status, out, _ = self.run_lint(self.root, ["wire-schema"])
        self.assertEqual(status, 1)
        self.assertIn("MsgKind::kGrant missing from the wire_type() table",
                      out)

    def test_kind_missing_from_round_trip_test_fails(self):
        write(self.root, "tests/test_transport.cpp",
              TEST_TRANSPORT.replace(
                  "      fproto::encode(fproto::GrantMsg{}),\n", ""))
        status, out, _ = self.run_lint(self.root, ["wire-schema"])
        self.assertEqual(status, 1)
        self.assertIn("no fproto::GrantMsg sample", out)

    def test_count_drift_fails(self):
        write(self.root, "include/dmps/fproto/codec.hpp",
              CODEC_HPP.replace("kMsgKindCount = 2", "kMsgKindCount = 3"))
        status, out, _ = self.run_lint(self.root, ["wire-schema"])
        self.assertEqual(status, 1)
        self.assertIn("kMsgKindCount = 3 but MsgKind declares 2", out)

    def test_doc_wrong_lane_count_fails(self):
        write(self.root, "docs/WIRE.md",
              WIRE_MD.replace("| `fp.grant` |     3 |",
                              "| `fp.grant` |     4 |"))
        status, out, _ = self.run_lint(self.root, ["wire-schema"])
        self.assertEqual(status, 1)
        self.assertIn("kGrant 4 lanes but the codec's well_formed guard "
                      "requires 3", out)

    def test_doc_wrong_wire_id_fails(self):
        write(self.root, "docs/WIRE.md",
              WIRE_MD.replace("|  1 | kGrant", "|  2 | kGrant"))
        status, out, _ = self.run_lint(self.root, ["wire-schema"])
        self.assertEqual(status, 1)
        self.assertIn("kGrant wire id 2 but the MsgKind enum order says 1",
                      out)

    def test_doc_wrong_type_name_fails(self):
        write(self.root, "docs/WIRE.md",
              WIRE_MD.replace("`fp.grant`", "`fp.award`"))
        status, out, _ = self.run_lint(self.root, ["wire-schema"])
        self.assertEqual(status, 1)
        self.assertIn("names kGrant 'fp.award' but to_string() says "
                      "'fp.grant'", out)

    def test_doc_missing_kind_row_fails(self):
        write(self.root, "docs/WIRE.md",
              "\n".join(l for l in WIRE_MD.splitlines()
                        if "kGrant" not in l) + "\n")
        status, out, _ = self.run_lint(self.root, ["wire-schema"])
        self.assertEqual(status, 1)
        self.assertIn("MsgKind::kGrant missing from the docs/WIRE.md kind "
                      "table", out)

    def test_doc_stray_kind_row_fails(self):
        write(self.root, "docs/WIRE.md",
              WIRE_MD + "|  2 | kBogus | `fp.bogus` |     1 | c->s |\n")
        status, out, _ = self.run_lint(self.root, ["wire-schema"])
        self.assertEqual(status, 1)
        self.assertIn("documents kBogus which the MsgKind enum does not "
                      "declare", out)

    def test_missing_doc_fails(self):
        (self.root / "docs/WIRE.md").unlink()
        status, out, _ = self.run_lint(self.root, ["wire-schema"])
        self.assertEqual(status, 1)
        self.assertIn("docs/WIRE.md is missing", out)

    def test_matching_doc_passes(self):
        status, out, err = self.run_lint(self.root, ["wire-schema"])
        self.assertEqual(status, 0, msg=out + err)

    def test_drifted_frame_constant_fails(self):
        # The header moves, the doc does not; the folded expression
        # (kFrameMaxBytes) drifts with the lane bound it is built from.
        write(self.root, "include/dmps/transport/frame.hpp",
              FRAME_HPP.replace("kFrameMaxLanes = 16", "kFrameMaxLanes = 12")
                       .replace("kDatagramMaxBytes = 1472",
                                "kDatagramMaxBytes = 1400"))
        status, out, _ = self.run_lint(self.root, ["wire-schema"])
        self.assertEqual(status, 1)
        self.assertIn("gives kFrameMaxLanes = 16 but frame.hpp says 12", out)
        self.assertIn("gives kFrameMaxBytes = 136 but frame.hpp says 104",
                      out)
        self.assertIn("gives kDatagramMaxBytes = 1472 but frame.hpp says "
                      "1400", out)

    def test_missing_frame_limits_table_fails(self):
        write(self.root, "docs/WIRE.md",
              WIRE_MD.replace("<!-- dmps-lint: wire-frame-limits -->\n", ""))
        status, out, _ = self.run_lint(self.root, ["wire-schema"])
        self.assertEqual(status, 1)
        self.assertIn("no 'dmps-lint: wire-frame-limits' marker", out)

    def test_frame_limits_row_missing_fails(self):
        write(self.root, "docs/WIRE.md",
              "\n".join(l for l in WIRE_MD.splitlines()
                        if "kFrameVersion" not in l) + "\n")
        status, out, _ = self.run_lint(self.root, ["wire-schema"])
        self.assertEqual(status, 1)
        self.assertIn("kFrameVersion missing from the docs/WIRE.md "
                      "frame-limits table", out)


class HotRegions(LintCase):
    def test_new_inside_hot_region_fails(self):
        write(self.root, "src/floor/hot.cpp",
              "// dmps-lint: hot-begin(drain) — the drain loop\n"
              "void drain() { auto* p = new Op(); }\n"
              "// dmps-lint: hot-end\n")
        status, out, _ = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 1)
        self.assertIn("[hot-new]", out)
        self.assertIn("hot region 'drain'", out)

    def test_std_function_inside_hot_region_fails(self):
        write(self.root, "src/floor/hot.cpp",
              "// dmps-lint: hot-begin(drain)\n"
              "void drain() { std::function<void()> cb = [] {}; }\n"
              "// dmps-lint: hot-end\n")
        status, out, _ = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 1)
        self.assertIn("[hot-std-function]", out)

    def test_unordered_map_mutation_inside_hot_region_fails(self):
        # Member declared in a header; mutated inside a hot region.
        write(self.root, "include/dmps/floor/m.hpp",
              "struct S { std::unordered_map<int, int> routes_; };\n")
        write(self.root, "src/floor/hot.cpp",
              "// dmps-lint: hot-begin(route)\n"
              "void f(S& s) { s.routes_[7] = 1; }\n"
              "// dmps-lint: hot-end\n")
        status, out, _ = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 1)
        self.assertIn("[hot-unordered-map]", out)
        self.assertIn("routes_[", out)

    def test_flat_map_insert_inside_hot_region_fails(self):
        # A util::FlatMap member: operator[] inserts, and an insert can
        # grow the slot array.
        write(self.root, "include/dmps/floor/m.hpp",
              "struct S {\n"
              "  util::FlatMap<RouteList> routes DMPS_GUARDED_BY(mu);\n"
              "};\n")
        write(self.root, "src/floor/hot.cpp",
              "// dmps-lint: hot-begin(route)\n"
              "RouteList* f(S& s) { return s.routes.find(7); }\n"
              "void g(S& s) { s.routes[7].push_back(h); }\n"
              "// dmps-lint: hot-end\n")
        status, out, _ = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 1)
        self.assertIn("hot.cpp:3: [hot-unordered-map]", out)
        self.assertIn("routes[", out)
        self.assertNotIn("hot.cpp:2:", out)

    def test_allow_next_escape_passes(self):
        write(self.root, "include/dmps/floor/m.hpp",
              "struct S { std::unordered_map<int, int> routes_; };\n")
        write(self.root, "src/floor/hot.cpp",
              "// dmps-lint: hot-begin(route)\n"
              "void f(S& s) {\n"
              "  // dmps-lint: allow-next(hot-unordered-map)\n"
              "  s.routes_[7] = 1;\n"
              "}\n"
              "// dmps-lint: hot-end\n")
        status, out, err = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 0, msg=out + err)

    def test_code_outside_region_not_flagged(self):
        write(self.root, "src/floor/cold.cpp",
              "void setup() { auto* p = new Op(); }\n")
        status, out, err = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 0, msg=out + err)

    def test_comment_mentioning_new_not_flagged(self):
        write(self.root, "src/floor/hot.cpp",
              "// dmps-lint: hot-begin(drain)\n"
              "// a new slot is reused here, never allocated\n"
              "void drain() {}\n"
              "// dmps-lint: hot-end\n")
        status, out, err = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 0, msg=out + err)

    def test_format_inside_hot_region_fails(self):
        write(self.root, "src/floor/hot.cpp",
              "// dmps-lint: hot-begin(drain)\n"
              "void decide(char* buf) {\n"
              "  std::snprintf(buf, 16, \"%d\", 7);\n"
              "}\n"
              "// dmps-lint: hot-end\n")
        status, out, _ = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 1)
        self.assertIn("src/floor/hot.cpp:3: [hot-format]", out)
        self.assertIn("'snprintf'", out)
        self.assertIn("hot region 'drain'", out)

    def test_to_string_and_string_streams_inside_hot_region_fail(self):
        write(self.root, "src/floor/hot.cpp",
              "// dmps-lint: hot-begin(route)\n"
              "std::string a = std::to_string(7);\n"
              "std::ostringstream os;\n"
              "std::vfprintf(stderr, fmt, args);\n"
              "// dmps-lint: hot-end\n")
        status, out, _ = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 1)
        self.assertIn("hot.cpp:2: [hot-format] text formatting "
                      "('std::to_string')", out)
        self.assertIn("hot.cpp:3: [hot-format] text formatting "
                      "('std::ostringstream')", out)
        self.assertIn("hot.cpp:4: [hot-format] text formatting "
                      "('vfprintf')", out)

    def test_format_outside_hot_region_passes(self):
        write(self.root, "src/floor/cold.cpp",
              "void explain(char* buf) {\n"
              "  std::snprintf(buf, 16, \"%d\", 7);\n"
              "}\n")
        status, out, err = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 0, msg=out + err)

    def test_format_escape_passes(self):
        write(self.root, "src/floor/hot.cpp",
              "// dmps-lint: hot-begin(drain)\n"
              "void fail(char* buf) {\n"
              "  std::snprintf(buf, 16, \"%d\", 7);  "
              "// dmps-lint: allow(hot-format)\n"
              "  // dmps-lint: allow-next(hot-format)\n"
              "  std::fprintf(stderr, \"fatal\\n\");\n"
              "}\n"
              "// dmps-lint: hot-end\n")
        status, out, err = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 0, msg=out + err)

    def test_format_mention_in_comment_or_string_not_flagged(self):
        write(self.root, "src/floor/hot.cpp",
              "// dmps-lint: hot-begin(drain)\n"
              "// explain() runs snprintf(buf, ...) off this path\n"
              "const char* kNote = \"no std::to_string( or sprintf( here\";\n"
              "void decide() {}  // not an std::ostringstream either\n"
              "// dmps-lint: hot-end\n")
        status, out, err = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 0, msg=out + err)

    def test_listed_region_without_marker_is_config_error(self):
        # The file holding 'route' lost its marker (as a deleted or moved
        # file would take it along): the declared region is now unguarded.
        write(self.root, "src/floor/regions.cpp",
              "// dmps-lint: hot-begin(drain)\n"
              "void drain_loop() {}\n"
              "// dmps-lint: hot-end\n")
        status, _, err = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 2)
        self.assertIn("hot region 'route' is listed", err)

    def test_unlisted_region_marker_is_config_error(self):
        write(self.root, "src/floor/hot.cpp",
              "// dmps-lint: hot-begin(stray)\n"
              "void stray() {}\n"
              "// dmps-lint: hot-end\n")
        status, _, err = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 2)
        self.assertIn("hot-begin('stray') names a region not listed", err)

    def test_missing_hot_regions_block_is_config_error(self):
        write(self.root, "DESIGN.md",
              DESIGN_WITH_DAG.split("```dmps-hot-regions")[0])
        status, _, err = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 2)
        self.assertIn("no ```dmps-hot-regions fenced block", err)

    def test_unbalanced_hot_begin_is_config_error(self):
        write(self.root, "src/floor/hot.cpp",
              "// dmps-lint: hot-begin(drain)\n"
              "void drain() {}\n")
        status, _, err = self.run_lint(self.root, ["hot"])
        self.assertEqual(status, 2)
        self.assertIn("never closed", err)


class RealTree(unittest.TestCase):
    def test_actual_repo_is_clean(self):
        root = Path(__file__).resolve().parent.parent
        if not (root / "DESIGN.md").exists():
            self.skipTest("not running inside the repo")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = dmps_lint.main(["--root", str(root)])
        self.assertEqual(status, 0, msg=out.getvalue() + err.getvalue())


if __name__ == "__main__":
    unittest.main()
