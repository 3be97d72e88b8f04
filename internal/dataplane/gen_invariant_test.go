package dataplane

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStateMutatesOnlyBehindGen guards the invariant the packet engine's
// forward-decision memo rests on: outside this package nothing in non-test
// code mutates a switch's Tables, Groups or Meters directly (Apply,
// ExpireEntries and Reset bump Gen; a direct sw.Tables[i].Add would serve
// stale decisions at packet fidelity only), and link liveness changes only
// where the control plane's Invalidate follows.
func TestStateMutatesOnlyBehindGen(t *testing.T) {
	findings, err := genBypasses(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestGenBypassesSkipsIgnoredDirs pins which directories genBypasses
// reads: a direct Tables[i].Add in an ordinary directory is reported, and
// the same file where the go tool ignores it (a directory whose name
// starts with "." or "_", or testdata) is not.
func TestGenBypassesSkipsIgnoredDirs(t *testing.T) {
	root := t.TempDir()
	src := "package p\n\nfunc f(sw *S) { sw.Tables[0].Add(nil) }\n"
	for _, dir := range []string{"pkg", ".bench_build/pairs/src", "_old", "pkg/testdata"} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, dir, "x.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := genBypasses(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], filepath.Join(root, "pkg", "x.go")) {
		t.Errorf("findings %q, want one in pkg/x.go", findings)
	}
}

// genBypasses parses every non-test Go file under root that the go tool
// would build — it skips directories whose names start with "." or "_"
// and testdata, as the go tool does, besides benchmark/ (its own module,
// which probes tables in isolation) and this package — and returns a
// finding for each direct mutation of switch state and each link flip
// outside the control plane's link-change handler.
func genBypasses(root string) ([]string, error) {
	mutators := map[string]bool{"Add": true, "Delete": true, "DeleteStrict": true, "Expire": true}
	state := map[string]bool{"Tables": true, "Groups": true, "Meters": true}
	// The control plane's link-change handler, which invalidates right
	// after.
	mayFlipLinks := map[string]bool{
		"internal/netgraph/netgraph.go": true,
		"internal/flowsim/control.go":   true,
	}
	// stateField names the field behind x.Tables[i], x.Groups or x.Meters.
	// The check is syntactic, so a bare x.Tables (a report's tables, say)
	// is not taken for a switch's.
	stateField := func(e ast.Expr) string {
		ix, indexed := e.(*ast.IndexExpr)
		if indexed {
			e = ix.X
		}
		if sel, ok := e.(*ast.SelectorExpr); ok && state[sel.Sel.Name] && indexed == (sel.Sel.Name == "Tables") {
			return sel.Sel.Name
		}
		return ""
	}
	var findings []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" ||
				rel == "benchmark" || rel == "internal/dataplane") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if field := stateField(sel.X); field != "" && mutators[sel.Sel.Name] {
					findings = append(findings, fmt.Sprintf("%s: direct %s.%s bypasses Switch.Gen; go through Switch.Apply",
						fset.Position(n.Pos()), field, sel.Sel.Name))
				}
				if sel.Sel.Name == "SetLinkUp" && !mayFlipLinks[rel] {
					findings = append(findings, fmt.Sprintf("%s: SetLinkUp outside the control plane's link-change handler skips Switch.Invalidate",
						fset.Position(n.Pos())))
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if field := stateField(lhs); field != "" {
						findings = append(findings, fmt.Sprintf("%s: assignment to %s bypasses Switch.Gen; use Switch.Reset",
							fset.Position(n.Pos()), field))
					}
				}
			}
			return true
		})
		return nil
	})
	return findings, err
}
