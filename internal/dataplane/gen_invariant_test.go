package dataplane

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			// benchmark/ is its own module and probes tables in isolation.
			if rel == ".git" || rel == "benchmark" || rel == "internal/dataplane" || d.Name() == "testdata" {
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
					t.Errorf("%s: direct %s.%s bypasses Switch.Gen; go through Switch.Apply",
						fset.Position(n.Pos()), field, sel.Sel.Name)
				}
				if sel.Sel.Name == "SetLinkUp" && !mayFlipLinks[rel] {
					t.Errorf("%s: SetLinkUp outside the control plane's link-change handler skips Switch.Invalidate",
						fset.Position(n.Pos()))
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if field := stateField(lhs); field != "" {
						t.Errorf("%s: assignment to %s bypasses Switch.Gen; use Switch.Reset",
							fset.Position(n.Pos()), field)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
