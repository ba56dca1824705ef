package storehash_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tempest/internal/analysis"
	"tempest/internal/analysis/passes/storehash"
)

// linkCopy is the statement in the store's writeRecord that puts the
// chain link into the record before the frame is written.
const linkCopy = "\tcopy(rec[len(body):], nextChain[:])\n"

// TestStoreHash holds the pass to the store's real record framer:
// writeRecord and the declarations it needs are copied out of
// internal/store/disk.go into a fixture package. The copy as it stands
// draws no diagnostic; the same copy without linkCopy draws exactly one.
func TestStoreHash(t *testing.T) {
	src := realFramer(t)
	if findings := analyze(t, src); len(findings) != 0 {
		t.Errorf("the real writeRecord draws %d diagnostics, want none: %v", len(findings), findings)
	}
	mutant := strings.Replace(src, linkCopy, "", 1)
	if mutant == src {
		t.Fatalf("writeRecord in internal/store/disk.go no longer contains %q; update linkCopy", linkCopy)
	}
	findings := analyze(t, mutant)
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "computed but never copied") {
		t.Errorf("writeRecord without its chain-link copy draws %v, want one \"computed but never copied\" diagnostic", findings)
	}
}

// realFramer returns a fixture file holding writeRecord, chainNext, Chain
// and ChainLen exactly as internal/store/disk.go declares them.
func realFramer(t *testing.T) string {
	t.Helper()
	path := filepath.Join("..", "..", "..", "store", "disk.go")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"writeRecord": true, "chainNext": true, "Chain": true, "ChainLen": true}
	var b strings.Builder
	b.WriteString("package store\n\nimport (\n\t\"crypto/sha256\"\n\t\"io\"\n\n\t\"tempest/internal/trace\"\n)\n")
	for _, decl := range f.Decls {
		var names []string
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
		for _, n := range names {
			if want[n] {
				delete(want, n)
				b.WriteString("\n")
				b.Write(raw[fset.Position(decl.Pos()).Offset:fset.Position(decl.End()).Offset])
				b.WriteString("\n")
				break
			}
		}
	}
	if len(want) > 0 {
		t.Fatalf("%s no longer declares %v", path, want)
	}
	return b.String()
}

// analyze runs the pass over src as package internal/store.
func analyze(t *testing.T, src string) []analysis.Finding {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "disk.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: ".", ExtraRoot: root}, "internal/store")
	if err != nil {
		t.Fatalf("loading the fixture: %v\n%s", err, src)
	}
	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{storehash.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}
