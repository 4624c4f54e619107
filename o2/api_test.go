package o2

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.txt from the current source")

// exportedSurface lists the package's exported API, one sorted line per
// identifier: exported top-level funcs, types, vars, and consts, the
// exported fields of exported structs, and the exported methods of
// exported types.
func exportedSurface(t *testing.T) []byte {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var lines []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case !d.Name.IsExported():
				case d.Recv == nil:
					lines = append(lines, "func "+d.Name.Name)
				default:
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
						lines = append(lines, "method "+id.Name+"."+d.Name.Name)
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						lines = append(lines, "type "+s.Name.Name)
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							for _, n := range field.Names {
								if n.IsExported() {
									lines = append(lines, "field "+s.Name.Name+"."+n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								lines = append(lines, d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}

// TestExportedSurface pins the package's exported API in testdata/api.txt,
// so every addition or removal shows up in review as a diff of that file
// and `wc -l testdata/api.txt` counts the surface. After an intentional
// API change, regenerate with `go test ./o2 -run ExportedSurface -update`.
func TestExportedSurface(t *testing.T) {
	got := exportedSurface(t)
	golden := filepath.Join("testdata", "api.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update): %v", golden, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exported API drifted from %s.\nGot:\n%s\nIf intentional, rerun with -update and review the diff.", golden, got)
	}
}
