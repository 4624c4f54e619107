package o2

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.txt from the current source")

// sourceFiles parses the package's non-test files.
func sourceFiles(t *testing.T) []*ast.File {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// exportedSurface lists the package's exported API, one sorted line per
// identifier: exported top-level funcs, types, vars, and consts, the
// exported fields of exported structs, and the exported methods of
// exported types.
func exportedSurface(t *testing.T) []byte {
	t.Helper()
	var lines []string
	for _, f := range sourceFiles(t) {
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

// TestExportsHaveConsumers holds the façade to what its consumers name:
// every exported func and var but the Err* sentinels must be named as
// o2.X by a Go file under cmd/, examples/, or bench/, by one at the
// repository root, or by example_test.go. Anything else is unexported.
// Types, their fields and methods, and constants are exempt: they are
// reachable from the signatures of what consumers call.
func TestExportsHaveConsumers(t *testing.T) {
	files := []string{"example_test.go"}
	root, err := filepath.Glob(filepath.Join("..", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, root...)
	for _, dir := range []string{"cmd", "examples", "bench"} {
		err := filepath.WalkDir(filepath.Join("..", dir), func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && strings.HasPrefix(d.Name(), "."):
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, ".go"):
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var src []byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src = append(append(src, b...), '\n')
	}

	for _, line := range strings.Split(string(exportedSurface(t)), "\n") {
		kind, name, _ := strings.Cut(line, " ")
		if kind != "func" && (kind != "var" || strings.HasPrefix(name, "Err")) {
			continue
		}
		if !regexp.MustCompile(`\bo2\.` + name + `\b`).Match(src) {
			t.Errorf("%s %s has no consumer outside o2: unexport it or delete it", kind, name)
		}
	}
}
