package baps

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// knobStructs are the live plane's configuration structs, as package path →
// type names.
var knobStructs = map[string][]string{
	"baps/internal/proxy":      {"Config"},
	"baps/internal/browser":    {"Config", "HostConfig"},
	"baps/internal/federation": {"Config"},
	"baps/internal/workqueue":  {"Config"},
	"baps/internal/diskstore":  {"Config"},
}

// knobAllowlist names the exported config fields that stay although no
// non-test code outside their own package writes them, each with the reason.
var knobAllowlist = map[string]string{
	"browser.Config.ProxyURL": "deployment setting, written through DefaultConfig(proxyURL)",
	"browser.HostConfig.Addr": "deployment setting: the host's listen address",
}

// TestConfigFieldsHaveCallers keeps the configuration surface from growing
// back: every exported field of the live plane's config structs must be
// written — set in a composite literal, assigned, or have its address taken
// (a flag binding) — by non-test code outside the field's own package, or be
// on knobAllowlist. A field only tests set is a constant in disguise.
//
// Writers are resolved with go/types, not by name: Metrics, Logger, Policy
// and Capacity are fields of several structs. Module packages are
// type-checked from source; their imports come from the export data
// `go list -export` reports, so every package sees the same field objects.
func TestConfigFieldsHaveCallers(t *testing.T) {
	pkgs := listModulePackages(t, "./...")
	fset := token.NewFileSet()
	imp := exportImporter(fset, pkgs)

	// Every exported field of the knob structs, keyed by its field object.
	fields := map[*types.Var]string{}
	for path, names := range knobStructs {
		pkg, err := imp.Import(path)
		if err != nil {
			t.Fatalf("import %s: %v", path, err)
		}
		for _, name := range names {
			obj := pkg.Scope().Lookup(name)
			if obj == nil {
				t.Fatalf("%s.%s not found", path, name)
			}
			st := obj.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = pkg.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}

	written := map[string]bool{}
	for path, p := range pkgs {
		if p.standard || len(p.goFiles) == 0 || !(path == "baps" || strings.HasPrefix(path, "baps/")) {
			continue
		}
		files, info := typeCheck(t, fset, imp, path, p)
		note := func(obj types.Object) {
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Pkg().Path() != path {
				if key, ok := fields[v]; ok {
					written[key] = true
				}
			}
		}
		field := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
					note(s.Obj())
				}
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						note(info.Uses[id])
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						field(lhs)
					}
				case *ast.IncDecStmt:
					field(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						field(n.X)
					}
				}
				return true
			})
		}
	}

	var names []string
	known := map[string]bool{}
	for _, key := range fields {
		names = append(names, key)
		known[key] = true
	}
	sort.Strings(names)
	for _, key := range names {
		_, allowed := knobAllowlist[key]
		switch {
		case !written[key] && !allowed:
			t.Errorf("%s has no writer outside tests and its own package: make it a constant, or allowlist it with a reason", key)
		case written[key] && allowed:
			t.Errorf("%s is allowlisted but has a writer now: drop it from knobAllowlist", key)
		}
	}
	for key := range knobAllowlist {
		if !known[key] {
			t.Errorf("knobAllowlist names %s, which is not an exported knob field", key)
		}
	}
	t.Logf("%d exported config fields, %d allowlisted", len(names), len(knobAllowlist))
}

// httpSenders are the *net/http.Client methods that send a request.
var httpSenders = map[string]bool{"Do": true, "Get": true, "Head": true, "Post": true, "PostForm": true}

// httpCallAllowlist names the functions of internal/proxy and
// internal/browser that may send a request on an *http.Client directly,
// each with the reason.
var httpCallAllowlist = map[string]string{
	"proxy.(*Server).getDoc":         "the one document GET: single-pass MD5 read, doc_too_large, status → *statusError",
	"proxy.Post":                     "the one instruction POST: drains the reply, non-2xx → *statusError",
	"browser.(*Agent).register":      "decodes the registration reply (id, token, public key)",
	"browser.(*Agent).fetchViaProxy": "reads the document reply into the host's body store",
	"browser.(*publisher).send":      "decodes the per-sub-batch index outcome",
}

// TestHTTPClientCallsAreCentral keeps the live plane to one way out: every
// request internal/proxy and internal/browser send on an *http.Client leaves
// from a function on httpCallAllowlist, so a new call site goes through
// getDoc or Post and gets their status classification for free. An
// allowlisted function that no longer sends fails too.
func TestHTTPClientCallsAreCentral(t *testing.T) {
	pkgs := listModulePackages(t, "./internal/proxy", "./internal/browser")
	fset := token.NewFileSet()
	imp := exportImporter(fset, pkgs)
	sending := map[string]bool{}
	for _, path := range []string{"baps/internal/proxy", "baps/internal/browser"} {
		files, info := typeCheck(t, fset, imp, path, pkgs[path])
		for _, f := range files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				name := funcName(path, fn)
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					s, ok := info.Selections[sel]
					if !ok || s.Kind() != types.MethodVal || !httpSenders[sel.Sel.Name] {
						return true
					}
					recv := s.Recv()
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
					}
					if named, ok := recv.(*types.Named); !ok || named.Obj().Pkg().Path() != "net/http" || named.Obj().Name() != "Client" {
						return true
					}
					sending[name] = true
					if _, ok := httpCallAllowlist[name]; !ok {
						t.Errorf("%s: %s sends on an *http.Client directly; go through getDoc or Post", fset.Position(call.Pos()), name)
					}
					return true
				})
			}
		}
	}
	for name := range httpCallAllowlist {
		if !sending[name] {
			t.Errorf("httpCallAllowlist names %s, which sends no request: drop it", name)
		}
	}
}

// funcName renders a function declaration as pkg.Func or pkg.(*Recv).Method.
func funcName(path string, fn *ast.FuncDecl) string {
	pkg := path[strings.LastIndex(path, "/")+1:]
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkg + "." + fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	star := ""
	if p, ok := recv.(*ast.StarExpr); ok {
		star, recv = "*", p.X
	}
	return fmt.Sprintf("%s.(%s%s).%s", pkg, star, recv.(*ast.Ident).Name, fn.Name.Name)
}

// exportImporter imports packages from the export data go list reported.
func exportImporter(fset *token.FileSet, pkgs map[string]listedPackage) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := pkgs[path]
		if !ok || p.export == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(p.export)
	})
}

// typeCheck parses and type-checks one listed package's non-test files.
func typeCheck(t *testing.T, fset *token.FileSet, imp types.Importer, path string, p listedPackage) ([]*ast.File, *types.Info) {
	t.Helper()
	var files []*ast.File
	for _, name := range p.goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(path, fset, files, info); err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	return files, info
}

type listedPackage struct {
	dir, export string
	goFiles     []string
	standard    bool
}

// listModulePackages runs `go list -deps -export` over the patterns and
// returns every package it reports, keyed by import path.
func listModulePackages(t *testing.T, patterns ...string) map[string]listedPackage {
	t.Helper()
	args := append([]string{"list", "-deps", "-export",
		"-f", "{{.ImportPath}}\t{{.Standard}}\t{{.Dir}}\t{{.Export}}\t{{join .GoFiles \" \"}}"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	pkgs := map[string]listedPackage{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		parts := strings.Split(sc.Text(), "\t")
		if len(parts) != 5 {
			t.Fatalf("go list: unexpected line %q", sc.Text())
		}
		pkgs[parts[0]] = listedPackage{
			standard: parts[1] == "true",
			dir:      parts[2],
			export:   parts[3],
			goFiles:  strings.Fields(parts[4]),
		}
	}
	return pkgs
}
