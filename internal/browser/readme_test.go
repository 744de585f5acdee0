package browser

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"baps/internal/origin"
	"baps/internal/proxy"
)

// muxRoutes returns the patterns the Handler method in the Go source file
// mounts, read from its source and confirmed against mux, the live mux that
// Handler built (each must resolve to itself), so a route added or removed
// in Handler is seen here.
func muxRoutes(t *testing.T, file string, mux *http.ServeMux) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var routes []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "Handler" || fn.Recv == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc") {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				p, _ := strconv.Unquote(lit.Value)
				routes = append(routes, p)
			}
			return true
		})
	}
	for _, p := range routes {
		if _, pattern := mux.Handler(httptest.NewRequest(http.MethodGet, p, nil)); pattern != p {
			t.Fatalf("%s: parsed route %q resolves to %q on the live mux", file, p, pattern)
		}
	}
	return routes
}

// readmeServers are the servers README's endpoint table documents, as named
// in its Server column.
var readmeServers = []string{"proxy", "browser", "origin"}

// readmeEndpoints returns, per server, the paths README's endpoint table
// documents for it ("/relay/{t}" documents "/relay/", and the origin's
// "/<path>" its catch-all "/").
func readmeEndpoints(t *testing.T) map[string][]string {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	path := regexp.MustCompile("`(?:[A-Z]+ )?(/[^`?{< ]*)")
	paths := map[string][]string{}
	inTable := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "| Endpoint | Server |") {
			inTable = true
			continue
		}
		if !inTable || strings.HasPrefix(line, "|---") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			break
		}
		for _, server := range readmeServers {
			if !strings.Contains(cells[2], server) {
				continue
			}
			for _, m := range path.FindAllStringSubmatch(cells[1], -1) {
				paths[server] = append(paths[server], m[1])
			}
		}
	}
	if len(paths) == 0 {
		t.Fatal("README endpoint table not found")
	}
	return paths
}

// TestReadmeEndpointsMatchRoutes keeps README's endpoint table and the wire
// in step, server by server: every path documented for the proxy, the
// browser peer server or the origin is mounted there, and every path
// proxy.Server.Handler, the agent's peer server or origin.Server.Handler
// mounts is documented for it — so a route a change removes cannot stay
// documented, and a new one cannot ship undocumented.
func TestReadmeEndpointsMatchRoutes(t *testing.T) {
	cfg := proxy.DefaultConfig()
	cfg.KeyBits = 1024
	srv, err := proxy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mounted := map[string][]string{
		"proxy": muxRoutes(t, "../proxy/proxy.go", srv.Handler().(*http.ServeMux)),
		// New mounts /metrics beside the peer paths.
		"browser": append([]string{"/metrics"}, peerPaths...),
		"origin":  muxRoutes(t, "../origin/origin.go", origin.New(1).Handler().(*http.ServeMux)),
	}
	documented := readmeEndpoints(t)
	set := func(paths []string) map[string]bool {
		m := map[string]bool{}
		for _, p := range paths {
			m[p] = true
		}
		return m
	}
	for _, server := range readmeServers {
		mnt, doc := set(mounted[server]), set(documented[server])
		if stale := missingFrom(doc, mnt); len(stale) > 0 {
			t.Errorf("README documents %s routes nothing mounts: %v", server, stale)
		}
		if missing := missingFrom(mnt, doc); len(missing) > 0 {
			t.Errorf("mounted %s routes README does not document: %v", server, missing)
		}
	}
}

// missingFrom returns, sorted, the keys of a that b lacks.
func missingFrom(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// commandFlags returns the names of the flags the command in dir defines,
// read from the flag.<Kind>("name", …) and flag.<Kind>Var(&v, "name", …)
// calls in its non-test source.
func commandFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if len(call.Args) <= arg {
				return true
			}
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				flags[name] = true
			}
			return true
		})
	}
	if len(flags) == 0 {
		t.Fatalf("%s: no flag definitions found", dir)
	}
	return flags
}

// readmeFlagTable returns the flags the README table introduced by the line
// "`title` flags:" documents: every `-name` in a row's first cell.
func readmeFlagTable(t *testing.T, title string) map[string]bool {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	name := regexp.MustCompile("`-([a-z0-9-]+)")
	flags := map[string]bool{}
	found, inTable := false, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "`"+title+"` flags:" {
			found = true
			continue
		}
		if !found {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(line, "|")
		if strings.HasPrefix(line, "|---") || len(cells) < 3 {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			flags[m[1]] = true
		}
	}
	if len(flags) == 0 {
		t.Fatalf("README flag table for %s not found", title)
	}
	return flags
}

// TestReadmeFlagTablesMatchFlags keeps README's flag tables and the
// commands' flag sets in step. The tracegen, bapsproxy, bapsbrowser,
// bapsorigin, bapsreplay, bapsload and benchjson tables are complete: every
// flag the command defines is documented and every documented flag is
// defined. The bapsim replay table documents only the replay experiment's
// flags, each of which bapsim must define.
func TestReadmeFlagTablesMatchFlags(t *testing.T) {
	for _, c := range []struct {
		title, dir string
		complete   bool
	}{
		{"tracegen", "../../cmd/tracegen", true},
		{"bapsproxy", "../../cmd/bapsproxy", true},
		{"bapsbrowser", "../../cmd/bapsbrowser", true},
		{"bapsorigin", "../../cmd/bapsorigin", true},
		{"bapsreplay", "../../cmd/bapsreplay", true},
		{"bapsload", "../../cmd/bapsload", true},
		{"benchjson", "../../cmd/benchjson", true},
		{"bapsim replay", "../../cmd/bapsim", false},
	} {
		defined, documented := commandFlags(t, c.dir), readmeFlagTable(t, c.title)
		if stale := missingFrom(documented, defined); len(stale) > 0 {
			t.Errorf("README documents %s flags it does not define: %v", c.title, stale)
		}
		if missing := missingFrom(defined, documented); c.complete && len(missing) > 0 {
			t.Errorf("%s defines flags README does not document: %v", c.title, missing)
		}
	}
}
