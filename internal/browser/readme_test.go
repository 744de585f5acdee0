package browser

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"baps/internal/proxy"
)

// proxyRoutes returns the patterns proxy.Server.Handler mounts, read from
// its source and confirmed against the live mux (each must resolve to
// itself), so a route added or removed in Handler is seen here.
func proxyRoutes(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../proxy/proxy.go", nil, 0)
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
	cfg := proxy.DefaultConfig()
	cfg.KeyBits = 1024
	s, err := proxy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mux := s.Handler().(*http.ServeMux)
	for _, p := range routes {
		if _, pattern := mux.Handler(httptest.NewRequest(http.MethodGet, p, nil)); pattern != p {
			t.Fatalf("parsed route %q resolves to %q on the live mux", p, pattern)
		}
	}
	return routes
}

// readmeEndpoints returns the paths README's endpoint table documents for
// the proxy and the browser peer server ("/relay/{t}" documents "/relay/").
func readmeEndpoints(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	path := regexp.MustCompile("`(?:[A-Z]+ )?(/[^`?{ ]*)")
	var paths []string
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
		if server := cells[2]; !strings.Contains(server, "proxy") && !strings.Contains(server, "browser") {
			continue
		}
		for _, m := range path.FindAllStringSubmatch(cells[1], -1) {
			paths = append(paths, m[1])
		}
	}
	if len(paths) == 0 {
		t.Fatal("README endpoint table not found")
	}
	return paths
}

// TestReadmeEndpointsMatchRoutes keeps README's endpoint table and the wire
// in step: every documented proxy or peer-server path is mounted, and every
// path proxy.Server.Handler or the agent's peer server mounts is documented
// — so a route a change removes cannot stay documented, and a new one cannot
// ship undocumented.
func TestReadmeEndpointsMatchRoutes(t *testing.T) {
	mounted := map[string]bool{}
	for _, p := range append(proxyRoutes(t), peerPaths...) {
		mounted[p] = true
	}
	documented := map[string]bool{}
	for _, p := range readmeEndpoints(t) {
		documented[p] = true
	}
	var stale, missing []string
	for p := range documented {
		if !mounted[p] {
			stale = append(stale, p)
		}
	}
	for p := range mounted {
		if !documented[p] {
			missing = append(missing, p)
		}
	}
	sort.Strings(stale)
	sort.Strings(missing)
	if len(stale) > 0 {
		t.Errorf("README documents routes nothing mounts: %v", stale)
	}
	if len(missing) > 0 {
		t.Errorf("mounted routes README does not document: %v", missing)
	}
}
