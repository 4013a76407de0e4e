package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports are the exported functions and methods under internal/
// that only tests call and that stay on purpose, keyed "pkg.Func" or
// "pkg.Type.Method" (pkg is the directory under internal/), each with the
// reason it stays.
var testOnlyExports = map[string]string{
	"cache.MustNewNaive":              "builds the naive reference cache the fuzz and differential tests compare the fast cache with",
	"cache.Naive.Occupied":            "naive side of the fast/naive occupancy comparison",
	"cache.Naive.Owners":              "naive side of the fast/naive owner-set comparison",
	"cache.Naive.InvalidateOwner":     "naive side of the fast/naive invalidation comparison",
	"cache.Cache.Occupied":            "fast side of the fast/naive occupancy comparison",
	"cache.Cache.Owners":              "fast side of the fast/naive owner-set comparison",
	"cache.Cache.InvalidateOwner":     "fast side of the fast/naive invalidation comparison",
	"cache.Cache.Journaling":          "lets the journal tests observe whether an undo journal is open",
	"bus.Bus.Service":                 "the one-transaction form the tests check ServiceN against",
	"bus.Bus.Utilization":             "lets the bus tests observe the sliding-window busy fraction",
	"memtrace.Generator.Next":         "the one-reference form the tests check FillBlock against",
	"memtrace.Generator.Emitted":      "lets the generator tests observe the reference count",
	"memtrace.Generator.Elapsed":      "lets the generator tests observe the generated think time",
	"footprint.Cache.Occupied":        "lets the footprint tests check occupancy against capacity",
	"workload.Graph.Roots":            "lets the graph tests check the initially runnable threads",
	"workload.Graph.CriticalPath":     "the sched tests' lower bound on a job's response time",
	"workload.Job.AttachedCount":      "lets the job tests observe attached threads",
	"workload.Job.ThreadStateOf":      "lets the job tests observe a thread's lifecycle state",
	"eventq.Event.Cancelled":          "lets the queue tests observe cancellation",
	"eventq.Queue.Step":               "the one-event form whose loop Run's batched dispatch must equal",
	"eventq.Queue.Fired":              "lets the queue tests count fired events",
	"diskstore.Store.Contains":        "lets the store tests check the index without touching hit/miss counters",
	"experiments.AnalyticCellMetrics": "runs only a calibration cell's analytic side, so the golden test simulates nothing",
	"simtime.Microseconds":            "unit constructor the tests write durations with",
	"simtime.Milliseconds":            "unit constructor the tests write durations with",
}

// TestNoTestOnlyExports fails on any exported top-level function or method,
// declared in a non-test file under internal/, whose name no non-test Go
// file in the tree mentions: cmd/, examples/ and the separate bench/
// module count. Such a function is API that only tests call. Delete it
// with the tests that exercise only it, or list it in testOnlyExports with
// the reason it stays. The test also fails on a testOnlyExports entry that
// is no longer declared or that a non-test file now names.
//
// The check matches identifiers by name, with go/parser alone and no type
// checking. It can therefore only miss names, never report a false one: a
// test-only function that shares its name with anything a non-test file
// mentions passes unseen, while a function it reports is named by no
// non-test file at all. (A method that only the standard library calls,
// through an interface such as json.Marshaler, would be reported; none
// exists today.)
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	used := make(map[string]bool) // identifiers named by non-test files
	declared := make(map[string]string)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := make(map[*ast.Ident]bool)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			pkg, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
			if ok && fd.Name.IsExported() {
				declared[exportKey(pkg, fd)] = fd.Name.Name
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for key, name := range declared {
		if _, kept := testOnlyExports[key]; !used[name] && !kept {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s: exported, but no non-test file names it; delete it or list it in testOnlyExports", key)
	}
	for key := range testOnlyExports {
		name, ok := declared[key]
		switch {
		case !ok:
			t.Errorf("testOnlyExports lists %s, which is not declared under internal/", key)
		case used[name]:
			t.Errorf("testOnlyExports lists %s, but a non-test file names %s", key, name)
		}
	}
}

// exportKey names fd as "pkg.Func" or "pkg.Type.Method".
func exportKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	return pkg + "." + typ.(*ast.Ident).Name + "." + fd.Name.Name
}
