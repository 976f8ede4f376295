// Command snapvet is the project-specific static analyzer: it type-checks
// every package in the module and enforces the paper's locally shared
// memory model plus the engine's determinism and zero-allocation
// invariants, with six analyzers:
//
//	guardpure      functions reachable from protocol guards (Enabled) are
//	               pure: no shared-state writes, map/channel mutation, or I/O
//	writelocal     action bodies (Apply/ApplyInto) write only the acting
//	               processor's state, per the model's write rule
//	detrange       no map iteration, wall-clock reads, or global math/rand in
//	               the deterministic engine and cmd packages
//	hotalloc       no allocation constructs reachable from
//	               //snapvet:hotpath functions (static complement of the
//	               CI alloc gates)
//	radiusbound    a protocol's Enabled reads state at most DirtyRadius
//	               hops from the acting processor, so the incremental
//	               enabled cache re-checks every guard a step can change
//	obspure        the nil-receiver path of every //snapvet:nilsafe
//	               observer method is a no-op: no dereference, no side
//	               effect, no allocation
//
// Usage:
//
//	snapvet [-json] [-tests] [-baseline FILE] [-write-baseline]
//	        [-baseline-update] [-list] [packages]
//
// Findings print as "file:line:col: [analyzer] message"; the exit status
// is non-zero when any error-severity finding is not covered by the
// baseline file. Advisory findings (for example an overstated
// DirtyRadius) print but never fail the run. -tests re-loads every test
// binary's package variants so *_test.go files are analyzed too.
// -baseline-update regenerates the baseline from the current findings and
// reports the delta; the file is byte-stable under repeated updates.
//
// Intentional exceptions are annotated in source: `//snapvet:ok <reason>`
// on (or directly above) the flagged line; `//snapvet:hotpath` and
// `//snapvet:coldpath <reason>` in a function's doc comment opt it into
// or out of hotalloc's reachability audit; `//snapvet:nilsafe` on a type
// opts its methods into obspure. A `//snapvet:ok` without a reason is
// itself an error — the tree carries no unexplained suppressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"snappif/internal/analysis"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapvet:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("snapvet", flag.ContinueOnError)
	var (
		jsonOut    = fs.Bool("json", false, "emit findings as a JSON array")
		tests      = fs.Bool("tests", false, "also load and analyze test variants (*_test.go files)")
		baseline   = fs.String("baseline", "", "baseline file of grandfathered findings (default <module>/.snapvet.baseline)")
		writeBase  = fs.Bool("write-baseline", false, "write the current findings to the baseline file and exit 0")
		updateBase = fs.Bool("baseline-update", false, "regenerate the baseline from current findings, report the delta, and exit 0")
		list       = fs.Bool("list", false, "list the analyzers and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(out, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}

	load := analysis.Load
	if *tests {
		load = analysis.LoadTests
	}
	prog, err := load(".", fs.Args()...)
	if err != nil {
		return 2, err
	}
	basePath := *baseline
	if basePath == "" {
		basePath = filepath.Join(prog.ModuleDir, ".snapvet.baseline")
	}

	findings := analysis.Run(prog, nil)
	if *writeBase {
		if err := analysis.WriteBaseline(basePath, findings); err != nil {
			return 2, err
		}
		fmt.Fprintf(out, "snapvet: wrote %d finding(s) to %s\n", len(findings), basePath)
		return 0, nil
	}
	if *updateBase {
		added, removed, kept, err := analysis.UpdateBaseline(basePath, findings)
		if err != nil {
			return 2, err
		}
		fmt.Fprintf(out, "snapvet: baseline %s: %d added, %d removed, %d kept\n",
			basePath, added, removed, kept)
		return 0, nil
	}

	base, err := analysis.ReadBaseline(basePath)
	if err != nil {
		return 2, err
	}
	fresh, old := analysis.Filter(findings, base)

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if fresh == nil {
			fresh = []analysis.Finding{}
		}
		if err := enc.Encode(fresh); err != nil {
			return 2, err
		}
	} else {
		for _, f := range fresh {
			fmt.Fprintln(out, f.String())
		}
	}
	if len(old) > 0 {
		fmt.Fprintf(os.Stderr, "snapvet: %d baselined finding(s) suppressed\n", len(old))
	}
	errs, warns := 0, 0
	for _, f := range fresh {
		if f.Severity == "warning" {
			warns++
		} else {
			errs++
		}
	}
	if warns > 0 {
		fmt.Fprintf(os.Stderr, "snapvet: %d advisory finding(s)\n", warns)
	}
	if errs > 0 {
		fmt.Fprintf(os.Stderr, "snapvet: %d new finding(s)\n", errs)
		return 1, nil
	}
	return 0, nil
}
