package exp

import (
	"runtime"
	"sync"
	"time"
)

// runGrid evaluates n independent table cells and returns their results in
// cell-index order. With opt.Parallel unset the cells run sequentially;
// otherwise a worker pool of up to GOMAXPROCS goroutines fans them out.
//
// Cells must be self-contained: every cell derives all of its randomness
// from opt.Seed plus its own fixed cell parameters (topology, injector,
// trial index), never from state shared with other cells. Under that
// contract the two modes produce identical results, which the determinism
// regression tests assert table-for-table.
//
// Error semantics are mode-independent: every cell runs, and the error of
// the lowest-index failing cell (if any) is returned.
func runGrid[T any](opt Options, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	cell := func(i int) {
		start := time.Now() //snapvet:ok wall-clock cell timing feeds metrics only, never experiment output
		out[i], errs[i] = fn(i)
		elapsed := time.Since(start) //snapvet:ok wall-clock cell timing feeds metrics only, never experiment output
		if m := opt.Metrics; m != nil {
			m.Counter("exp.cells").Add(1)
			if errs[i] != nil {
				m.Counter("exp.cell_errors").Add(1)
			}
			m.Histogram("exp.cell_ns").Observe(elapsed.Nanoseconds())
		}
	}
	if !opt.Parallel || n <= 1 {
		for i := 0; i < n; i++ {
			cell(i)
		}
	} else {
		workers := runtime.GOMAXPROCS(0)
		if workers > n {
			workers = n
		}
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					cell(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
