package tensor

import (
	"runtime"
	"sync"
)

// ParallelRows runs body over the rows [0, rows) split into contiguous
// ranges, one range per worker, and returns once every range is done.
// work is the job's multiply-add count: below 1<<16, or with a single
// worker, body runs inline over [0, rows) because a goroutine hand-off
// costs more than it saves. Otherwise there are min(GOMAXPROCS, rows)
// workers, each a new goroutine given ceil(rows/workers) rows, and the
// caller waits. (Running one range on the caller instead leaves the one
// spawned goroutine in its P's runnext slot, which idle Ps steal from
// last: at GOMAXPROCS 2 the two ranges then mostly ran back to back.)
//
// Every row belongs to exactly one range, so a body that writes only its
// own rows' outputs, accumulating each in the serial order, produces
// bit-identical results at any GOMAXPROCS.
//
// body receives its operands as the value args instead of capturing them:
// a capturing closure escapes into the goroutines and would be heap
// allocated on every call, inline runs included. Pass a func literal that
// captures nothing (or a named function) and the inline path allocates
// nothing.
func ParallelRows[A any](rows, work int, args A, body func(args A, lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), rows)
	if workers <= 1 || work < 1<<16 {
		body(args, 0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(args, lo, hi)
		}(lo, min(lo+chunk, rows))
	}
	wg.Wait()
}
