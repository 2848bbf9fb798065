package timing

import "sync"

// Level-synchronized parallel timing propagation, in the spirit of the
// parallel incremental timers the paper builds on (OpenTimer v2 and
// successors, [14]–[17]): pins on the same topological level have no
// arrival dependencies among each other, so Update evaluates each large
// level bucket with a worker pool, with a barrier between levels (see
// runForward and runBackward). Net loads are refreshed serially first so
// the workers never touch the lazy load cache.

// chunked splits [0,n) into contiguous ranges and runs body on each from its
// own goroutine, waiting for all of them. body(lo, hi) must only touch state
// disjoint from the other chunks.
func chunked(workers, n int, body func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
