// Package parallel is the shared worker-pool substrate for every fan-out
// hot path in the repository (library characterization, Monte Carlo
// sampling, experiment execution, fault simulation). It provides bounded
// parallel iteration over an index range with first-error collection, and
// deterministic seed-splitting so randomized workloads produce bit-identical
// results regardless of the worker count.
//
// The determinism contract: work item i must depend only on i (and on a
// per-item RNG derived via SplitSeed), never on which worker runs it or in
// which order items complete. Callers that follow the contract may freely
// change the Workers knob between runs.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values > 0 are used as given,
// anything else selects GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) across at most workers goroutines
// (workers <= 0 selects GOMAXPROCS). Items are claimed dynamically, so
// uneven item costs balance across workers. If any calls fail, iteration
// stops early and the error from the lowest failing index that ran is
// returned; remaining unclaimed items are skipped.
func For(workers, n int, fn func(i int) error) error {
	return ForWorker(workers, n, func(_, i int) error { return fn(i) })
}

// ForWorker is For, with the worker's id (in [0, workers)) passed alongside
// the item index so callers can maintain per-worker scratch state (e.g. one
// simulator instance per worker). Worker ids must not influence results —
// only which scratch buffer is used.
func ForWorker(workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		errIdx = n
		first  error
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, first = i, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					record(i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

// SplitSeed derives a statistically independent 64-bit seed for stream i
// from a base seed, using a SplitMix64-style finalizer. Adjacent base seeds
// and adjacent stream indices yield uncorrelated outputs, so per-item RNGs
// built from SplitSeed(seed, i) are independent of how items are sharded
// over workers — the foundation of the repository's reproducibility
// guarantee for parallel Monte Carlo.
func SplitSeed(seed int64, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xd1b54a32d192ed03
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
