package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestF4DeterministicAcrossWorkers is the determinism regression test for
// the Monte Carlo fan-out: identical sample statistics (and surrogate
// error, which is a pure function of the samples) with 1 and 8 workers.
func TestF4DeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *F4Result {
		cfg := Config{Quick: true, Seed: 1, W: io.Discard, Options: fault.Options{Workers: workers}}
		res, err := RunF4(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	got := run(8)
	if got.Stats != ref.Stats {
		t.Errorf("sample statistics differ: workers=8 %+v, workers=1 %+v", got.Stats, ref.Stats)
	}
	if got.Nominal != ref.Nominal {
		t.Errorf("nominal differs: %v vs %v", got.Nominal, ref.Nominal)
	}
	if got.MLMAPE != ref.MLMAPE {
		t.Errorf("surrogate MAPE differs: %v vs %v", got.MLMAPE, ref.MLMAPE)
	}
}

// TestLibraryCacheConcurrent hammers the singleflight corner cache from
// many goroutines: every caller for one corner must get the same library
// value, and distinct corners distinct libraries.
func TestLibraryCacheConcurrent(t *testing.T) {
	cfg := Config{Quick: true, Seed: 1, W: io.Discard}
	corners := []struct{ tempK, dVth float64 }{
		{233, 0}, {233, 0.03}, {373, 0},
	}
	type got struct {
		corner int
		lib    any
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []got
	)
	for it := 0; it < 8; it++ {
		for ci := range corners {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				lib, err := library(cfg, corners[ci].tempK, corners[ci].dVth)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				results = append(results, got{ci, lib})
				mu.Unlock()
			}(ci)
		}
	}
	wg.Wait()
	first := map[int]any{}
	for _, r := range results {
		if prev, ok := first[r.corner]; ok {
			if prev != r.lib {
				t.Errorf("corner %d: concurrent callers got different library instances", r.corner)
			}
		} else {
			first[r.corner] = r.lib
		}
	}
	for i := range corners {
		for j := range corners {
			if i != j && first[i] == first[j] {
				t.Errorf("corners %d and %d share one library", i, j)
			}
		}
	}
}

// TestRunOrderedEmitsInIndexOrder runs synthetic steps with deliberately
// inverted completion order and asserts the combined report still reads in
// step order, exactly like a serial run.
func TestRunOrderedEmitsInIndexOrder(t *testing.T) {
	var buf bytes.Buffer
	n := 6
	steps := make([]step, n)
	for i := range steps {
		i := i
		steps[i] = step{
			name: fmt.Sprintf("S%d", i),
			run: func(c Config) error {
				time.Sleep(time.Duration(n-i) * 5 * time.Millisecond) // later steps finish first
				c.printf("body %d\n", i)
				return nil
			},
		}
	}
	cfg := Config{W: &buf, Options: fault.Options{Workers: n}}
	if err := runOrdered(cfg, steps); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	last := -1
	for i := 0; i < n; i++ {
		pos := strings.Index(out, fmt.Sprintf("body %d", i))
		if pos < 0 {
			t.Fatalf("missing step %d output:\n%s", i, out)
		}
		if pos < last {
			t.Fatalf("step %d emitted out of order:\n%s", i, out)
		}
		last = pos
	}
	for i := 0; i < n; i++ {
		if !strings.Contains(out, fmt.Sprintf("================ S%d ================", i)) {
			t.Errorf("missing header for step %d", i)
		}
	}
}

// TestRunOrderedReportsLowestFailingStep checks error semantics of the
// parallel harness: the reported failure names a failing experiment and
// wraps its error.
func TestRunOrderedReportsLowestFailingStep(t *testing.T) {
	steps := []step{
		{name: "ok", run: func(c Config) error { return nil }},
		{name: "bad", run: func(c Config) error { return fmt.Errorf("exploded") }},
		{name: "after", run: func(c Config) error { return nil }},
	}
	err := runOrdered(Config{W: io.Discard, Options: fault.Options{Workers: 2}}, steps)
	if err == nil || !strings.Contains(err.Error(), "bad") || !strings.Contains(err.Error(), "exploded") {
		t.Fatalf("err = %v", err)
	}
}

// TestMinDurationKeepsFastest checks the best-of-N timer that F4's
// surrogate speedup, T7 and the BENCH sweep report: it runs fn reps times
// and returns the fastest run, so one slow run (a descheduled worker, a
// cold cache) does not set the figure.
func TestMinDurationKeepsFastest(t *testing.T) {
	const slow = 40 * time.Millisecond
	calls := 0
	best := minDuration(3, func() {
		calls++
		if calls == 1 {
			time.Sleep(slow)
		}
	})
	if calls != 3 {
		t.Errorf("fn ran %d times, want 3", calls)
	}
	if best >= slow {
		t.Errorf("best = %v, not below the slow first run (%v)", best, slow)
	}
	if d := minDuration(1, func() { time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Errorf("single run timed %v, want at least 1ms", d)
	}
}
