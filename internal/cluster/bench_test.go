package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
)

// BenchmarkClusterDetect measures one Coordinator.Detect end to end over the
// in-process Loopback transport with two workers: netlist codec, dispatch,
// wire frames, per-shard fault simulation and merge. Every op is a new job.
// Workers keep the circuit of their last setup, so the two sub-benchmarks
// split the per-job setup cost out:
//   - cold alternates two same-size netlists, so every worker decodes and
//     compiles the netlist on every op;
//   - warm runs one untimed job first, so every timed op reuses the
//     workers' decoded circuit and simulator (one op, as in a -benchtime=1x
//     smoke, measures a reuse).
func BenchmarkClusterDetect(b *testing.B) {
	type job struct {
		n      *circuit.Netlist
		faults []fault.Fault
		p      *logic.PatternSet
	}
	mk := func(seed int64) job {
		n := circuit.Random(64, 4000, seed)
		return job{n, fault.Universe(n), testPatterns(n, 128, 1)}
	}
	a, alt := mk(3), mk(4)
	run := func(b *testing.B, jobs []job, warm bool) {
		c := New(Config{})
		lb := NewLoopback()
		go c.Serve(lb)
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			w := &Worker{ID: fmt.Sprintf("w%d", i), Dial: lb.Dial}
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.Run(ctx)
			}()
		}
		defer func() {
			c.Close()
			cancel()
			wg.Wait()
		}()
		detect := func(j job) {
			if _, err := c.Detect(context.Background(), j.n, j.p, j.faults, fault.MaxWords); err != nil {
				b.Fatal(err)
			}
		}
		if warm {
			detect(jobs[0])
		}
		b.ResetTimer()
		nf := 0
		for i := 0; i < b.N; i++ {
			j := jobs[i%len(jobs)]
			detect(j)
			nf += len(j.faults)
		}
		b.ReportMetric(float64(nf)/float64(b.N), "faults/op")
	}
	b.Run("cold", func(b *testing.B) { run(b, []job{a, alt}, false) })
	b.Run("warm", func(b *testing.B) { run(b, []job{a}, true) })
}
