package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
)

// BenchmarkClusterDetect measures one Coordinator.Detect end to end over the
// in-process Loopback transport with two workers: netlist codec, dispatch,
// wire frames, per-shard fault simulation and merge. Every op is a new job,
// so every worker decodes the netlist once per op.
func BenchmarkClusterDetect(b *testing.B) {
	n := circuit.Random(64, 4000, 3)
	faults := fault.Universe(n)
	p := testPatterns(n, 128, 1)
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
	// Close the listener too: a Coordinator closed before Serve registered
	// it never closes it, and a dialling worker would block for good.
	defer func() {
		c.Close()
		lb.Close()
		cancel()
		wg.Wait()
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Detect(context.Background(), n, p, faults, fault.MaxWords); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(faults)), "faults/op")
}
