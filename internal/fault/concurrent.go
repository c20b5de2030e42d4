package fault

import (
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/parallel"
)

// RunConcurrent fault-simulates the pattern set across o.Workers workers
// on the shared parallel pool, splitting the fault list into one
// contiguous shard per worker; each shard packs o.Lanes() pattern words
// per pass. The netlist is compiled exactly once;
// every shard gets a cheap Simulator over the shared immutable IR. Results
// are identical to Simulator.Run for any worker count and any lane width
// (fault dropping happens within each shard, and detection indices do not
// depend on other faults).
func RunConcurrent(n *circuit.Netlist, p *logic.PatternSet, faults []Fault, o Options) (*Result, error) {
	c, err := n.Compiled()
	if err != nil {
		return nil, err
	}
	res := &Result{Total: len(faults), DetectedBy: make([]int, len(faults))}
	res.Detected = shardFaults(o.Workers, len(faults), func(lo, hi int) int {
		return newSimulator(c, o.Lanes()).RunInto(p, faults[lo:hi], res.DetectedBy[lo:hi], nil)
	})
	if res.Total > 0 {
		res.Coverage = float64(res.Detected) / float64(res.Total)
	}
	return res, nil
}

// shardFaults splits the fault indices [0, nFaults) into one contiguous
// shard per worker (workers <= 0 selects GOMAXPROCS) on the shared parallel
// pool and returns the sum of what run reports for its shards — their
// detections. Each shard writes only its own index range, so results do not
// depend on the worker count.
func shardFaults(workers, nFaults int, run func(lo, hi int) int) int {
	workers = min(parallel.Workers(workers), nFaults)
	if workers <= 1 {
		return run(0, nFaults)
	}
	per := (nFaults + workers - 1) / workers
	shards := (nFaults + per - 1) / per
	detected := make([]int, shards)
	_ = parallel.For(workers, shards, func(s int) error {
		detected[s] = run(s*per, min((s+1)*per, nFaults))
		return nil
	})
	total := 0
	for _, d := range detected {
		total += d
	}
	return total
}

// DictionaryConcurrent builds the same full-response signatures as
// Simulator.Dictionary, sharding o.Lanes()-word pattern blocks across
// o.Workers workers. The netlist is compiled exactly once up
// front, and the faults are grouped by fanout-free region once; each
// worker owns a cheap Simulator over the shared IR (created lazily on first
// claim) and copies the rows of whole blocks from one stem walk per
// region. Distinct blocks write disjoint storage, so the
// merged dictionary is bit-identical to the serial one for any worker count
// and any lane width.
func DictionaryConcurrent(n *circuit.Netlist, p *logic.PatternSet, faults []Fault, o Options) ([]*Signature, error) {
	c, err := n.Compiled()
	if err != nil {
		return nil, err
	}
	W := o.Lanes()
	nWords := p.Words()
	blocks := (nWords + W - 1) / W
	workers := parallel.Workers(o.Workers)
	if workers <= 1 || blocks <= 1 {
		return newSimulator(c, W).Dictionary(p, faults), nil
	}
	sigs := NewSignatures(len(faults), len(n.POs), nWords)
	put := fill(sigs)
	sims := make([]*Simulator, workers)
	order := stemOrder(c, faults)
	err = parallel.ForWorker(workers, blocks, func(worker, b int) error {
		if sims[worker] == nil {
			sims[worker] = newSimulator(c, W)
		}
		sims[worker].dictionaryBlock(p, faults, order, b*W, put)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sigs, nil
}
