package fault

import (
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/parallel"
)

// RunConcurrentWords fault-simulates the pattern set across multiple
// workers on the shared parallel pool, splitting the fault list into one
// contiguous shard per worker; each shard packs words pattern words per
// pass (normalized to {1,2,4,8}). The netlist is compiled exactly once;
// every shard gets a cheap Simulator over the shared immutable IR. Results
// are identical to Simulator.Run for any worker count and any lane width
// (fault dropping happens within each shard, and detection indices do not
// depend on other faults). workers <= 0 selects GOMAXPROCS.
func RunConcurrentWords(n *circuit.Netlist, p *logic.PatternSet, faults []Fault, workers, words int) (*Result, error) {
	c, err := n.Compiled()
	if err != nil {
		return nil, err
	}
	res := &Result{Total: len(faults), DetectedBy: make([]int, len(faults))}
	res.Detected = shardFaults(workers, len(faults), func(lo, hi int) int {
		return NewSimulatorCompiledWords(c, words).RunInto(p, faults[lo:hi], res.DetectedBy[lo:hi], nil)
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

// DictionaryConcurrentWords builds the same full-response signatures as
// Simulator.Dictionary, sharding W-word pattern blocks across workers
// (words normalized to {1,2,4,8}). The netlist is compiled exactly once up
// front; each worker owns a cheap Simulator over the shared IR (created
// lazily on first claim) and fills whole signature-column blocks from one
// cone walk per fault. Distinct blocks write disjoint storage, so the
// merged dictionary is bit-identical to the serial one for any worker count
// and any lane width. workers <= 0 selects GOMAXPROCS.
func DictionaryConcurrentWords(n *circuit.Netlist, p *logic.PatternSet, faults []Fault, workers, words int) ([]*Signature, error) {
	c, err := n.Compiled()
	if err != nil {
		return nil, err
	}
	W := NormalizeWords(words)
	nWords := p.Words()
	blocks := (nWords + W - 1) / W
	workers = parallel.Workers(workers)
	if workers <= 1 || blocks <= 1 {
		return NewSimulatorCompiledWords(c, W).Dictionary(p, faults), nil
	}
	sigs := NewSignatures(len(faults), len(n.POs), nWords)
	type scratch struct {
		fsim  *Simulator
		perPO []logic.Word
	}
	scratches := make([]scratch, workers)
	err = parallel.ForWorker(workers, blocks, func(worker, b int) error {
		sc := &scratches[worker]
		if sc.fsim == nil {
			sc.fsim = NewSimulatorCompiledWords(c, W)
			sc.perPO = make([]logic.Word, len(n.POs)*W)
		}
		sc.fsim.dictionaryBlock(p, faults, b*W, sigs, sc.perPO)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sigs, nil
}
