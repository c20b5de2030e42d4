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
	workers = min(parallel.Workers(workers), len(faults))
	if workers <= 1 {
		return NewSimulatorCompiledWords(c, words).Run(p, faults), nil
	}
	res := &Result{Total: len(faults), DetectedBy: make([]int, len(faults))}
	per := (len(faults) + workers - 1) / workers
	shards := (len(faults) + per - 1) / per
	detected := make([]int, shards)
	_ = parallel.For(workers, shards, func(s int) error {
		lo, hi := s*per, min((s+1)*per, len(faults))
		out := NewSimulatorCompiledWords(c, words).Run(p, faults[lo:hi])
		copy(res.DetectedBy[lo:hi], out.DetectedBy)
		detected[s] = out.Detected
		return nil
	})
	for _, d := range detected {
		res.Detected += d
	}
	res.Coverage = float64(res.Detected) / float64(res.Total)
	return res, nil
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
	sigs := newSignatures(len(faults), len(n.POs), nWords)
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
