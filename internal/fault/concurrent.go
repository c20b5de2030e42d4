package fault

import (
	"runtime"
	"sync"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/parallel"
)

// RunConcurrent fault-simulates the pattern set across multiple goroutines
// with single-word (W=1) simulators. See RunConcurrentWords.
func RunConcurrent(n *circuit.Netlist, p *logic.PatternSet, faults []Fault, workers int) (*Result, error) {
	return RunConcurrentWords(n, p, faults, workers, 1)
}

// RunConcurrentWords fault-simulates the pattern set across multiple
// goroutines, splitting the fault list into contiguous shards; each worker
// packs words pattern words per pass (normalized to {1,2,4,8}). The netlist
// is compiled exactly once; every worker gets a cheap Simulator over the
// shared immutable IR. Results are identical to Simulator.Run for any worker
// count and any lane width (fault dropping happens within each shard, and
// detection indices do not depend on other faults). workers <= 0 selects
// GOMAXPROCS.
func RunConcurrentWords(n *circuit.Netlist, p *logic.PatternSet, faults []Fault, workers, words int) (*Result, error) {
	c, err := n.Compiled()
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(faults) {
		workers = len(faults)
	}
	if workers <= 1 {
		return NewSimulatorCompiledWords(c, words).Run(p, faults), nil
	}
	res := &Result{Total: len(faults), DetectedBy: make([]int, len(faults))}
	type shard struct {
		lo, hi int
		out    *Result
	}
	shards := make([]shard, workers)
	per := (len(faults) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > len(faults) {
			hi = len(faults)
		}
		shards[w] = shard{lo: lo, hi: hi}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			s.out = NewSimulatorCompiledWords(c, words).Run(p, faults[s.lo:s.hi])
		}(&shards[w])
	}
	wg.Wait()
	for _, s := range shards {
		if s.out == nil {
			continue
		}
		copy(res.DetectedBy[s.lo:s.hi], s.out.DetectedBy)
		res.Detected += s.out.Detected
	}
	if res.Total > 0 {
		res.Coverage = float64(res.Detected) / float64(res.Total)
	}
	return res, nil
}

// DictionaryConcurrent builds full-response signatures with single-word
// (W=1) simulators. See DictionaryConcurrentWords.
func DictionaryConcurrent(n *circuit.Netlist, p *logic.PatternSet, faults []Fault, workers int) ([]*Signature, error) {
	return DictionaryConcurrentWords(n, p, faults, workers, 1)
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
		pi    []logic.Word
		perPO []logic.Word
	}
	scratches := make([]scratch, workers)
	err = parallel.ForWorker(workers, blocks, func(worker, b int) error {
		sc := &scratches[worker]
		if sc.fsim == nil {
			sc.fsim = NewSimulatorCompiledWords(c, W)
			sc.pi = make([]logic.Word, len(n.PIs)*W)
			sc.perPO = make([]logic.Word, len(n.POs)*W)
		}
		sc.fsim.dictionaryBlock(p, faults, b*W, sigs, sc.pi, sc.perPO)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sigs, nil
}
