package fault

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim"
)

// runIntoRef is the reference for RunInto's fanout-free-region drop pass:
// the same two stages per lane group (lane 0 as a scalar filter, then lanes
// 1..act-1 packed for the survivors) and the same detBy rule, but with one
// event-driven walk per live fault instead of one per region stem. It
// simulates the good circuit for every group (no memo) and returns the
// number detected.
func runIntoRef(s *Simulator, p *logic.PatternSet, faults []Fault, detBy []int) int {
	s.stagedAct, s.goodAct = 0, 0
	detected := 0
	live := make([]int, 0, len(faults))
	for i := range faults {
		detBy[i] = -1
		live = append(live, i)
	}
	W := s.w
	var masks, diff [MaxWords]logic.Word
	words := p.Words()
	for base := 0; base < words && len(live) > 0; base += W {
		act := min(W, words-base)
		s.simulateGood(p, base, 0, act, min(W, words))
		for l := 0; l < act; l++ {
			masks[l] = p.TailMask(base + l)
		}
		kept := live[:0]
		for _, fi := range live {
			diff[0] = 0
			s.detectLanes(faults[fi], 0, 1, masks[:1], diff[:1], nil)
			if diff[0] != 0 {
				detBy[fi] = base*logic.WordBits + bits.TrailingZeros64(diff[0])
				detected++
			} else {
				kept = append(kept, fi)
			}
		}
		live = kept
		if act == 1 || len(live) == 0 {
			continue
		}
		kept = live[:0]
		for _, fi := range live {
			clear(diff[1:act])
			s.detectLanes(faults[fi], 1, act-1, masks[1:act], diff[1:act], nil)
			det := -1
			for l := 1; l < act && det < 0; l++ {
				if diff[l] != 0 {
					det = (base+l)*logic.WordBits + bits.TrailingZeros64(diff[l])
				}
			}
			if det >= 0 {
				detBy[fi] = det
				detected++
			} else {
				kept = append(kept, fi)
			}
		}
		live = kept
	}
	return detected
}

// dictionaryRef is the reference for the fanout-free-region dictionary:
// the same blocks and good simulations, but one event-driven walk per
// fault from its site, each writing its own per-PO differences.
func dictionaryRef(s *Simulator, p *logic.PatternSet, faults []Fault) []*Signature {
	s.stagedAct, s.goodAct = 0, 0
	W := s.w
	words := p.Words()
	sigs := NewSignatures(len(faults), len(s.Net.POs), words)
	perPO := make([]logic.Word, len(s.Net.POs)*W)
	var masks, diff [MaxWords]logic.Word
	for base := 0; base < words; base += W {
		act := min(W, words-base)
		s.simulateGood(p, base, 0, act, min(W, words))
		for l := 0; l < act; l++ {
			masks[l] = p.TailMask(base + l)
		}
		for fi, f := range faults {
			for _, po := range s.detectLanes(f, 0, act, masks[:act], diff[:act], perPO) {
				pb := int(po) * W
				copy(sigs[fi].Bits[po][base:base+act], perPO[pb:pb+act])
				clear(perPO[pb : pb+act])
			}
		}
	}
	return sigs
}

// dffFaninCircuit has a DFF that carries structural fanin (a non-scan
// import keeps the D connection): PI a feeds only the DFF s, whose output
// the walk treats as a pseudo-PI immune to a, so a's faults are
// undetectable although a has a single fanout. s and b then feed one
// region through y = NAND(s, b) and z = NOT(y).
func dffFaninCircuit() *circuit.Netlist {
	n := circuit.New("dfffanin")
	a := n.MustAddGate("a", circuit.Input)
	n.MustAddGate("b", circuit.Input)
	s := n.MustAddGate("s", circuit.DFF)
	n.MustAddGate("y", circuit.Nand, "s", "b")
	n.MustAddGate("z", circuit.Not, "y")
	n.MustAddGate("w", circuit.Or, "b", "y")
	mustMarkOutputs(n, "z", "w")
	n.Gates[s].Fanin = []int{a}
	n.Gates[a].Fanout = append(n.Gates[a].Fanout, s)
	return n
}

// firstDetections returns each fault's first detecting pattern of p (-1 if
// none), read from Dictionary rows. A dictionary walk never halts on a
// need, so this oracle shares no halting rule with RunInto or runIntoRef.
// Faults go through in chunks whose signature matrix stays under 16 MB.
func firstDetections(t *testing.T, c *circuit.Netlist, p *logic.PatternSet, faults []Fault) []int {
	t.Helper()
	s, err := New(c, Options{Words: MaxWords})
	if err != nil {
		t.Fatal(err)
	}
	det := make([]int, len(faults))
	chunk := max(1, (1<<21)/(len(c.POs)*p.Words()))
	for lo := 0; lo < len(faults); lo += chunk {
		for i, sig := range s.Dictionary(p, faults[lo:min(lo+chunk, len(faults))]) {
			det[lo+i] = -1
			for w := 0; w < p.Words() && det[lo+i] < 0; w++ {
				var any logic.Word
				for _, row := range sig.Bits {
					any |= row[w]
				}
				if any != 0 {
					det[lo+i] = w*logic.WordBits + bits.TrailingZeros64(any)
				}
			}
		}
	}
	return det
}

// checkDropMatchesRef requires RunInto on a fresh W-word simulator to equal
// runIntoRef — every detBy entry and the count — on the given set, and,
// when first is non-nil, every detBy entry to equal first (firstDetections).
func checkDropMatchesRef(t *testing.T, c *circuit.Netlist, p *logic.PatternSet, faults []Fault, w int, first []int) {
	t.Helper()
	s, err := New(c, Options{Words: w})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(faults))
	wantN := runIntoRef(s, p, faults, want)
	got := make([]int, len(faults))
	gotN := s.RunInto(p, faults, got, nil)
	for fi := range faults {
		if got[fi] != want[fi] {
			t.Fatalf("%s N=%d W=%d fault %s: RunInto %d, per-fault reference %d",
				c.Name, p.N, w, faults[fi].Name(c), got[fi], want[fi])
		}
		if first != nil && got[fi] != first[fi] {
			t.Fatalf("%s N=%d W=%d fault %s: RunInto %d, dictionary rows %d",
				c.Name, p.N, w, faults[fi].Name(c), got[fi], first[fi])
		}
	}
	if gotN != wantN {
		t.Fatalf("%s N=%d W=%d: RunInto detected %d, per-fault reference %d", c.Name, p.N, w, gotN, wantN)
	}
}

// dropGridCircuits are the circuits of the per-fault reference grids:
// arithmetic, parity, compare, random and gated-parity circuits and the
// edge circuits of the full-resim oracle.
func dropGridCircuits() []*circuit.Netlist {
	return []*circuit.Netlist{
		circuit.MustC17(), circuit.ArrayMultiplier(8), circuit.ArrayMultiplier(16),
		circuit.GatedParity(8, 20, 6), circuit.Random(20, 300, 1), circuit.Random(32, 500, 1),
		circuit.Random(64, 2000, 3), circuit.ALUSlice(8), circuit.ParityTree(16), circuit.Comparator(16),
		repeatedFaninCircuit(), poFanoutCircuit(), scanCircuit(), wideFaninCircuit(9), dffFaninCircuit(),
	}
}

// TestDropPassMatchesPerFaultRef pins the fanout-free-region drop pass to
// the per-fault reference over the full uncollapsed universe (so branch
// faults and BUF/NOT input faults are in) of arithmetic, parity, compare,
// random and gated-parity circuits and the edge circuits of the full-resim
// oracle, at set sizes on both sides of every lane-group boundary and at
// every lane width. Both halt their walks on the same need rule, so at 1,
// 64, 128 and 700 patterns RunInto must also equal the first detections of
// Dictionary rows, whose walks never halt.
func TestDropPassMatchesPerFaultRef(t *testing.T) {
	for _, c := range dropGridCircuits() {
		faults := AllFaults(c)
		for _, n := range []int{1, 63, 64, 100, 128, 200, 512, 700} {
			rng := rand.New(rand.NewSource(int64(n)))
			p := logic.NewPatternSet(len(c.PIs), n)
			p.RandFill(rng.Uint64)
			var first []int
			if n == 1 || n == 64 || n == 128 || n == 700 {
				first = firstDetections(t, c, p, faults)
			}
			for _, w := range []int{1, 2, 4, 8} {
				checkDropMatchesRef(t, c, p, faults, w, first)
			}
		}
	}
}

// checkDictionaryMatchesRef requires Dictionary to equal dictionaryRef on
// the given set, for the faults in order and then shuffled (grouping by
// region must not depend on fault order), all three on one W-word
// simulator, so each call also starts from the scratch the last one left.
func checkDictionaryMatchesRef(t *testing.T, c *circuit.Netlist, p *logic.PatternSet, faults []Fault, w int, rng *rand.Rand) {
	t.Helper()
	s, err := New(c, Options{Words: w})
	if err != nil {
		t.Fatal(err)
	}
	want := dictionaryRef(s, p, faults)
	perm := rng.Perm(len(faults))
	shuffled := make([]Fault, len(faults))
	for i, k := range perm {
		shuffled[i] = faults[k]
	}
	for _, order := range []struct {
		name   string
		faults []Fault
		ref    func(i int) int
	}{
		{"in order", faults, func(i int) int { return i }},
		{"shuffled", shuffled, func(i int) int { return perm[i] }},
	} {
		got := s.Dictionary(p, order.faults)
		for i, f := range order.faults {
			for po, row := range got[i].Bits {
				for wd, x := range row {
					if y := want[order.ref(i)].Bits[po][wd]; x != y {
						t.Fatalf("%s N=%d W=%d %s, %d faults: fault %s PO %d word %d: Dictionary %#x, per-fault reference %#x",
							c.Name, p.N, w, order.name, len(faults), f.Name(c), po, wd, x, y)
					}
				}
			}
		}
	}
}

// regionFaults returns the faults of faults whose site lies in the
// fanout-free region with the most faults, in fault order.
func regionFaults(t *testing.T, c *circuit.Netlist, faults []Fault) []Fault {
	cc, err := c.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	count := map[int32]int{}
	best := int32(-1)
	for _, f := range faults {
		st := cc.FFRStem[cc.Tpos[f.Gate]]
		count[st]++
		if best < 0 || count[st] > count[best] {
			best = st
		}
	}
	var out []Fault
	for _, f := range faults {
		if cc.FFRStem[cc.Tpos[f.Gate]] == best {
			out = append(out, f)
		}
	}
	return out
}

// TestDictionaryMatchesPerFaultRef pins the fanout-free-region dictionary
// to the per-fault reference over the circuits of
// TestDropPassMatchesPerFaultRef: the full uncollapsed universe in order
// and shuffled (its prefix where the signature matrix would pass 16 MB),
// the faults of the region holding the most, and one-fault lists (the
// shape of diagnosis.Observe), at set sizes on both sides of a lane-group
// boundary and at every lane width.
func TestDictionaryMatchesPerFaultRef(t *testing.T) {
	for _, c := range dropGridCircuits() {
		t.Run(c.Name, func(t *testing.T) {
			faults := AllFaults(c)
			lists := [][]Fault{faults, regionFaults(t, c, faults)}
			for k := 0; k < 4; k++ {
				lists = append(lists, faults[k*len(faults)/4:k*len(faults)/4+1])
			}
			for _, n := range []int{1, 64, 100, 700} {
				rng := rand.New(rand.NewSource(int64(n)))
				p := logic.NewPatternSet(len(c.PIs), n)
				p.RandFill(rng.Uint64)
				for _, w := range []int{1, 2, 4, 8} {
					for _, list := range lists {
						// A prefix of at most 16 MB of signature matrix per
						// dictionary keeps the 2k-gate circuit's memory small.
						list = list[:min(len(list), (1<<21)/(len(c.POs)*p.Words()))]
						checkDictionaryMatchesRef(t, c, p, list, w, rng)
					}
				}
			}
		})
	}
}

// TestDictionaryBlockRows pins what DictionaryBlock hands its sink: per
// W-block, exactly the nonzero rows of Dictionary in that block, each
// (fault, PO) once, with the block's base and width, and no zero row. The
// 700-pattern set ends in a partial word and, at W = 2 and 8, in a partial
// block; an empty fault list hands out nothing.
func TestDictionaryBlockRows(t *testing.T) {
	circuits := []*circuit.Netlist{
		circuit.MustC17(), circuit.ArrayMultiplier(8), circuit.Random(20, 300, 1), circuit.GatedParity(8, 20, 6),
		repeatedFaninCircuit(), poFanoutCircuit(), scanCircuit(), wideFaninCircuit(9), dffFaninCircuit(),
	}
	for _, c := range circuits {
		faults := AllFaults(c)
		rng := rand.New(rand.NewSource(7))
		p := logic.NewPatternSet(len(c.PIs), 700)
		p.RandFill(rng.Uint64)
		words := p.Words()
		for _, w := range []int{1, 2, 8} {
			s, err := New(c, Options{Words: w})
			if err != nil {
				t.Fatal(err)
			}
			want := s.Dictionary(p, faults)
			rows := 0
			for base := 0; base < words; base += w {
				act := min(w, words-base)
				s.DictionaryBlock(p, nil, base, func(fi, po, _ int, _ []logic.Word) {
					t.Fatalf("%s W=%d base %d: empty fault list handed out fault %d PO %d", c.Name, w, base, fi, po)
				})
				seen := map[[2]int]bool{}
				s.DictionaryBlock(p, faults, base, func(fi, po, b int, row []logic.Word) {
					at := fmt.Sprintf("%s W=%d base %d fault %s PO %d", c.Name, w, base, faults[fi].Name(c), po)
					if b != base || len(row) != act {
						t.Fatalf("%s: handed base %d, %d words; want %d, %d", at, b, len(row), base, act)
					}
					if seen[[2]int{fi, po}] {
						t.Fatalf("%s: handed out twice", at)
					}
					seen[[2]int{fi, po}] = true
					if !slices.ContainsFunc(row, func(x logic.Word) bool { return x != 0 }) {
						t.Fatalf("%s: zero row handed out", at)
					}
					if ref := want[fi].Bits[po][base : base+act]; !slices.Equal(row, ref) {
						t.Fatalf("%s: row %#x, Dictionary %#x", at, row, ref)
					}
				})
				for fi, sig := range want {
					for po, r := range sig.Bits {
						if slices.ContainsFunc(r[base:base+act], func(x logic.Word) bool { return x != 0 }) && !seen[[2]int{fi, po}] {
							t.Fatalf("%s W=%d base %d: nonzero row of fault %s PO %d not handed out",
								c.Name, w, base, faults[fi].Name(c), po)
						}
					}
				}
				rows += len(seen)
			}
			if rows == 0 {
				t.Fatalf("%s W=%d: no rows at all", c.Name, w)
			}
		}
	}
}

// dropFuzzNetlist decodes bytes into a small netlist of at most 10 PIs and
// 64 gates — a circuit.Random core grown by byte-driven gates that stress
// region boundaries: gates reading one net on several pins, POs that also
// drive logic, XOR chains and ANDs with wide fanin — and a pattern set of
// up to 600 patterns.
func dropFuzzNetlist(data []byte) (*circuit.Netlist, *logic.PatternSet) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nIn := 2 + next()%9
	c := circuit.Random(nIn, 1+next()%24, int64(next()))
	sigs := make([]string, 0, len(c.Gates))
	for _, g := range c.Gates {
		sigs = append(sigs, g.Name)
	}
	pick := func() string { return sigs[next()%len(sigs)] }
	twoIn := []circuit.GateType{circuit.And, circuit.Nand, circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor}
	add := func(t circuit.GateType, fanin ...string) string {
		name := fmt.Sprintf("f%d", len(c.Gates))
		c.MustAddGate(name, t, fanin...)
		sigs = append(sigs, name)
		return name
	}
	for len(data) > 0 && len(c.Gates) < nIn+64 {
		switch op := next() % 5; op {
		case 0: // one net on two pins
			a, b := pick(), pick()
			add(twoIn[next()%len(twoIn)], a, b, a)
		case 1: // a PO that also drives logic
			a := pick()
			if err := c.MarkOutput(a); err != nil {
				panic(err)
			}
			add([]circuit.GateType{circuit.Not, circuit.Buf}[next()%2], a)
		case 2: // an XOR chain
			prev := pick()
			for k := 2 + next()%5; k > 0 && len(c.Gates) < nIn+64; k-- {
				prev = add(circuit.Xor, prev, pick())
			}
		case 3: // a wide AND
			in := make([]string, 3+next()%7)
			for i := range in {
				in[i] = pick()
			}
			add(circuit.And, in...)
		case 4: // a plain two-input gate
			add(twoIn[next()%len(twoIn)], pick(), pick())
		}
	}
	if err := c.MarkOutput(sigs[len(sigs)-1]); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(int64(next())))
	p := logic.NewPatternSet(nIn, 1+next()*600/256)
	p.RandFill(rng.Uint64)
	return c, p
}

// FuzzDropPass checks RunInto and Dictionary against their per-fault
// references on decoded small netlists at one and eight lanes. Those
// references share the walk kernel, its halting rule and the good
// simulation with the code they check, so it also checks Run (RunInto),
// RunSerial, Probe and Dictionary against full re-simulation
// (checkFullResim), SimulateTransitions over the first 64 patterns at one
// and eight lanes against first-principles pair simulation
// (explicitFirstPairs), and sim.Propagate at two and eight lanes against
// fullResim, which evaluates gate by gate with sim.Eval.
func FuzzDropPass(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 20, 1, 0, 3, 4, 1, 5, 2, 4, 9, 2, 3, 6, 4, 7, 0, 1, 2, 3, 200})
	f.Add([]byte{3, 5, 7, 2, 0, 6, 1, 0, 9, 3, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 255})
	f.Add([]byte{9, 23, 42, 1, 2, 1, 3, 1, 4, 0, 5, 5, 0, 6, 6, 2, 9, 9, 9, 9, 9, 9, 9, 9, 9, 17, 120})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, p := dropFuzzNetlist(data)
		faults := AllFaults(c)
		for _, w := range []int{1, 8} {
			checkDropMatchesRef(t, c, p, faults, w, nil)
			checkDictionaryMatchesRef(t, c, p, faults, w, rand.New(rand.NewSource(int64(len(data)))))
		}
		checkFullResim(t, c, p, faults, []int{1, 8})
		pairs := logic.NewPatternSet(p.Inputs, 0)
		for k := 0; k < min(p.N, 64); k++ {
			pairs.Append(p.Pattern(k))
		}
		tfaults := TransitionUniverse(c)
		checkTransitions(t, c, pairs, tfaults, explicitFirstPairs(c, pairs, tfaults), []int{1, 8}, []int{1})
		for _, w := range []int{2, 8} {
			checkPropagateMatchesRef(t, c, w, rand.New(rand.NewSource(int64(len(data)))))
		}
	})
}

// checkPropagateMatchesRef requires sim.Propagate over every lane window
// [lo, hi) of a W-lane buffer holding random words to write, in each lane
// of the window, the values fullResim computes from that lane's PI words,
// and to leave every other lane as it was.
func checkPropagateMatchesRef(t *testing.T, n *circuit.Netlist, W int, rng *rand.Rand) {
	t.Helper()
	c, err := n.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	init := make([]logic.Word, c.NumGates()*W)
	for i := range init {
		init[i] = logic.Word(rng.Uint64())
	}
	want := make([][]logic.Word, W) // want[l][gate ID]
	pi := make([]logic.Word, c.NumPIs())
	for l := range want {
		for i := range pi {
			pi[i] = init[i*W+l]
		}
		want[l] = fullResim(n, nil, pi)
	}
	vals := make([]logic.Word, len(init))
	for lo := 0; lo < W; lo++ {
		for hi := lo + 1; hi <= W; hi++ {
			copy(vals, init)
			sim.Propagate(c, vals, W, lo, hi)
			for g := range n.Gates {
				b := int(c.Tpos[g]) * W
				for l := 0; l < W; l++ {
					w := init[b+l]
					if l >= lo && l < hi {
						w = want[l][g]
					}
					if vals[b+l] != w {
						t.Fatalf("W=%d [%d,%d): gate %s lane %d = %#x, want %#x", W, lo, hi, n.Gates[g].Name, l, vals[b+l], w)
					}
				}
			}
		}
	}
}

// TestDropPassRecoversFromPanic pins the drop pass's scratch across a
// RunInto that panics mid-stage (a fault on a gate the netlist does not
// have, after other faults have filled unions and memoized sensitization):
// the next RunInto on the same simulator, over another pattern set, must
// equal a fresh one.
func TestDropPassRecoversFromPanic(t *testing.T) {
	n := circuit.Random(16, 400, 2)
	c, err := n.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	faults := AllFaults(n)
	rng := rand.New(rand.NewSource(3))
	p, next := randSet(rng, len(n.PIs), 300), randSet(rng, len(n.PIs), 300)
	for _, w := range []int{1, 8} {
		s := newSimulator(c, w)
		bad := append(faults[:len(faults):len(faults)], Fault{Gate: len(n.Gates), Pin: -1})
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("RunInto on an out-of-range fault did not panic")
				}
			}()
			s.RunInto(p, bad, make([]int, len(bad)), nil)
		}()
		got := make([]int, len(faults))
		s.RunInto(next, faults, got, nil)
		for i, want := range freshRunInto(t, c, w, next, faults) {
			if got[i] != want {
				t.Fatalf("W=%d fault %s after a panic: detected by %d, fresh simulator says %d", w, faults[i].Name(n), got[i], want)
			}
		}
	}
}
