package fault_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/logic"
)

// TestSignatureLayout pins NewSignatures' PO-major layout: a write through
// sigs[f].Bits[o] lands at index f of column o, and every row keeps cap ==
// words, so an append to a row cannot grow into its neighbour.
func TestSignatureLayout(t *testing.T) {
	for _, sh := range []struct{ faults, pos, words int }{
		{1, 1, 1}, {3, 2, 1}, {5, 4, 3}, {7, 1, 8}, {2, 6, 2}, {0, 3, 2},
	} {
		sigs := fault.NewSignatures(sh.faults, sh.pos, sh.words)
		mark := func(f, o, w int) logic.Word { return logic.Word(f<<32 | o<<16 | w + 1) }
		for f, sg := range sigs {
			if len(sg.Bits) != sh.pos {
				t.Fatalf("%+v: fault %d has %d rows", sh, f, len(sg.Bits))
			}
			for o, row := range sg.Bits {
				if len(row) != sh.words || cap(row) != sh.words {
					t.Fatalf("%+v: row (%d, %d) len %d cap %d, want %d", sh, f, o, len(row), cap(row), sh.words)
				}
				for w := range row {
					row[w] = mark(f, o, w)
				}
			}
		}
		for o := 0; o < sh.pos; o++ {
			col := fault.Column(sigs, o)
			if len(col) != sh.faults*sh.words {
				t.Fatalf("%+v: column %d has %d words", sh, o, len(col))
			}
			for i, x := range col {
				if f, w := i/sh.words, i%sh.words; x != mark(f, o, w) {
					t.Fatalf("%+v: column %d word %d is %#x, want fault %d word %d", sh, o, i, x, f, w)
				}
			}
		}
	}
}

// TestColumnOnlyOfWholeMatrix: Column answers nil for a slice that is not
// one whole NewSignatures matrix.
func TestColumnOnlyOfWholeMatrix(t *testing.T) {
	sigs := fault.NewSignatures(4, 2, 1)
	for name, s := range map[string][]*fault.Signature{
		"tail":       sigs[1:],
		"head":       sigs[:3],
		"hand-built": {{Bits: [][]logic.Word{{1}, {2}}}},
		"empty":      nil,
	} {
		if col := fault.Column(s, 0); col != nil {
			t.Errorf("%s: Column = %v, want nil", name, col)
		}
	}
}

// TestColumnMatchesViews: for the dictionaries every build path returns —
// Simulator.Dictionary, DictionaryConcurrent at workers {1, 2, 4} × W
// {1, 8} and the cluster coordinator's merge — each column is the rows'
// own storage in fault order.
func TestColumnMatchesViews(t *testing.T) {
	n := circuit.Random(8, 80, 5)
	faults := fault.Universe(n)
	p := logic.NewPatternSet(len(n.PIs), 500) // 8 words: several blocks at W = 1
	p.RandFill(rand.New(rand.NewSource(13)).Uint64)
	sim, err := fault.NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	checkColumns(t, "Dictionary", sim.Dictionary(p, faults), p.Words())
	for _, workers := range []int{1, 2, 4} {
		for _, words := range []int{1, 8} {
			sigs, err := fault.DictionaryConcurrent(n, p, faults, fault.Options{Workers: workers, Words: words})
			if err != nil {
				t.Fatal(err)
			}
			checkColumns(t, "DictionaryConcurrent", sigs, p.Words())
		}
	}

	lb := cluster.NewLoopback()
	c := cluster.New(cluster.Config{})
	go c.Serve(lb)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan struct{})
	for _, id := range []string{"a", "b"} {
		w := &cluster.Worker{ID: id, Dial: lb.Dial, MinBackoff: 10 * time.Millisecond}
		go func() {
			w.Run(ctx)
			done <- struct{}{}
		}()
	}
	sigs, err := c.Dictionary(ctx, n, p, faults, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkColumns(t, "cluster Dictionary", sigs, p.Words())
	cancel()
	<-done
	<-done
}

// checkColumns reports a column of sigs that is not, fault by fault, the
// storage of the rows' views.
func checkColumns(t *testing.T, name string, sigs []*fault.Signature, words int) {
	t.Helper()
	for o := range sigs[0].Bits {
		col := fault.Column(sigs, o)
		if len(col) != len(sigs)*words {
			t.Fatalf("%s: column %d has %d words, want %d", name, o, len(col), len(sigs)*words)
		}
		for f, sg := range sigs {
			row := col[f*words : (f+1)*words]
			if !slices.Equal(row, sg.Bits[o]) || &row[0] != &sg.Bits[o][0] {
				t.Fatalf("%s: column %d at fault %d is not the row's storage", name, o, f)
			}
		}
	}
}
