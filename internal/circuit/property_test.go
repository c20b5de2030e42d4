package circuit

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: .bench serialization round-trips arbitrary generated netlists
// structurally (same gate count, IO shape, depth) and functionally (same
// stats per gate type).
func TestBenchRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Random(4+rng.Intn(10), 10+rng.Intn(80), seed)
		var buf bytes.Buffer
		if err := c.WriteBench(&buf); err != nil {
			return false
		}
		back, err := ParseBenchString(buf.String(), c.Name)
		if err != nil {
			return false
		}
		a, b := c.Stats(), back.Stats()
		if a.PIs != b.PIs || a.POs != b.POs || a.Gates != b.Gates || a.Depth != b.Depth {
			return false
		}
		for gt, n := range a.ByType {
			if b.ByType[gt] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: SCOAP observability of any gate is at least the minimum
// observability of its fanouts (it can only get harder, never easier, to
// observe a signal than its easiest consumer path).
func TestSCOAPObservabilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := Random(6, 50+int(seed%50+50), seed)
		s := computeSCOAP(c)
		isPO := map[int]bool{}
		for _, po := range c.POs {
			isPO[po] = true
		}
		for _, g := range c.Gates {
			if isPO[g.ID] || len(g.Fanout) == 0 {
				continue
			}
			minFo := int(^uint(0) >> 1)
			for _, fo := range g.Fanout {
				if _, _, co := scoapOf(c, s, fo); co < minFo {
					minFo = co
				}
			}
			if _, _, co := scoapOf(c, s, g.ID); co <= minFo {
				return false // must be strictly harder than the consumer
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: levelization puts every gate strictly above all of its fanins.
func TestLevelizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := Random(5, 40, seed)
		if err := c.Levelize(); err != nil {
			return false
		}
		for _, g := range c.Gates {
			for _, fi := range g.Fanin {
				if c.Gates[fi].Level >= g.Level {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
