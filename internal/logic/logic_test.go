package logic

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Faulty returns the value seen in the faulty circuit: V0, V1 or VX.
func (v V) Faulty() V {
	switch v {
	case VD:
		return V0
	case VDbar:
		return V1
	}
	return v
}

func TestVString(t *testing.T) {
	cases := map[V]string{V0: "0", V1: "1", VX: "X", VD: "D", VDbar: "D'"}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("V(%d).String() = %q, want %q", v, got, want)
		}
	}
	if got := V(99).String(); got != "V(99)" {
		t.Errorf("invalid value string = %q", got)
	}
}

func TestGoodFaulty(t *testing.T) {
	cases := []struct {
		v            V
		good, faulty V
	}{
		{V0, V0, V0},
		{V1, V1, V1},
		{VX, VX, VX},
		{VD, V1, V0},
		{VDbar, V0, V1},
	}
	for _, c := range cases {
		if got := c.v.Good(); got != c.good {
			t.Errorf("%v.Good() = %v, want %v", c.v, got, c.good)
		}
		if got := c.v.Faulty(); got != c.faulty {
			t.Errorf("%v.Faulty() = %v, want %v", c.v, got, c.faulty)
		}
	}
}

func TestIsD(t *testing.T) {
	if !VD.IsD() || !VDbar.IsD() {
		t.Error("VD/VDbar must report IsD")
	}
	if V0.IsD() || V1.IsD() || VX.IsD() {
		t.Error("0/1/X must not report IsD")
	}
}

func TestNotInvolution(t *testing.T) {
	for _, v := range []V{V0, V1, VX, VD, VDbar} {
		if got := v.Not().Not(); got != v {
			t.Errorf("double negation of %v = %v", v, got)
		}
	}
}

// allV is the full five-valued domain.
var allV = []V{V0, V1, VX, VD, VDbar}

// TestFiveValuedConsistency checks that And/Or/Xor/Not agree with binary
// logic applied separately to the good and faulty projections, whenever no X
// is involved.
func TestFiveValuedConsistency(t *testing.T) {
	binAnd := func(a, b V) V {
		if a == V1 && b == V1 {
			return V1
		}
		return V0
	}
	binOr := func(a, b V) V {
		if a == V1 || b == V1 {
			return V1
		}
		return V0
	}
	binXor := func(a, b V) V {
		if a != b {
			return V1
		}
		return V0
	}
	for _, a := range allV {
		for _, b := range allV {
			if a == VX || b == VX {
				continue
			}
			type op struct {
				name string
				five func(V, V) V
				two  func(V, V) V
			}
			for _, o := range []op{{"And", And, binAnd}, {"Or", Or, binOr}, {"Xor", Xor, binXor}} {
				got := o.five(a, b)
				if g, w := got.Good(), o.two(a.Good(), b.Good()); g != w {
					t.Errorf("%s(%v,%v).Good() = %v, want %v", o.name, a, b, g, w)
				}
				if g, w := got.Faulty(), o.two(a.Faulty(), b.Faulty()); g != w {
					t.Errorf("%s(%v,%v).Faulty() = %v, want %v", o.name, a, b, g, w)
				}
			}
		}
	}
}

func TestFiveValuedXAbsorption(t *testing.T) {
	// Controlling values override X; otherwise X dominates.
	if And(V0, VX) != V0 || And(VX, V0) != V0 {
		t.Error("0 AND X must be 0")
	}
	if Or(V1, VX) != V1 || Or(VX, V1) != V1 {
		t.Error("1 OR X must be 1")
	}
	if And(V1, VX) != VX || Or(V0, VX) != VX || Xor(V1, VX) != VX {
		t.Error("X must propagate through non-controlling inputs")
	}
}

func TestCommutativity(t *testing.T) {
	for _, a := range allV {
		for _, b := range allV {
			if And(a, b) != And(b, a) {
				t.Errorf("And(%v,%v) not commutative", a, b)
			}
			if Or(a, b) != Or(b, a) {
				t.Errorf("Or(%v,%v) not commutative", a, b)
			}
			if Xor(a, b) != Xor(b, a) {
				t.Errorf("Xor(%v,%v) not commutative", a, b)
			}
		}
	}
}

func TestDeMorgan(t *testing.T) {
	for _, a := range allV {
		for _, b := range allV {
			if And(a, b).Not() != Or(a.Not(), b.Not()) {
				t.Errorf("De Morgan violated for And(%v,%v)", a, b)
			}
			if Or(a, b).Not() != And(a.Not(), b.Not()) {
				t.Errorf("De Morgan violated for Or(%v,%v)", a, b)
			}
		}
	}
}

func TestPatternSetSetGet(t *testing.T) {
	p := NewPatternSet(5, 130)
	p.Set(0, 0, true)
	p.Set(64, 3, true)
	p.Set(129, 4, true)
	if !p.Get(0, 0) || !p.Get(64, 3) || !p.Get(129, 4) {
		t.Error("set bits not readable")
	}
	if p.Get(1, 0) || p.Get(64, 2) {
		t.Error("unset bits read as set")
	}
	p.Set(64, 3, false)
	if p.Get(64, 3) {
		t.Error("cleared bit still set")
	}
}

func TestPatternSetWords(t *testing.T) {
	for _, c := range []struct{ n, words int }{{0, 0}, {1, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}} {
		p := NewPatternSet(2, c.n)
		if got := p.Words(); got != c.words {
			t.Errorf("Words() for n=%d = %d, want %d", c.n, got, c.words)
		}
	}
}

func TestTailMask(t *testing.T) {
	p := NewPatternSet(1, 70)
	if got := p.TailMask(0); got != ^Word(0) {
		t.Errorf("full word mask = %x", got)
	}
	if got := p.TailMask(1); got != (1<<6)-1 {
		t.Errorf("tail mask = %x, want %x", got, (1<<6)-1)
	}
	p2 := NewPatternSet(1, 64)
	if got := p2.TailMask(0); got != ^Word(0) {
		t.Errorf("exact word mask = %x", got)
	}
}

func TestPatternRoundTrip(t *testing.T) {
	p := NewPatternSet(7, 20)
	bits := []bool{true, false, true, true, false, false, true}
	p.SetPattern(13, bits)
	got := p.Pattern(13)
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("pattern mismatch at input %d", i)
		}
	}
}

func TestAppend(t *testing.T) {
	p := NewPatternSet(3, 0)
	for i := 0; i < 200; i++ {
		idx := p.Append([]bool{i%2 == 0, i%3 == 0, i%5 == 0})
		if idx != i {
			t.Fatalf("Append returned %d, want %d", idx, i)
		}
	}
	if p.N != 200 {
		t.Fatalf("N = %d, want 200", p.N)
	}
	for i := 0; i < 200; i++ {
		if p.Get(i, 0) != (i%2 == 0) || p.Get(i, 1) != (i%3 == 0) || p.Get(i, 2) != (i%5 == 0) {
			t.Fatalf("pattern %d corrupted after appends", i)
		}
	}
}

func TestClone(t *testing.T) {
	p := NewPatternSet(2, 66)
	p.Set(65, 1, true)
	q := p.Clone()
	p.Set(65, 1, false)
	if !q.Get(65, 1) {
		t.Error("clone shares storage with original")
	}
}

func TestRandFillRespectsTail(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewPatternSet(3, 70)
	p.RandFill(rng.Uint64)
	for i := 0; i < 3; i++ {
		if p.Bits[i][1]&^p.TailMask(1) != 0 {
			t.Errorf("input %d has bits beyond pattern count", i)
		}
	}
}

func TestExhaustive(t *testing.T) {
	p := Exhaustive(4)
	if p.N != 16 {
		t.Fatalf("N = %d, want 16", p.N)
	}
	seen := map[string]bool{}
	for n := 0; n < p.N; n++ {
		seen[FormatBits(p.Pattern(n))] = true
	}
	if len(seen) != 16 {
		t.Fatalf("exhaustive set has %d distinct patterns, want 16", len(seen))
	}
}

func TestExhaustivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exhaustive(25) must panic")
		}
	}()
	Exhaustive(25)
}

func TestParseFormatBits(t *testing.T) {
	bits, err := ParseBits("10110")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatBits(bits); got != "10110" {
		t.Errorf("round trip = %q", got)
	}
	if _, err := ParseBits("10x"); err == nil {
		t.Error("invalid character must error")
	}
}

func TestParseFormatProperty(t *testing.T) {
	f := func(raw []bool) bool {
		s := FormatBits(raw)
		back, err := ParseBits(s)
		if err != nil || len(back) != len(raw) {
			return false
		}
		for i := range raw {
			if back[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Set followed by Get returns the written value for arbitrary
// in-range coordinates.
func TestPatternSetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inputs := 1 + rng.Intn(20)
		n := 1 + rng.Intn(300)
		p := NewPatternSet(inputs, n)
		type key struct{ n, i int }
		want := map[key]bool{}
		for k := 0; k < 500; k++ {
			pos := key{rng.Intn(n), rng.Intn(inputs)}
			v := rng.Intn(2) == 1
			p.Set(pos.n, pos.i, v)
			want[pos] = v
		}
		for pos, v := range want {
			if p.Get(pos.n, pos.i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: a pattern set refilled after Reset is indistinguishable from a
// freshly allocated one — no stale bits survive the word reuse, the tail
// mask tracks the new length, and PatternInto matches Pattern.
func TestPatternSetResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := NewPatternSet(9, 0)
	buf := make([]bool, 9)
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(150)
		fresh := NewPatternSet(9, 0)
		p.Reset()
		if p.N != 0 {
			t.Fatalf("round %d: N = %d after Reset", round, p.N)
		}
		for k := 0; k < n; k++ {
			bits := make([]bool, 9)
			for i := range bits {
				bits[i] = rng.Intn(2) == 1
			}
			p.Append(bits)
			fresh.Append(bits)
		}
		if p.N != fresh.N || p.Words() != fresh.Words() {
			t.Fatalf("round %d: dims (%d,%d) != fresh (%d,%d)", round, p.N, p.Words(), fresh.N, fresh.Words())
		}
		for i := range p.Bits {
			for w := range p.Bits[i] {
				if p.Bits[i][w]&p.TailMask(w) != fresh.Bits[i][w] {
					t.Fatalf("round %d: input %d word %d: reused %x != fresh %x",
						round, i, w, p.Bits[i][w]&p.TailMask(w), fresh.Bits[i][w])
				}
			}
		}
		k := rng.Intn(n)
		if got, want := FormatBits(p.PatternInto(k, buf)), FormatBits(fresh.Pattern(k)); got != want {
			t.Fatalf("round %d: PatternInto(%d) = %s, want %s", round, k, got, want)
		}
	}
}

func BenchmarkFiveValuedAnd(b *testing.B) {
	var sink V
	for i := 0; i < b.N; i++ {
		sink = And(allV[i%5], allV[(i+1)%5])
	}
	_ = sink
}

// garbageSet returns a set of n patterns whose words, including the bits
// above N, are random. With reuse, it is a larger random set that was Reset
// and refilled one pattern at a time, so stale words sit past its rows'
// lengths in their backing.
func garbageSet(rng *rand.Rand, inputs, n int, reuse bool) *PatternSet {
	if !reuse {
		p := NewPatternSet(inputs, n)
		for _, row := range p.Bits {
			for w := range row {
				row[w] = rng.Uint64()
			}
		}
		return p
	}
	p := NewPatternSet(inputs, n+WordBits+rng.Intn(3*WordBits))
	for _, row := range p.Bits {
		for w := range row {
			row[w] = rng.Uint64()
		}
	}
	p.Reset()
	bits := make([]bool, inputs)
	for k := 0; k < n; k++ {
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		p.Append(bits)
	}
	return p
}

// refMove is the per-bit reference for every word-level move: a copy of
// dst's valid bits, then src's patterns order[0], order[1], ... appended
// one at a time through Get and Set.
func refMove(dst, src *PatternSet, order []int) *PatternSet {
	ref := NewPatternSet(dst.Inputs, dst.N)
	for k := 0; k < dst.N; k++ {
		for i := 0; i < dst.Inputs; i++ {
			ref.Set(k, i, dst.Get(k, i))
		}
	}
	for _, k := range order {
		ref.Append(src.Pattern(k))
	}
	return ref
}

// sameMove reports how got differs from the per-bit reference, or "" if it
// holds the same patterns, as many words per row as it needs, and no bits
// above N.
func sameMove(got, want *PatternSet) string {
	if got.N != want.N || got.Inputs != want.Inputs {
		return fmt.Sprintf("dims (%d,%d), want (%d,%d)", got.Inputs, got.N, want.Inputs, want.N)
	}
	for i, row := range got.Bits {
		if len(row) != got.Words() {
			return fmt.Sprintf("input %d: %d words, want %d", i, len(row), got.Words())
		}
		if w := len(row) - 1; w >= 0 && row[w]&^got.TailMask(w) != 0 {
			return fmt.Sprintf("input %d: bits above N set: %x", i, row[w]&^got.TailMask(w))
		}
		for k := 0; k < got.N; k++ {
			if got.Get(k, i) != want.Get(k, i) {
				return fmt.Sprintf("input %d pattern %d: %v, want %v", i, k, got.Get(k, i), want.Get(k, i))
			}
		}
	}
	return ""
}

// checkMoves runs AppendSet, AppendReversed and AppendGather from a random
// source of srcN patterns onto a random destination of dstN patterns and
// compares each with the per-bit reference. With mismatch, the source has
// one input more and every move must panic, as Append does.
func checkMoves(t testing.TB, inputs, dstN, srcN int, seed int64, reuse, mismatch bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	srcInputs := inputs
	if mismatch {
		srcInputs++
	}
	src := garbageSet(rng, srcInputs, srcN, reuse)
	last, n := -1, 0
	if srcN > 0 {
		last = rng.Intn(srcN)
		n = rng.Intn(last + 2)
	}
	var idx []int
	if srcN > 0 {
		idx = make([]int, rng.Intn(srcN+8))
		for t := range idx {
			idx[t] = rng.Intn(srcN)
		}
	}
	reversed := make([]int, n)
	for j := range reversed {
		reversed[j] = last - j
	}
	all := make([]int, srcN)
	for k := range all {
		all[k] = k
	}
	moves := []struct {
		name  string
		order []int
		move  func(p *PatternSet)
	}{
		{"AppendSet", all, func(p *PatternSet) { p.AppendSet(src) }},
		{"AppendReversed", reversed, func(p *PatternSet) { p.AppendReversed(src, max(last, 0), n) }},
		{"AppendGather", idx, func(p *PatternSet) { p.AppendGather(src, idx) }},
	}
	for _, m := range moves {
		dst := garbageSet(rng, inputs, dstN, reuse)
		label := fmt.Sprintf("%s inputs=%d dstN=%d srcN=%d seed=%d reuse=%v", m.name, inputs, dstN, srcN, seed, reuse)
		if mismatch {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: inputs %d onto %d did not panic", label, srcInputs, inputs)
					}
				}()
				m.move(dst)
			}()
			continue
		}
		want := refMove(dst, src, m.order)
		m.move(dst)
		if diff := sameMove(dst, want); diff != "" {
			t.Fatalf("%s: %s", label, diff)
		}
	}
}

// TestPatternSetMoves compares the word-level moves with the per-bit
// reference on the edges of the word layout: empty sets, exact multiples
// of 64 and one either side, zero inputs, stale bits above N and stale
// words left by Reset.
func TestPatternSetMoves(t *testing.T) {
	seed := int64(0)
	for _, inputs := range []int{0, 1, 3, 64, 70} {
		for _, dstN := range []int{0, 1, 63, 64, 65, 127, 128, 130} {
			for _, srcN := range []int{0, 1, 63, 64, 65, 128, 129, 200} {
				for _, reuse := range []bool{false, true} {
					seed++
					checkMoves(t, inputs, dstN, srcN, seed, reuse, false)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for r := 0; r < 300; r++ {
		checkMoves(t, rng.Intn(71), rng.Intn(131), rng.Intn(201), rng.Int63(), rng.Intn(2) == 1, false)
	}
	for _, inputs := range []int{0, 5, 64} {
		checkMoves(t, inputs, 7, 70, 1, false, true)
	}
}

// TestPatternSetMovesPanic pins the argument checks of the ranged moves.
func TestPatternSetMovesPanic(t *testing.T) {
	src := NewPatternSet(4, 10)
	for name, move := range map[string]func(p *PatternSet){
		"last past N":         func(p *PatternSet) { p.AppendReversed(src, 10, 1) },
		"range before 0":      func(p *PatternSet) { p.AppendReversed(src, 3, 5) },
		"negative count":      func(p *PatternSet) { p.AppendReversed(src, 3, -1) },
		"gather index past N": func(p *PatternSet) { p.AppendGather(src, []int{0, 10}) },
		"negative index":      func(p *PatternSet) { p.AppendGather(src, []int{-1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			move(NewPatternSet(4, 3))
		}()
	}
}

// FuzzPatternSetMoves compares the word-level moves with the per-bit
// reference on arbitrary shapes: 0-70 inputs, destination offsets 0-130,
// sources of 0-200 patterns, optionally reused after Reset or with a
// mismatched input count.
func FuzzPatternSetMoves(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint8(64), int64(1), uint8(0))
	f.Add(uint8(70), uint8(64), uint8(128), int64(2), uint8(1))
	f.Add(uint8(9), uint8(65), uint8(63), int64(3), uint8(1))
	f.Add(uint8(1), uint8(130), uint8(200), int64(4), uint8(0))
	f.Add(uint8(0), uint8(5), uint8(7), int64(5), uint8(0))
	f.Add(uint8(12), uint8(33), uint8(99), int64(6), uint8(2))
	f.Fuzz(func(t *testing.T, inputs, dstN, srcN uint8, seed int64, flags uint8) {
		checkMoves(t, int(inputs)%71, int(dstN)%131, int(srcN)%201, seed, flags&1 != 0, flags&2 != 0)
	})
}
