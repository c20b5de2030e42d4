package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
)

// ---------------------------------------------------------------------------
// Journal unit tests: framing round trip, torn tails, corruption typing.

// buildJournal runs a detect job to completion with a journal attached and
// returns the durable journal bytes — a real journal, produced by the real
// write path.
func buildJournal(t *testing.T, cfg Config, n *circuit.Netlist, p *logic.PatternSet, faults []fault.Fault, words int) []byte {
	t.Helper()
	vf := &chaos.VolatileFile{}
	c, lb := startCoordinator(t, cfg)
	startWorker(t, lb, "w")
	if _, err := c.DetectOpt(testCtx(t), n, p, faults, words, JobOptions{Journal: NewJournal(vf)}); err != nil {
		t.Fatal(err)
	}
	return vf.Durable()
}

func TestJournalRoundTrip(t *testing.T) {
	n := circuit.RippleAdder(2)
	faults := fault.Universe(n)
	p := testPatterns(n, 70, 7)
	data := buildJournal(t, Config{ShardFaults: 8}, n, p, faults, 1)

	rep, err := ReadJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn {
		t.Error("clean journal reported torn")
	}
	wantShards := (len(faults) + 7) / 8
	if rep.Shards() != wantShards {
		t.Errorf("Shards() = %d, want %d", rep.Shards(), wantShards)
	}
	if rep.Valid != int64(len(data)) {
		t.Errorf("Valid = %d, want %d", rep.Valid, len(data))
	}
	h := rep.Header
	if h.Kind != KindDetect || int(h.NFaults) != len(faults) || int(h.NShards) != wantShards || int(h.ShardUnit) != 8 {
		t.Errorf("header: %+v", h)
	}
}

// TestJournalTornTailEveryPrefix replays every byte-length prefix of a real
// journal: prefixes inside the header are corrupt (typed, no resume base),
// longer ones recover an intact record prefix — possibly torn, never a
// panic, and Valid always points at a clean frame boundary.
func TestJournalTornTailEveryPrefix(t *testing.T) {
	n := circuit.RippleAdder(2)
	faults := fault.Universe(n)
	p := testPatterns(n, 70, 9)
	data := buildJournal(t, Config{ShardFaults: 16}, n, p, faults, 1)

	readable := 0
	for cut := 0; cut <= len(data); cut++ {
		rep, err := ReadJournal(bytes.NewReader(data[:cut]))
		if err != nil {
			// Prefix ends inside the header frame: no resume base exists
			// and that is a typed refusal.
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("cut %d: untyped error %v", cut, err)
			}
			continue
		}
		readable++
		if rep.Valid > int64(cut) {
			t.Fatalf("cut %d: Valid %d beyond data", cut, rep.Valid)
		}
		if !rep.Torn && rep.Valid != int64(cut) {
			t.Fatalf("cut %d: not torn but Valid %d != cut", cut, rep.Valid)
		}
		// The valid prefix must itself replay cleanly — the truncate-
		// then-append resume contract.
		again, err := ReadJournal(bytes.NewReader(data[:rep.Valid]))
		if err != nil || again.Torn || again.Shards() != rep.Shards() {
			t.Fatalf("cut %d: valid prefix replay: %v torn=%v shards %d != %d",
				cut, err, again.Torn, again.Shards(), rep.Shards())
		}
	}
	if readable == 0 {
		t.Fatal("no prefix was readable — header never parsed")
	}
}

func TestJournalCorruptRecordTyped(t *testing.T) {
	// Records whose framing is intact but whose content is impossible must
	// be ErrJournalCorrupt, not a torn tail and never a merge.
	h := &JournalHeader{Kind: KindDetect, Words: 1, NFaults: 32, NPOs: 4, Inputs: 4, NPat: 64, ShardUnit: 8, NShards: 4}
	mk := func(res *resultMsg) []byte {
		vf := &chaos.VolatileFile{}
		jl := NewJournal(vf)
		if err := jl.WriteHeader(h); err != nil {
			t.Fatal(err)
		}
		if err := jl.Append(res); err != nil {
			t.Fatal(err)
		}
		if err := jl.Sync(); err != nil {
			t.Fatal(err)
		}
		return vf.Durable()
	}
	cases := map[string]*resultMsg{
		"shard out of range": {Shard: 99, Kind: KindDetect, Lo: 0, Hi: 8, DetBy: make([]int32, 8)},
		"range mismatch":     {Shard: 0, Kind: KindDetect, Lo: 0, Hi: 6, DetBy: make([]int32, 6)},
		"kind mismatch":      {Shard: 0, Kind: KindDictionary, Lo: 0, Hi: 8, Rows: nil},
		"bad detect index":   {Shard: 0, Kind: KindDetect, Lo: 0, Hi: 8, DetBy: []int32{-5, 0, 0, 0, 0, 0, 0, 0}},
	}
	for name, res := range cases {
		if _, err := ReadJournal(bytes.NewReader(mk(res))); !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("%s: err = %v, want ErrJournalCorrupt", name, err)
		}
	}
	// Garbage and empty streams are corrupt too, never panics.
	for _, data := range [][]byte{nil, []byte("not a journal"), bytes.Repeat([]byte{0xff}, 200)} {
		if _, err := ReadJournal(bytes.NewReader(data)); !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("garbage %d bytes: err = %v, want ErrJournalCorrupt", len(data), err)
		}
	}
}

func TestResumeMismatchTyped(t *testing.T) {
	n := circuit.Random(6, 50, 3)
	faults := fault.Universe(n)
	p := testPatterns(n, 70, 17)
	data := buildJournal(t, Config{ShardFaults: 16}, n, p, faults, 1)
	rep, err := ReadJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	resume := func(t *testing.T, cfg Config, n *circuit.Netlist, p *logic.PatternSet, faults []fault.Fault) error {
		c, _ := startCoordinator(t, cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := c.DetectOpt(ctx, n, p, faults, 1, JobOptions{Resume: rep})
		return err
	}

	t.Run("different circuit", func(t *testing.T) {
		other := circuit.Random(6, 50, 4)
		if err := resume(t, Config{ShardFaults: 16}, other, testPatterns(other, 70, 17), fault.Universe(other)); !errors.Is(err, ErrJournalMismatch) {
			t.Fatalf("err = %v, want ErrJournalMismatch", err)
		}
	})
	t.Run("different patterns", func(t *testing.T) {
		if err := resume(t, Config{ShardFaults: 16}, n, testPatterns(n, 70, 18), faults); !errors.Is(err, ErrJournalMismatch) {
			t.Fatalf("err = %v, want ErrJournalMismatch", err)
		}
	})
	t.Run("different shard geometry", func(t *testing.T) {
		if err := resume(t, Config{ShardFaults: 32}, n, p, faults); !errors.Is(err, ErrJournalMismatch) {
			t.Fatalf("err = %v, want ErrJournalMismatch", err)
		}
	})
	t.Run("matching job resumes with zero workers", func(t *testing.T) {
		// The journal holds every shard: resume completes without any
		// worker ever connecting, bit-identical to the serial engine.
		c, _ := startCoordinator(t, Config{ShardFaults: 16})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		got, err := c.DetectOpt(ctx, n, p, faults, 1, JobOptions{Resume: rep})
		if err != nil {
			t.Fatal(err)
		}
		compareDetect(t, got, serialDetect(t, n, p, faults))
	})
}

// TestJournalIOFailureFailsJob pins that a dying journal device fails the
// job with a typed error instead of silently continuing unprotected.
func TestJournalIOFailureFailsJob(t *testing.T) {
	n := circuit.RippleAdder(2)
	faults := fault.Universe(n)
	p := testPatterns(n, 70, 23)
	vf := &chaos.VolatileFile{}
	jl := NewJournal(vf)
	c, lb := startCoordinator(t, Config{ShardFaults: 8})
	startWorker(t, lb, "w")
	vf.Crash() // device dead before the job starts: header write must fail
	_, err := c.DetectOpt(testCtx(t), n, p, faults, 1, JobOptions{Journal: jl})
	if !errors.Is(err, chaos.ErrDeviceCrashed) {
		t.Fatalf("err = %v, want device-crash journal failure", err)
	}
}

// ---------------------------------------------------------------------------
// The acceptance grid: for detect and dictionary jobs across
// {crash point × workers × shards × words}, a chaos-killed run's journal
// resumes to output bit-identical to the serial engine. A dictionary shard
// is one W-block, so the dictionary's shard axis is its shard count: each
// combo runs a set of shards × W words.

func TestClusterResumeBitIdentical(t *testing.T) {
	type jobFn func(t *testing.T, c *Coordinator, ctx context.Context, shard, words int, opt JobOptions) (any, error)

	detNet := circuit.Random(8, 100, 3)
	detFaults := fault.Universe(detNet)
	detPat := testPatterns(detNet, 128, 11)
	detWant := serialDetect(t, detNet, detPat, detFaults)

	dictNet := circuit.Random(7, 60, 5)
	dictFaults := fault.Universe(dictNet)
	dictSim, err := fault.NewSimulator(dictNet)
	if err != nil {
		t.Fatal(err)
	}
	// Pattern sets and serial dictionaries by set size in words.
	dictPat := map[int]*logic.PatternSet{}
	dictWant := map[int][]*fault.Signature{}
	for _, shards := range []int{2, 8} {
		for _, words := range []int{1, 4, 8} {
			if n := shards * words; dictPat[n] == nil {
				dictPat[n] = testPatterns(dictNet, n*logic.WordBits, 13)
				dictWant[n] = dictSim.Dictionary(dictPat[n], dictFaults)
			}
		}
	}

	kinds := []struct {
		name   string
		shards []int // ShardFaults (detect) / shard count (dictionary)
		cfg    func(shard int) Config
		run    jobFn
		check  func(t *testing.T, shard, words int, got any)
	}{
		{
			name:   "detect",
			shards: []int{32, 128},
			cfg:    func(s int) Config { return Config{ShardFaults: s} },
			run: func(t *testing.T, c *Coordinator, ctx context.Context, _, words int, opt JobOptions) (any, error) {
				return c.DetectOpt(ctx, detNet, detPat, detFaults, words, opt)
			},
			check: func(t *testing.T, _, _ int, got any) { compareDetect(t, got.(*fault.Result), detWant) },
		},
		{
			name:   "dictionary",
			shards: []int{2, 8},
			cfg:    func(int) Config { return Config{} },
			run: func(t *testing.T, c *Coordinator, ctx context.Context, shard, words int, opt JobOptions) (any, error) {
				return c.DictionaryOpt(ctx, dictNet, dictPat[shard*words], dictFaults, words, opt)
			},
			check: func(t *testing.T, shard, words int, got any) {
				compareSigs(t, got.([]*fault.Signature), dictWant[shard*words])
			},
		},
	}

	for _, k := range kinds {
		for _, point := range chaos.CrashPoints {
			for _, workers := range []int{1, 2, 4} {
				for _, shard := range k.shards {
					for _, words := range []int{1, 4, 8} {
						name := fmt.Sprintf("%s/%s/w%d/s%d/W%d", k.name, point, workers, shard, words)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							vf := &chaos.VolatileFile{}
							plan := &chaos.CrashPlan{Point: point, After: 2}

							cfg1 := k.cfg(shard)
							cfg1.CrashHook = plan.Hook()
							c1, lb1 := startCoordinator(t, cfg1)
							for i := 0; i < workers; i++ {
								startWorker(t, lb1, fmt.Sprintf("w%d", i))
							}
							got, err := k.run(t, c1, testCtx(t), shard, words, JobOptions{Journal: NewJournal(vf)})
							if !plan.Fired() {
								// Too few shards for the plan to trigger: the
								// run completed; the combo degrades to plain
								// journaled bit-identity.
								if err != nil {
									t.Fatal(err)
								}
								k.check(t, shard, words, got)
								return
							}
							if !errors.Is(err, ErrCrashed) {
								t.Fatalf("crashed run err = %v, want ErrCrashed", err)
							}

							// "Reboot": recover the durable bytes, replay,
							// truncate any torn tail, resume on a fresh
							// coordinator appending to the same journal.
							data := vf.Crash()
							rep, err := ReadJournal(bytes.NewReader(data))
							if err != nil {
								t.Fatalf("replay: %v", err)
							}
							vf.Truncate(int(rep.Valid))
							vf.Reopen()
							c2, lb2 := startCoordinator(t, k.cfg(shard))
							for i := 0; i < workers; i++ {
								startWorker(t, lb2, fmt.Sprintf("r%d", i))
							}
							got, err = k.run(t, c2, testCtx(t), shard, words, JobOptions{Journal: NewJournal(vf), Resume: rep})
							if err != nil {
								t.Fatalf("resume: %v", err)
							}
							k.check(t, shard, words, got)

							// The resumed journal must itself replay to a
							// complete, clean record set — crash-safety is
							// transitive across any number of crashes.
							final, err := ReadJournal(bytes.NewReader(vf.Durable()))
							if err != nil || final.Torn {
								t.Fatalf("final journal: %v torn=%v", err, final.Torn)
							}
							if final.Shards() < int(final.Header.NShards) {
								t.Fatalf("final journal has %d records for %d shards", final.Shards(), final.Header.NShards)
							}
						})
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// FuzzJournal: arbitrary bytes must replay to recover-or-typed-error —
// never a panic, never a record that validateResult would reject.

func FuzzJournal(f *testing.F) {
	n := circuit.RippleAdder(2)
	faults := fault.Universe(n)
	p := logic.NewPatternSet(len(n.PIs), 70)
	seed := uint64(0x1234)
	p.RandFill(func() uint64 { seed = seed*6364136223846793005 + 1; return seed })

	// Seed corpus: a real journal, truncations, a bit flip, garbage.
	vf := &chaos.VolatileFile{}
	jl := NewJournal(vf)
	h := &JournalHeader{Kind: KindDetect, Words: 1, NFaults: uint32(len(faults)), NPOs: uint32(len(n.POs)),
		Inputs: uint32(p.Inputs), NPat: uint32(p.N), ShardUnit: 8, NShards: uint32((len(faults) + 7) / 8)}
	if err := jl.WriteHeader(h); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < int(h.NShards); i++ {
		spec := h.spec(i)
		res := &resultMsg{JobID: 1, Shard: uint32(i), Kind: KindDetect, Lo: spec.lo, Hi: spec.hi, DetBy: make([]int32, spec.hi-spec.lo)}
		for j := range res.DetBy {
			res.DetBy[j] = int32(j%3) - 1
		}
		if err := jl.Append(res); err != nil {
			f.Fatal(err)
		}
	}
	if err := jl.Sync(); err != nil {
		f.Fatal(err)
	}
	valid := vf.Durable()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add([]byte("ITRC garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("untyped journal error: %v", err)
			}
			return
		}
		if rep.Valid > int64(len(data)) {
			t.Fatalf("Valid %d > input %d", rep.Valid, len(data))
		}
		// Every recovered record must survive the same validation the live
		// deliver path applies — a record that would corrupt a merge must
		// never be returned.
		for _, res := range rep.results {
			idx := int(res.Shard)
			if idx >= int(rep.Header.NShards) {
				t.Fatalf("record for shard %d of %d escaped validation", idx, rep.Header.NShards)
			}
			if verr := validateResult(rep.Header.Kind, rep.Header.spec(idx), res, int(rep.Header.NFaults), int(rep.Header.NPOs)); verr != nil {
				t.Fatalf("invalid record escaped replay: %v", verr)
			}
		}
		// The valid prefix must replay cleanly and identically.
		again, err := ReadJournal(bytes.NewReader(data[:rep.Valid]))
		if err != nil || again.Torn || again.Shards() != rep.Shards() {
			t.Fatalf("valid-prefix replay: err=%v torn=%v shards %d != %d", err, again != nil && again.Torn, again.Shards(), rep.Shards())
		}
	})
}
