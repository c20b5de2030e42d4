// Command itrcluster runs distributed PPSFP fault simulation and fault-
// dictionary construction: a coordinator partitions the job into shards and
// any number of workers — in-process, local processes, or remote machines —
// execute them. The merged result is bit-identical to the single-process
// serial engine for any worker count, shard size or failure schedule
// (workers may be killed and restarted mid-run; shards re-dispatch).
//
// Usage:
//
//	# everything in one process: coordinator plus 2 loopback workers
//	itrcluster coordinator -workers 2 -gen rand32.2000.1 -job dictionary -verify
//
//	# distributed: coordinator on a TCP port, workers join from anywhere
//	itrcluster coordinator -listen :9123 -gen mul8 -job detect -verify
//	itrcluster worker -connect host:9123 -id w1
//	itrcluster worker -connect host:9123 -id w2
package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/circuit"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/logic"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "coordinator":
		runCoordinator(os.Args[2:])
	case "worker":
		runWorker(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  itrcluster coordinator [-listen addr] [-workers N] (-gen spec | -bench file) [options]
  itrcluster worker -connect addr [-id name]

run "itrcluster coordinator -h" or "itrcluster worker -h" for options
`)
	os.Exit(2)
}

func runCoordinator(args []string) {
	fs := flag.NewFlagSet("itrcluster coordinator", flag.ExitOnError)
	var (
		listen      = fs.String("listen", "", "TCP address to accept remote workers on (empty: loopback workers only)")
		nWorkers    = fs.Int("workers", 0, "in-process loopback workers to start (0 with -listen: remote workers only)")
		gen         = fs.String("gen", "", "built-in circuit spec: c17, adderN, mulN, aluN, cmpN, parityN, decN, gparityU.C.E, randI.G.S")
		benchPath   = fs.String("bench", "", "path to a .bench netlist")
		job         = fs.String("job", "detect", "job kind: detect or dictionary")
		patterns    = fs.Int("patterns", 256, "random patterns to simulate")
		seed        = fs.Int64("seed", 1, "random seed for the pattern set")
		words       = fs.Int("words", 8, "fault-simulation lane width on the workers, one of 1/2/4/8")
		shardFaults = fs.Int("shard-faults", 256, "faults per shard (detect jobs)")
		deadline    = fs.Duration("deadline", 10*time.Second, "per-shard straggler deadline before re-dispatch")
		timeout     = fs.Duration("timeout", 0, "overall job timeout (0: none)")
		verify      = fs.Bool("verify", false, "rerun the job on the local serial engine and require bit-identity")
		quiet       = fs.Bool("quiet", false, "suppress progress logging")
		journalPath = fs.String("journal", "", "write-ahead journal file: checkpoint every verified shard so the job can resume after a coordinator crash")
		resume      = fs.Bool("resume", false, "resume from -journal instead of starting fresh (the journal must match the job exactly)")
		chaosKill   = fs.String("chaos-kill", "", fmt.Sprintf("deterministic chaos: exit(3) at the Nth hit of a named crash point, \"point:N\" (points: %s)", strings.Join(chaos.CrashPoints, ", ")))
	)
	fs.Parse(args)
	if (fault.Options{Words: *words}).Lanes() != *words {
		fmt.Fprintf(os.Stderr, "itrcluster: invalid -words %d: must be 1, 2, 4 or 8\n", *words)
		os.Exit(2)
	}
	if *nWorkers <= 0 && *listen == "" {
		fatal(fmt.Errorf("no workers: need -workers N and/or -listen addr"))
	}

	n, err := circuit.Load(*benchPath, *gen)
	if err != nil {
		fatal(err)
	}
	fmt.Println(n.Stats())
	faults := fault.Universe(n)
	rng := rand.New(rand.NewSource(*seed))
	p := logic.NewPatternSet(len(n.PIs), *patterns)
	p.RandFill(rng.Uint64)

	logf := func(string, ...any) {}
	if !*quiet {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	cfg := cluster.Config{
		ShardFaults: *shardFaults,
		Deadline:    *deadline,
		Logf:        logf,
	}
	if *chaosKill != "" {
		cfg.CrashHook = chaosKillHook(*chaosKill)
	}
	opt, cleanup, err := openJournal(*journalPath, *resume)
	if err != nil {
		fatal(err)
	}
	defer cleanup()
	if opt.Resume != nil {
		fmt.Printf("journal: resuming %d/%d shards (torn tail: %v)\n",
			opt.Resume.Shards(), opt.Resume.Header.NShards, opt.Resume.Torn)
	}
	coord := cluster.New(cfg)
	defer coord.Close()

	lb := cluster.NewLoopback()
	go coord.Serve(lb)
	for i := 0; i < *nWorkers; i++ {
		w := &cluster.Worker{ID: fmt.Sprintf("local-%d", i), Dial: lb.Dial}
		go w.Run(context.Background())
	}
	if *listen != "" {
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "itrcluster: listening on %s\n", l.Addr())
		go coord.Serve(l)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	switch *job {
	case "detect":
		res, err := coord.DetectOpt(ctx, n, p, faults, *words, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("detect: %d/%d faults (coverage %.2f%%) in %v\n",
			res.Detected, res.Total, res.Coverage*100, time.Since(start).Round(time.Millisecond))
		fmt.Printf("result hash: %x\n", detectHash(res))
		if *verify {
			sim, err := fault.NewSimulator(n)
			if err != nil {
				fatal(err)
			}
			want := sim.RunSerial(p, faults)
			for i := range faults {
				if res.DetectedBy[i] != want.DetectedBy[i] {
					fmt.Fprintf(os.Stderr, "itrcluster: VERIFY FAILED: fault %d DetectedBy %d != serial %d\n",
						i, res.DetectedBy[i], want.DetectedBy[i])
					os.Exit(1)
				}
			}
			fmt.Println("verify: OK (bit-identical to serial)")
		}
	case "dictionary":
		sigs, err := coord.DictionaryOpt(ctx, n, p, faults, *words, opt)
		if err != nil {
			fatal(err)
		}
		failBits := 0
		for _, sg := range sigs {
			failBits += sg.FailBits()
		}
		fmt.Printf("dictionary: %d faults x %d POs x %d patterns, %d fail bits in %v\n",
			len(sigs), len(n.POs), p.N, failBits, time.Since(start).Round(time.Millisecond))
		fmt.Printf("result hash: %x\n", dictHash(sigs))
		if *verify {
			sim, err := fault.NewSimulator(n)
			if err != nil {
				fatal(err)
			}
			want := sim.Dictionary(p, faults)
			for fi := range want {
				for po := range want[fi].Bits {
					for w := range want[fi].Bits[po] {
						if sigs[fi].Bits[po][w] != want[fi].Bits[po][w] {
							fmt.Fprintf(os.Stderr, "itrcluster: VERIFY FAILED: signature (fault %d, po %d, word %d)\n", fi, po, w)
							os.Exit(1)
						}
					}
				}
			}
			fmt.Println("verify: OK (bit-identical to serial)")
		}
	default:
		fmt.Fprintf(os.Stderr, "itrcluster: unknown -job %q: must be detect or dictionary\n", *job)
		os.Exit(2)
	}
	st := coord.Stats()
	fmt.Printf("workers joined %d lost %d; shards dispatched %d redispatched %d duplicate %d; netlists sent %d\n",
		st.WorkersJoined, st.WorkersLost, st.ShardsDispatched, st.Redispatches, st.Duplicates, st.NetlistsSent)
}

func runWorker(args []string) {
	fs := flag.NewFlagSet("itrcluster worker", flag.ExitOnError)
	var (
		connect = fs.String("connect", "", "coordinator TCP address")
		id      = fs.String("id", "", "worker name in coordinator logs (default host:pid)")
		quiet   = fs.Bool("quiet", false, "suppress progress logging")
	)
	fs.Parse(args)
	if *connect == "" {
		fatal(fmt.Errorf("worker: need -connect addr"))
	}
	name := *id
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	logf := func(string, ...any) {}
	if !*quiet {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	w := &cluster.Worker{
		ID:   name,
		Dial: func() (net.Conn, error) { return net.Dial("tcp", *connect) },
		Logf: logf,
	}
	// Run reconnects forever; the worker is stopped by its process being
	// killed (which the coordinator tolerates by design).
	if err := w.Run(context.Background()); err != nil {
		fatal(err)
	}
}

// chaosKillHook parses "point:N" (N defaults to 1) and returns a crash hook
// that exits the process with status 3 at the Nth hit of the named point —
// a real crash, so any journal bytes not yet fsynced are genuinely lost.
func chaosKillHook(spec string) func(string) bool {
	point, after := spec, 1
	if i := strings.LastIndex(spec, ":"); i >= 0 {
		n, err := strconv.Atoi(spec[i+1:])
		if err != nil || n < 1 {
			fatal(fmt.Errorf("invalid -chaos-kill %q: count must be a positive integer", spec))
		}
		point, after = spec[:i], n
	}
	if !chaos.ValidCrashPoint(point) {
		fatal(fmt.Errorf("invalid -chaos-kill point %q: one of %s", point, strings.Join(chaos.CrashPoints, ", ")))
	}
	plan := &chaos.CrashPlan{Point: point, After: after}
	return func(p string) bool {
		if plan.Hook()(p) {
			fmt.Fprintf(os.Stderr, "itrcluster: chaos: crashing at %s (hit %d)\n", point, after)
			os.Exit(3)
		}
		return false
	}
}

// openJournal opens or resumes the write-ahead journal. A fresh run truncates
// the file; -resume replays it, discards any torn tail (truncating the file
// back to the last intact record so appended records extend a clean prefix),
// and positions the write cursor at the end of the valid prefix.
func openJournal(path string, resume bool) (cluster.JobOptions, func(), error) {
	var opt cluster.JobOptions
	if path == "" {
		if resume {
			return opt, nil, fmt.Errorf("-resume requires -journal <path>")
		}
		return opt, func() {}, nil
	}
	if !resume {
		f, err := os.Create(path)
		if err != nil {
			return opt, nil, err
		}
		opt.Journal = cluster.NewJournal(f)
		return opt, func() { f.Close() }, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return opt, nil, err
	}
	rep, err := cluster.ReadJournal(f)
	if err != nil {
		f.Close()
		if errors.Is(err, cluster.ErrJournalCorrupt) {
			return opt, nil, fmt.Errorf("journal %s unusable: %w", path, err)
		}
		return opt, nil, err
	}
	if rep.Torn {
		fmt.Fprintf(os.Stderr, "itrcluster: journal %s has a torn tail; discarding bytes past offset %d\n", path, rep.Valid)
	}
	if err := f.Truncate(rep.Valid); err != nil {
		f.Close()
		return opt, nil, err
	}
	if _, err := f.Seek(rep.Valid, io.SeekStart); err != nil {
		f.Close()
		return opt, nil, err
	}
	opt.Resume = rep
	opt.Journal = cluster.NewJournal(f)
	return opt, func() { f.Close() }, nil
}

// detectHash digests the full DetectedBy vector — equal hashes across runs
// and worker topologies are the quick cross-machine bit-identity check.
func detectHash(res *fault.Result) []byte {
	h := sha256.New()
	var b [8]byte
	for _, v := range res.DetectedBy {
		binary.BigEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
	return h.Sum(nil)[:8]
}

// dictHash digests every signature word in (fault, po, word) order.
func dictHash(sigs []*fault.Signature) []byte {
	h := sha256.New()
	var b [8]byte
	for _, sg := range sigs {
		for _, ws := range sg.Bits {
			for _, w := range ws {
				binary.BigEndian.PutUint64(b[:], uint64(w))
				h.Write(b[:])
			}
		}
	}
	return h.Sum(nil)[:8]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "itrcluster:", err)
	os.Exit(1)
}
