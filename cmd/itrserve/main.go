// Command itrserve is the online test-floor inference daemon: it loads
// trained itr-model/v3 artifacts into a hot-swappable model registry and
// serves them over HTTP with micro-batching, expvar/pprof observability,
// structured logging, load shedding, and graceful shutdown.
//
// Endpoints:
//
//	POST /v1/wafer/classify   {"cells": [[0,1,2,...],...]}      HDC wafer-map class
//	POST /v1/outlier/score    {"x": [..12 floats..]}            outlier score + reject verdict
//	POST /v1/adaptive/decide  {"x": [..12 floats..]}            continue / retest / stop
//	GET  /v1/models                                             installed model versions
//	GET  /v1/artifacts                                          artifact store manifest (replication)
//	GET  /v1/artifacts/{hash}                                   one raw itr-model/v3 artifact file
//	GET  /healthz, /readyz                                      liveness / readiness
//	GET  /debug/vars, /debug/pprof/                             metrics, profiling
//
// Usage:
//
//	itrserve -demo                        # train small built-in models, serve on :8080
//	itrserve -models DIR                  # load *.itm artifacts from DIR
//	itrserve -probe http://host:8080      # client mode: exercise a running server
//	itrserve -replicate-from http://host:8080 -models D  # pull missing artifacts before serving
//	itrserve -replicate-from http://host:8080 -replicate-only  # sync and exit (cron/CI)
//
// Every server publishes its artifact store under /v1/artifacts, so any
// node can be a replication primary. Replication is content-addressed:
// every artifact is verified against its embedded SHA-256 content hash
// before install, so a corrupted link or store yields a typed refusal,
// never a wrong model.
//
// SIGTERM/SIGINT drain in-flight requests before exiting; SIGHUP re-scans
// the -models directory (hot swap without restart).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/wafer"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		modelDir    = flag.String("models", "", "directory of itr-model/v3 artifact files (*.itm)")
		demo        = flag.Bool("demo", false, "train small built-in demo models at startup")
		probe       = flag.String("probe", "", "client mode: exercise a running itrserve at this base URL and exit")
		maxBatch    = flag.Int("batch", 32, "max requests coalesced per inference batch")
		window      = flag.Duration("window", time.Millisecond, "micro-batch flush window")
		queueCap    = flag.Int("queue", 0, "inference queue capacity (0 = 8x batch)")
		maxInflight = flag.Int("maxinflight", 1024, "max concurrently admitted requests before shedding 429")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request timeout")
		workers     = flag.Int("workers", 0, "intra-batch inference workers (0 = GOMAXPROCS)")
		dim         = flag.Int("dim", 2048, "demo model hypervector dimension")
		size        = flag.Int("size", 32, "demo model wafer grid size")
		seed        = flag.Int64("seed", 1, "demo model training seed")
		quiet       = flag.Bool("quiet", false, "disable per-request logging")

		repFrom = flag.String("replicate-from", "", "pull missing artifacts from the itrserve at this base URL before serving")
		repOnly = flag.Bool("replicate-only", false, "with -replicate-from: sync, print the report and exit")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *probe != "" {
		if err := runProbe(*probe, *size); err != nil {
			fmt.Fprintln(os.Stderr, "itrserve: probe:", err)
			os.Exit(1)
		}
		fmt.Println("probe ok")
		return
	}

	reg := serve.NewRegistry()
	demoCfg := serve.DemoConfig{Dim: *dim, GridSize: *size, Seed: *seed}
	if *demo {
		logger.Info("training demo models", "dim", *dim, "size", *size, "seed", *seed)
		if err := serve.InstallDemoModels(reg, demoCfg); err != nil {
			fatal(logger, err)
		}
	}
	if *modelDir != "" {
		sum, err := reg.LoadDir(*modelDir)
		if err != nil {
			fatal(logger, err)
		}
		for _, s := range sum.Skipped {
			logger.Warn("skipped model artifact", "dir", *modelDir, "reason", s)
		}
		logger.Info("loaded model artifacts", "dir", *modelDir,
			"count", sum.Installed, "skipped", len(sum.Skipped))
	}
	if *repFrom != "" {
		rep, err := serve.ReplicateFrom(*repFrom, reg, *modelDir, 30*time.Second)
		if err != nil {
			fatal(logger, fmt.Errorf("replicate from %s: %w", *repFrom, err))
		}
		for _, s := range rep.Skipped {
			logger.Warn("replication skipped artifact", "reason", s)
		}
		for _, m := range rep.Pulled {
			logger.Info("replicated artifact", "kind", m.Kind, "name", m.Name,
				"version", m.Version, "hash", m.Hash[:12])
		}
		logger.Info("replication synced", "peer", *repFrom, "pulled", len(rep.Pulled),
			"already_present", rep.AlreadyHad, "remote_manifest", len(rep.Remote))
		if *repOnly {
			fmt.Printf("replicated %d artifacts from %s (%d already present)\n",
				len(rep.Pulled), *repFrom, rep.AlreadyHad)
			return
		}
	}
	for _, m := range reg.Models() {
		logger.Info("model installed", "kind", m.Kind, "name", m.Name,
			"version", m.Version, "hash", m.Hash[:12])
	}
	if !reg.Ready() {
		logger.Warn("registry incomplete: /readyz will report 503 until every slot has a model " +
			"(start with -demo or -models DIR)")
	}

	reqLogger := logger
	if *quiet {
		reqLogger = nil
	}
	srv := serve.New(serve.Config{
		Registry:       reg,
		MaxBatch:       *maxBatch,
		FlushWindow:    *window,
		QueueCap:       *queueCap,
		MaxInFlight:    *maxInflight,
		RequestTimeout: *timeout,
		Workers:        *workers,
		Logger:         reqLogger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Lifecycle: SIGINT/SIGTERM drain and exit, SIGHUP rescans -models.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()
	for {
		select {
		case err := <-errCh:
			if err != nil && err != http.ErrServerClosed {
				fatal(logger, err)
			}
			return
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				if *modelDir == "" {
					logger.Warn("SIGHUP ignored: no -models directory to rescan")
					continue
				}
				sum, err := reg.LoadDir(*modelDir)
				if err != nil {
					logger.Error("model reload failed", "err", err)
					continue
				}
				for _, s := range sum.Skipped {
					logger.Warn("skipped model artifact", "dir", *modelDir, "reason", s)
				}
				logger.Info("models reloaded", "dir", *modelDir,
					"count", sum.Installed, "skipped", len(sum.Skipped))
				continue
			}
			logger.Info("shutting down: draining in-flight requests", "signal", sig.String())
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			err := httpSrv.Shutdown(ctx)
			cancel()
			srv.Close()
			if err != nil {
				fatal(logger, fmt.Errorf("shutdown: %w", err))
			}
			logger.Info("drained, bye")
			return
		}
	}
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}

// runProbe exercises a running server end to end: health, readiness, one
// request per inference endpoint, the model listing, and /debug/vars. It is
// the CI smoke client.
func runProbe(base string, gridSize int) error {
	client := &http.Client{Timeout: 10 * time.Second}

	get := func(path string, want int) ([]byte, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return nil, fmt.Errorf("GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			return nil, fmt.Errorf("GET %s: status %d, want %d (%s)", path, resp.StatusCode, want, body)
		}
		return body, nil
	}
	post := func(path string, req, out any) error {
		buf, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return fmt.Errorf("POST %s: %w", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: status %d (%s)", path, resp.StatusCode, body)
		}
		return json.Unmarshal(body, out)
	}

	if body, err := get("/healthz", http.StatusOK); err != nil {
		return err
	} else if !bytes.Contains(body, []byte("ok")) {
		return fmt.Errorf("/healthz body %q missing ok", body)
	}
	if _, err := get("/readyz", http.StatusOK); err != nil {
		return err
	}

	// Wafer classification: a generated Scratch map must come back with a
	// valid class and model version.
	m := wafer.Generate(wafer.Scratch, wafer.Config{Size: gridSize, Noise: 0.01, PatternP: 0.85},
		rand.New(rand.NewSource(7)))
	cells := make([][]uint8, m.Size)
	for r := range cells {
		cells[r] = m.Cells[r*m.Size : (r+1)*m.Size]
	}
	var cls serve.WaferClassifyResponse
	if err := post("/v1/wafer/classify", serve.WaferClassifyRequest{Cells: cells}, &cls); err != nil {
		return err
	}
	if cls.ModelVersion < 1 || cls.Class == "" {
		return fmt.Errorf("classify response %+v lacks model version/class", cls)
	}
	fmt.Printf("classify: %s (v%d)\n", cls.Class, cls.ModelVersion)

	// Outlier scoring + adaptive decision on a nominal all-zero device.
	x := make([]float64, 12)
	var score serve.OutlierScoreResponse
	if err := post("/v1/outlier/score", serve.OutlierScoreRequest{X: x}, &score); err != nil {
		return err
	}
	fmt.Printf("score: %.3f reject=%v (%s v%d)\n", score.Score, score.Reject, score.Method, score.ModelVersion)
	var dec serve.AdaptiveDecideResponse
	if err := post("/v1/adaptive/decide", serve.OutlierScoreRequest{X: x}, &dec); err != nil {
		return err
	}
	fmt.Printf("decide: %s (score %.3f)\n", dec.Decision, dec.Score)

	var models serve.ModelsResponse
	if err := getJSON(client, base+"/v1/models", &models); err != nil {
		return err
	}
	if len(models.Models) == 0 {
		return fmt.Errorf("/v1/models returned no models")
	}

	// Observability: /debug/vars must expose the per-endpoint counters.
	body, err := get("/debug/vars", http.StatusOK)
	if err != nil {
		return err
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		return fmt.Errorf("/debug/vars is not JSON: %w", err)
	}
	if _, ok := vars["itrserve"]; !ok {
		return fmt.Errorf("/debug/vars missing itrserve metrics")
	}
	return nil
}

// getJSON fetches and decodes a JSON endpoint.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
