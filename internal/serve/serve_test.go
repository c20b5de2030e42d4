package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/outlier"
	"repro/internal/wafer"
)

// Panics reports the number of recovered panics so far.
func (m *Metrics) Panics() int64 { return m.panics.Load() }

// testCfg keeps fixture training fast: the serving contract under test does
// not depend on model quality.
var testCfg = DemoConfig{Dim: 512, GridSize: 16, TrainN: 3, Devices: 200, Seed: 1, OverkillBudget: 0.05}

// fixtures trains the shared artifacts exactly once per test binary: two
// wafer-model versions (for hot-swap tests) and one outlier screen.
var fixtures = sync.OnceValues(func() (arts [3]*Artifact, err error) {
	if arts[0], err = TrainWaferArtifact(testCfg, 1); err != nil {
		return arts, err
	}
	if arts[1], err = TrainWaferArtifact(testCfg, 2); err != nil {
		return arts, err
	}
	arts[2], err = TrainOutlierArtifact(testCfg, 1)
	return arts, err
})

func testArtifacts(t testing.TB) (waferV1, waferV2, outlierV1 *Artifact) {
	t.Helper()
	arts, err := fixtures()
	if err != nil {
		t.Fatal(err)
	}
	return arts[0], arts[1], arts[2]
}

// newTestServer builds a Server over a fresh registry with the fixture
// models installed (unless cfg brings its own registry).
func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Registry == nil {
		w1, _, o1 := testArtifacts(t)
		reg := NewRegistry()
		if _, err := reg.Install(w1); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Install(o1); err != nil {
			t.Fatal(err)
		}
		cfg.Registry = reg
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func cellsOf(m *wafer.Map) [][]uint8 {
	cells := make([][]uint8, m.Size)
	for r := 0; r < m.Size; r++ {
		cells[r] = make([]uint8, m.Size)
		for c := 0; c < m.Size; c++ {
			cells[r][c] = m.At(r, c)
		}
	}
	return cells
}

// doJSON drives the server's handler directly (no TCP) and returns the
// recorded response.
func doJSON(t testing.TB, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

func decodeAs[T any](t testing.TB, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return v
}

// TestServeWaferClassifyBitIdentical is the core acceptance check: the HTTP
// path must agree bit-for-bit with a direct library call on the same model.
func TestServeWaferClassifyBitIdentical(t *testing.T) {
	s := newTestServer(t, Config{})
	wcfg := wafer.DefaultConfig()
	wcfg.Size = testCfg.GridSize
	test := wafer.GenerateDataset(2, wcfg, 7)
	cls := s.reg.Wafer().Cls
	for i, m := range test.Maps {
		rec := doJSON(t, s.Handler(), "POST", epWaferClassify, WaferClassifyRequest{Cells: cellsOf(m)})
		if rec.Code != http.StatusOK {
			t.Fatalf("map %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		got := decodeAs[WaferClassifyResponse](t, rec)
		want := cls.Predict(m)
		if got.ClassID != want || got.Class != wafer.Class(want).String() {
			t.Errorf("map %d: HTTP = %d/%s, direct Predict = %d", i, got.ClassID, got.Class, want)
		}
		if got.ModelVersion != 1 {
			t.Errorf("map %d: model version %d, want 1", i, got.ModelVersion)
		}
	}
}

// TestServeOutlierScoreBitIdentical pins float64 bit-identity of the scoring
// path across JSON (Go's shortest-round-trip encoding makes this exact) and
// the consistency of the adaptive decision with the returned thresholds.
func TestServeOutlierScoreBitIdentical(t *testing.T) {
	s := newTestServer(t, Config{})
	model := s.reg.Outlier()
	lcfg := outlier.DefaultLotConfig()
	lcfg.Devices = 30
	lot := outlier.Synthesize(lcfg, 9)
	for i, x := range lot.X {
		rec := doJSON(t, s.Handler(), "POST", epOutlierScore, OutlierScoreRequest{X: x})
		if rec.Code != http.StatusOK {
			t.Fatalf("x %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		got := decodeAs[OutlierScoreResponse](t, rec)
		want := model.Scorer.Score(x)
		if math.Float64bits(got.Score) != math.Float64bits(want) {
			t.Errorf("x %d: HTTP score %v, direct Score %v (must be bit-identical)", i, got.Score, want)
		}
		if got.Reject != (want > model.RejectThreshold) || got.Method != model.Method {
			t.Errorf("x %d: reject=%v method=%q inconsistent with model", i, got.Reject, got.Method)
		}

		dec := decodeAs[AdaptiveDecideResponse](t, doJSON(t, s.Handler(), "POST", epAdaptiveDecide, OutlierScoreRequest{X: x}))
		wantDec := DecisionContinue
		switch {
		case dec.Score > dec.RejectThreshold:
			wantDec = DecisionStop
		case dec.Score > dec.RetestThreshold:
			wantDec = DecisionRetest
		}
		if dec.Decision != wantDec || math.Float64bits(dec.Score) != math.Float64bits(want) {
			t.Errorf("x %d: decision %q (score %v), want %q", i, dec.Decision, dec.Score, wantDec)
		}
	}
}

// TestServeEndToEndTCP runs one full round over a real listener: the wire
// path (chunking, headers, server goroutines) must not change any answer.
func TestServeEndToEndTCP(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + epHealthz)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	wcfg := wafer.DefaultConfig()
	wcfg.Size = testCfg.GridSize
	m := test1Map(wcfg)
	data, _ := json.Marshal(WaferClassifyRequest{Cells: cellsOf(m)})
	resp, err = http.Post(ts.URL+epWaferClassify, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var got WaferClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if want := s.reg.Wafer().Cls.Predict(m); got.ClassID != want {
		t.Errorf("TCP classify = %d, direct = %d", got.ClassID, want)
	}
}

func test1Map(cfg wafer.Config) *wafer.Map {
	return wafer.GenerateDataset(1, cfg, 11).Maps[0]
}

func TestServeValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	for name, tc := range map[string]struct {
		method, path, body string
		want               int
	}{
		"bad json":        {"POST", epWaferClassify, `{`, http.StatusBadRequest},
		"unknown field":   {"POST", epWaferClassify, `{"grid":[[1]]}`, http.StatusBadRequest},
		"trailing data":   {"POST", epWaferClassify, `{"cells":[[1]]}{}`, http.StatusBadRequest},
		"empty grid":      {"POST", epWaferClassify, `{"cells":[]}`, http.StatusBadRequest},
		"ragged grid":     {"POST", epWaferClassify, `{"cells":[[1,1],[1]]}`, http.StatusBadRequest},
		"bad cell value":  {"POST", epWaferClassify, `{"cells":[[1,7],[1,1]]}`, http.StatusBadRequest},
		"wrong grid size": {"POST", epWaferClassify, `{"cells":[[1,1],[1,1]]}`, http.StatusBadRequest},
		"empty x":         {"POST", epOutlierScore, `{"x":[]}`, http.StatusBadRequest},
		"wrong x length":  {"POST", epOutlierScore, `{"x":[1,2,3]}`, http.StatusBadRequest},
		"wrong method":    {"GET", epWaferClassify, ``, http.StatusMethodNotAllowed},
		"unknown path":    {"POST", "/v1/nope", `{}`, http.StatusNotFound},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", name, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// TestServeNoModel: an empty registry answers 503 on inference and readyz,
// but stays healthy at the process level.
func TestServeNoModel(t *testing.T) {
	s := newTestServer(t, Config{Registry: NewRegistry()})
	h := s.Handler()
	if rec := doJSON(t, h, "POST", epWaferClassify, WaferClassifyRequest{Cells: [][]uint8{{1}}}); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("classify without model: %d, want 503", rec.Code)
	}
	if rec := doJSON(t, h, "POST", epOutlierScore, OutlierScoreRequest{X: []float64{1}}); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("score without model: %d, want 503", rec.Code)
	}
	if rec := doJSON(t, h, "GET", epReadyz, nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz without models: %d, want 503", rec.Code)
	}
	if rec := doJSON(t, h, "GET", epHealthz, nil); rec.Code != http.StatusOK {
		t.Errorf("healthz: %d, want 200", rec.Code)
	}
}

func TestServeReadyAndModels(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec := doJSON(t, s.Handler(), "GET", epReadyz, nil); rec.Code != http.StatusOK {
		t.Errorf("readyz with both models: %d, want 200", rec.Code)
	}
	got := decodeAs[ModelsResponse](t, doJSON(t, s.Handler(), "GET", epModels, nil))
	if len(got.Models) != 2 || got.Models[0].Kind != KindOutlierScreen || got.Models[1].Kind != KindWaferHDC {
		t.Errorf("models = %+v, want outlier-screen then wafer-hdc", got.Models)
	}
}

// endpointVars digs one endpoint's stats out of the /debug/vars dump. With
// several live Metrics (servers of other tests) the itrserve var nests per
// server, so search one level deep too.
func endpointVars(t *testing.T, vars map[string]any, ep string) map[string]any {
	t.Helper()
	itr, ok := vars["itrserve"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/vars has no itrserve object: %v", vars["itrserve"])
	}
	if s, ok := itr[ep].(map[string]any); ok {
		return s
	}
	for _, v := range itr {
		if m, ok := v.(map[string]any); ok {
			if s, ok := m[ep].(map[string]any); ok {
				return s
			}
		}
	}
	t.Fatalf("no stats for %s in itrserve vars", ep)
	return nil
}

// TestServeMetricsExposed drives traffic (including one error) and checks
// the per-endpoint counters and latency histogram on /debug/vars.
func TestServeMetricsExposed(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	wcfg := wafer.DefaultConfig()
	wcfg.Size = testCfg.GridSize
	m := test1Map(wcfg)
	const good = 5
	for i := 0; i < good; i++ {
		if rec := doJSON(t, h, "POST", epWaferClassify, WaferClassifyRequest{Cells: cellsOf(m)}); rec.Code != http.StatusOK {
			t.Fatalf("classify %d: %d", i, rec.Code)
		}
	}
	doJSON(t, h, "POST", epWaferClassify, WaferClassifyRequest{Cells: [][]uint8{{1}}}) // 400

	rec := doJSON(t, h, "GET", "/debug/vars", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/vars: %d", rec.Code)
	}
	var vars map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("vars not JSON: %v", err)
	}
	ep := endpointVars(t, vars, epWaferClassify)
	if req := ep["requests"].(float64); req < good+1 {
		t.Errorf("requests = %v, want >= %d", req, good+1)
	}
	if errs := ep["errors"].(float64); errs < 1 {
		t.Errorf("errors = %v, want >= 1", errs)
	}
	lat, ok := ep["latency"].(map[string]any)
	if !ok {
		t.Fatal("no latency object")
	}
	if cnt := lat["count"].(float64); cnt < good+1 {
		t.Errorf("latency count = %v, want >= %d", cnt, good+1)
	}
	if buckets, ok := lat["log2us_buckets"].([]any); !ok || len(buckets) != latBuckets {
		t.Errorf("log2us_buckets missing or wrong length")
	}
	for _, q := range []string{"p50_us", "p90_us", "p99_us"} {
		if v, ok := lat[q].(float64); !ok || v <= 0 {
			t.Errorf("%s = %v, want > 0", q, lat[q])
		}
	}
}

func TestRegistryHotSwapAndDowngrade(t *testing.T) {
	w1, w2, _ := testArtifacts(t)
	reg := NewRegistry()
	if _, err := reg.Install(w1); err != nil {
		t.Fatal(err)
	}
	prev, err := reg.Install(w2)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Version != 1 || reg.Wafer().Meta.Version != 2 {
		t.Fatalf("upgrade: prev v%d live v%d, want v1 -> v2", prev.Version, reg.Wafer().Meta.Version)
	}
	if _, err := reg.Install(w1); err == nil {
		t.Error("downgrade v2 -> v1 must be rejected")
	}
	if reg.Wafer().Meta.Version != 2 {
		t.Errorf("rejected downgrade changed the live model to v%d", reg.Wafer().Meta.Version)
	}
}

func TestRegistryLoadDir(t *testing.T) {
	w1, w2, o1 := testArtifacts(t)
	dir := t.TempDir()
	// Deliberately misleading file names: only versions inside count.
	for name, a := range map[string]*Artifact{"z-old.itm": w1, "a-new.itm": w2, "screen.itm": o1} {
		if err := a.WriteFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewRegistry()
	sum, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Installed != 2 || len(sum.Skipped) != 0 {
		t.Errorf("summary %+v, want 2 installed (newest version per kind), 0 skipped", sum)
	}
	if v := reg.Wafer().Meta.Version; v != 2 {
		t.Errorf("live wafer model v%d, want highest version 2", v)
	}
	if reg.Outlier() == nil || !reg.Ready() {
		t.Error("outlier screen not installed / registry not ready")
	}
	// A rescan over the unchanged directory (the SIGHUP path) must be an
	// idempotent no-op, not a downgrade error on the stale v1 file.
	if sum, err = reg.LoadDir(dir); err != nil || sum.Installed != 2 {
		t.Errorf("rescan: %+v, err %v; want 2 installed, nil", sum, err)
	}
	if v := reg.Wafer().Meta.Version; v != 2 {
		t.Errorf("rescan changed the live wafer model to v%v", reg.Wafer().Meta.Version)
	}
}

// TestRegistryLoadDirSkipsCorrupt pins the scan's fault isolation: corrupt
// files alongside healthy artifacts are skipped and reported, never fatal —
// a half-written upload must not take down a SIGHUP reload.
func TestRegistryLoadDirSkipsCorrupt(t *testing.T) {
	w1, w2, o1 := testArtifacts(t)
	dir := t.TempDir()
	for name, a := range map[string]*Artifact{"w1.itm": w1, "w2.itm": w2, "o1.itm": o1} {
		if err := a.WriteFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	w1Bytes, err := w1.EncodeV2()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string][]byte{
		"torn.itm":    w1Bytes[:len(w1Bytes)/2], // truncated mid-write
		"garbage.itm": []byte("\x00\x01\x02 not an artifact at all"),
		"badkind.itm": encodeRawArtifact("mystery", "x", 9, []byte{1}),
		"json.itm":    []byte(`{"kind": "wafer-hdc", "name": "x", "version": 9, "payload": {}}`),
	}
	for name, body := range corrupt {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Non-.itm files are not artifacts and must be ignored outright.
	for _, name := range []string{"README", "model.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a model"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reg := NewRegistry()
	sum, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Installed != 2 {
		t.Errorf("installed %d models, want 2 despite corrupt files", sum.Installed)
	}
	if len(sum.Skipped) != len(corrupt) {
		t.Errorf("skipped %v, want one entry per corrupt file (%d)", sum.Skipped, len(corrupt))
	}
	for _, s := range sum.Skipped {
		name := s[:strings.IndexByte(s, ':')]
		if _, ok := corrupt[name]; !ok {
			t.Errorf("skip entry %q does not name a corrupt file", s)
		}
	}
	if !reg.Ready() || reg.Wafer().Meta.Version != 2 {
		t.Errorf("healthy artifacts not installed around the corrupt ones: ready=%v", reg.Ready())
	}
	// A directory that cannot be read at all is still a hard error.
	if _, err := reg.LoadDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("LoadDir on a missing directory must fail")
	}
}

func TestArtifactValidation(t *testing.T) {
	w1, _, _ := testArtifacts(t)
	for name, mutate := range map[string]func(a *Artifact){
		"unknown kind":  func(a *Artifact) { a.Kind = "mystery" },
		"zero version":  func(a *Artifact) { a.Version = 0 },
		"empty payload": func(a *Artifact) { a.Payload = nil },
	} {
		bad := *w1
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken artifact", name)
		}
		if _, err := NewRegistry().Install(&bad); err == nil {
			t.Errorf("%s: Install accepted a broken artifact", name)
		}
		if _, err := bad.EncodeV2(); err == nil {
			t.Errorf("%s: EncodeV2 accepted a broken artifact", name)
		}
		// A correctly hashed file carrying the broken envelope is refused
		// on decode too.
		raw := encodeRawArtifact(bad.Kind, bad.Name, bad.Version, bad.Payload)
		if _, err := DecodeArtifactV2(raw); err == nil {
			t.Errorf("%s: DecodeArtifactV2 accepted a broken artifact", name)
		}
	}
	// A payload that does not decode as its kind's model fails at install.
	for _, kind := range []string{KindWaferHDC, KindOutlierScreen} {
		a, err := NewArtifact(kind, "junk", 1, []byte{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewRegistry().Install(a); err == nil {
			t.Errorf("%s: Install accepted an undecodable payload", kind)
		}
	}
	// Round trip through the file format.
	path := filepath.Join(t.TempDir(), "m.itm")
	if err := w1.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != w1.Kind || back.Version != w1.Version || !bytes.Equal(back.Payload, w1.Payload) {
		t.Error("artifact changed across WriteFile/ReadArtifact")
	}
}

// encodeRawArtifact builds a correctly hashed itr-model/v3 file around an
// arbitrary envelope, bypassing Validate, so decoder-side checks can be
// exercised on inputs EncodeV2 refuses to produce.
func encodeRawArtifact(kind, name string, version int, payload []byte) []byte {
	a := &Artifact{Kind: kind, Name: name, Version: version, Payload: payload}
	body := a.canonicalBody()
	sum := sha256.Sum256(body)
	out := append([]byte(artifactMagic), artifactVersion)
	out = append(out, sum[:]...)
	return append(out, body...)
}

// TestServeShutdownDrain: requests racing Server.Close either complete
// normally or get a clean 503 — never a hang, never a dropped connection.
func TestServeShutdownDrain(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	wcfg := wafer.DefaultConfig()
	wcfg.Size = testCfg.GridSize
	body, _ := json.Marshal(WaferClassifyRequest{Cells: cellsOf(test1Map(wcfg))})

	const n = 64
	var wg sync.WaitGroup
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", epWaferClassify, bytes.NewReader(body)))
			statuses[i] = rec.Code
		}(i)
	}
	s.Close()
	wg.Wait()
	for i, code := range statuses {
		if code != http.StatusOK && code != http.StatusServiceUnavailable && code != http.StatusTooManyRequests {
			t.Errorf("request %d: status %d across shutdown, want 200/503/429", i, code)
		}
	}
}

// TestServeLoadConcurrent is the acceptance load test: >= 1k concurrent
// requests against a deliberately tiny queue, with a model hot swap racing
// the storm. Every request must be answered 200 or shed with 429 — nothing
// dropped, no other status, and the metrics must account for all of them.
// Run under -race (the CI default for this repo).
func TestServeLoadConcurrent(t *testing.T) {
	w1, w2, o1 := testArtifacts(t)
	reg := NewRegistry()
	if _, err := reg.Install(w1); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install(o1); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Registry:       reg,
		MaxBatch:       4,
		QueueCap:       4,
		MaxInFlight:    48,
		FlushWindow:    200 * time.Microsecond,
		RequestTimeout: 30 * time.Second,
	})
	h := s.Handler()

	wcfg := wafer.DefaultConfig()
	wcfg.Size = testCfg.GridSize
	classifyBody, _ := json.Marshal(WaferClassifyRequest{Cells: cellsOf(test1Map(wcfg))})
	lcfg := outlier.DefaultLotConfig()
	lcfg.Devices = 10
	scoreBody, _ := json.Marshal(OutlierScoreRequest{X: outlier.Synthesize(lcfg, 3).X[0]})

	const n = 1200
	var (
		wg        sync.WaitGroup
		ok200     atomic.Int64
		shed429   atomic.Int64
		other     atomic.Int64
		badAnswer atomic.Int64
	)
	endpoints := []struct {
		path string
		body []byte
	}{
		{epWaferClassify, classifyBody},
		{epOutlierScore, scoreBody},
		{epAdaptiveDecide, scoreBody},
	}
	// Hot swap the wafer model to v2 mid-storm.
	swap := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-swap
		if _, err := reg.Install(w2); err != nil {
			t.Errorf("hot swap during load: %v", err)
		}
	}()
	for i := 0; i < n; i++ {
		if i == n/2 {
			close(swap)
		}
		ep := endpoints[i%len(endpoints)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", ep.path, bytes.NewReader(ep.body)))
			switch rec.Code {
			case http.StatusOK:
				ok200.Add(1)
				if ep.path == epWaferClassify {
					var resp WaferClassifyResponse
					if json.Unmarshal(rec.Body.Bytes(), &resp) != nil ||
						(resp.ModelVersion != 1 && resp.ModelVersion != 2) {
						badAnswer.Add(1)
					}
				}
			case http.StatusTooManyRequests:
				shed429.Add(1)
			default:
				other.Add(1)
				t.Errorf("unexpected status %d: %s", rec.Code, rec.Body.String())
			}
		}()
	}
	wg.Wait()

	if got := ok200.Load() + shed429.Load() + other.Load(); got != n {
		t.Errorf("answered %d of %d requests — some were dropped silently", got, n)
	}
	if badAnswer.Load() != 0 {
		t.Errorf("%d classify answers had an invalid body or model version", badAnswer.Load())
	}
	if ok200.Load() == 0 {
		t.Error("no request succeeded under load")
	}
	t.Logf("load: %d ok, %d shed (429)", ok200.Load(), shed429.Load())

	// The metrics must account for every single request.
	snap := s.Metrics().Snapshot()
	var total, shed int64
	for _, ep := range endpoints {
		stats := snap[ep.path].(map[string]any)
		total += stats["requests"].(int64)
		shed += stats["shed"].(int64)
	}
	if total != n {
		t.Errorf("metrics saw %d requests, want %d", total, n)
	}
	if shed != shed429.Load() {
		t.Errorf("metrics shed %d != observed 429s %d", shed, shed429.Load())
	}
	if inflight := snap["inflight"].(int64); inflight != 0 {
		t.Errorf("inflight = %d after the storm, want 0", inflight)
	}
}

// ---------------------------------------------------------------------------
// Panic isolation.

// panicScorer is an installed model whose inference blows up: the per-item
// recovery in scoreBatch must convert that into a 500 for the one request,
// not a dead batch worker (which would hang every later request) or a dead
// process.
type panicScorer struct{}

func (panicScorer) Fit([][]float64) error   { return nil }
func (panicScorer) Score([]float64) float64 { panic("scorer poisoned") }

// TestServePanicRecovery hammers panicking models from many goroutines
// (meaningful under -race): every request gets an answer, every answer is a
// 500, the panics counter accounts for them, and the server still serves
// healthy traffic afterwards.
func TestServePanicRecovery(t *testing.T) {
	_, _, o1 := testArtifacts(t)
	reg := NewRegistry()
	// A zero-value classifier panics in GridSize() before the per-item
	// fan-out — the batch-level PanicHandler path.
	reg.wafer.Store(&WaferModel{
		Meta: ModelMeta{Kind: KindWaferHDC, Name: "broken", Version: 1},
		Cls:  &core.HDCWaferClassifier{},
	})
	// A poisoned scorer panics per item inside parallel.For — the per-item
	// recovery path.
	reg.outlier.Store(&OutlierModel{
		Meta:   ModelMeta{Kind: KindOutlierScreen, Name: "broken", Version: 1},
		Method: "poisoned", Tests: 3, Scorer: panicScorer{},
	})
	s := newTestServer(t, Config{Registry: reg, MaxBatch: 4, QueueCap: 256, MaxInFlight: 256})

	grid := make([][]uint8, 16)
	for r := range grid {
		grid[r] = make([]uint8, 16)
	}
	const n = 40
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rec *httptest.ResponseRecorder
			if i%2 == 0 {
				rec = doJSON(t, s.Handler(), "POST", epWaferClassify, WaferClassifyRequest{Cells: grid})
			} else {
				rec = doJSON(t, s.Handler(), "POST", epOutlierScore, OutlierScoreRequest{X: []float64{1, 2, 3}})
			}
			codes[i], bodies[i] = rec.Code, rec.Body.String()
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d (%s), want 500", i, code, bodies[i])
		}
		if !strings.Contains(bodies[i], "panicked") {
			t.Errorf("request %d: body %q does not name the panic", i, bodies[i])
		}
	}
	// The score path panics per item (n/2 requests); the wafer path panics
	// per batch, so its count depends on coalescing — at least one.
	if p := s.Metrics().Panics(); p < n/2+1 {
		t.Errorf("panics counter = %d, want >= %d", p, n/2+1)
	}
	if snap := s.Metrics().Snapshot(); snap["panics"].(int64) < n/2+1 {
		t.Error("/debug/vars snapshot does not expose the panics counter")
	}

	// The batch workers survived: swapping in a healthy model heals the
	// endpoint with no restart.
	if _, err := reg.Install(o1); err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, s.Handler(), "POST", epOutlierScore,
		OutlierScoreRequest{X: make([]float64, reg.Outlier().Tests)})
	if rec.Code != http.StatusOK {
		t.Fatalf("after heal: status %d (%s), want 200", rec.Code, rec.Body.String())
	}
}

// TestServeHandlerPanicRecovery pins the middleware layer: a handler that
// panics outright answers 500 (unless it already committed a status) and
// the server's connection goroutine survives.
func TestServeHandlerPanicRecovery(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.instrument(epHealthz, func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", epHealthz, nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if s.Metrics().Panics() == 0 {
		t.Error("handler panic not counted")
	}

	// A panic after the handler committed a response must not try to write
	// a second status line.
	before := s.Metrics().Panics()
	h = s.instrument(epHealthz, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		panic("late explosion")
	})
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", epHealthz, nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("committed status rewritten to %d", rec.Code)
	}
	if s.Metrics().Panics() != before+1 {
		t.Error("late handler panic not counted")
	}
}
