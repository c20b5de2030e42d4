package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/outlier"
)

// ModelMeta identifies one installed model version. Hash is the content
// identity of the artifact the model was installed from.
type ModelMeta struct {
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	Version int    `json:"version"`
	Hash    string `json:"hash,omitempty"`
}

// lineageKey names one published version line.
func lineageKey(kind, name string, version int) string {
	return fmt.Sprintf("%s/%s/v%d", kind, name, version)
}

// WaferModel is an installed wafer-map classifier.
type WaferModel struct {
	Meta ModelMeta
	Cls  *core.HDCWaferClassifier
}

// OutlierModel is an installed outlier screen with calibrated thresholds.
type OutlierModel struct {
	Meta            ModelMeta
	Method          string
	Tests           int
	Scorer          outlier.Scorer
	RejectThreshold float64
	RetestThreshold float64
}

// Registry holds the live model for each serving slot. Slots are
// atomic.Pointers, so installs are lock-free hot swaps: requests in flight
// keep the model they started with, new requests see the new version, and
// no request ever observes a half-installed model.
//
// Alongside the live slots the registry keeps a content-addressed store of
// every artifact it has installed, keyed by content hash, plus the lineage
// map recording which hash each kind/name/version resolves to. The store
// is what replication serves (see replicate.go); the lineage map is what
// makes versions immutable — a second artifact claiming an already-bound
// kind/name/version with different content is refused as a fork.
type Registry struct {
	wafer   atomic.Pointer[WaferModel]
	outlier atomic.Pointer[OutlierModel]

	mu      sync.Mutex
	lineage map[string]string    // lineageKey -> content hash
	store   map[string]*Artifact // content hash -> installed artifact
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		lineage: map[string]string{},
		store:   map[string]*Artifact{},
	}
}

// Wafer returns the live wafer classifier, or nil if none is installed.
func (r *Registry) Wafer() *WaferModel { return r.wafer.Load() }

// Outlier returns the live outlier screen, or nil if none is installed.
func (r *Registry) Outlier() *OutlierModel { return r.outlier.Load() }

// Ready reports whether every serving slot has a model.
func (r *Registry) Ready() bool { return r.Wafer() != nil && r.Outlier() != nil }

// Models lists the installed model versions (stable order by kind).
func (r *Registry) Models() []ModelMeta {
	var out []ModelMeta
	if m := r.Outlier(); m != nil {
		out = append(out, m.Meta)
	}
	if m := r.Wafer(); m != nil {
		out = append(out, m.Meta)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// Install checks an artifact's lineage, decodes the model from its
// canonical payload and atomically swaps it into its slot, returning the
// metadata of the model it replaced (zero ModelMeta if the slot was
// empty). The content hash is recomputed here, never taken from the
// artifact's stamped Hash, so the served model is always exactly the state
// the recorded identity covers. Downgrades are rejected: an artifact with
// a version lower than the live one leaves the registry untouched. An
// artifact whose kind/name/version was already bound to different content
// is refused with ErrForkedLineage.
func (r *Registry) Install(a *Artifact) (prev ModelMeta, err error) {
	art := *a
	if _, err := art.ContentHash(); err != nil {
		return ModelMeta{}, err
	}
	key := lineageKey(art.Kind, art.Name, art.Version)
	r.mu.Lock()
	if bound, ok := r.lineage[key]; ok && bound != art.Hash {
		r.mu.Unlock()
		return ModelMeta{}, fmt.Errorf("%w: %s is %.8s…, refusing %.8s…",
			ErrForkedLineage, key, bound, art.Hash)
	}
	r.mu.Unlock()
	meta := ModelMeta{Kind: art.Kind, Name: art.Name, Version: art.Version, Hash: art.Hash}
	switch art.Kind {
	case KindWaferHDC:
		cls := &core.HDCWaferClassifier{}
		if err := cls.UnmarshalBinary(art.Payload); err != nil {
			return ModelMeta{}, fmt.Errorf("serve: install %s: %w", art.Kind, err)
		}
		m := &WaferModel{Meta: meta, Cls: cls}
		for {
			old := r.wafer.Load()
			if old != nil && old.Meta.Version > meta.Version {
				return old.Meta, fmt.Errorf("serve: refusing downgrade of %s from v%d to v%d",
					art.Kind, old.Meta.Version, meta.Version)
			}
			if r.wafer.CompareAndSwap(old, m) {
				if old != nil {
					prev = old.Meta
				}
				r.record(key, &art)
				return prev, nil
			}
		}
	case KindOutlierScreen:
		m, err := decodeScreenPayload(art.Payload)
		if err != nil {
			return ModelMeta{}, fmt.Errorf("serve: install %s: %w", art.Kind, err)
		}
		m.Meta = meta
		for {
			old := r.outlier.Load()
			if old != nil && old.Meta.Version > meta.Version {
				return old.Meta, fmt.Errorf("serve: refusing downgrade of %s from v%d to v%d",
					art.Kind, old.Meta.Version, meta.Version)
			}
			if r.outlier.CompareAndSwap(old, m) {
				if old != nil {
					prev = old.Meta
				}
				r.record(key, &art)
				return prev, nil
			}
		}
	}
	return ModelMeta{}, fmt.Errorf("serve: unknown artifact kind %q", art.Kind)
}

// record binds a lineage key to its hash and retains the canonical
// artifact in the content store. Called only after a successful install,
// so the store never holds artifacts the registry refused.
func (r *Registry) record(key string, art *Artifact) {
	r.mu.Lock()
	r.lineage[key] = art.Hash
	r.store[art.Hash] = art
	r.mu.Unlock()
}

// Manifest lists every artifact in the content store as kind/name/version/
// hash tuples, sorted. This is what a replica diffs against its own
// manifest to decide which hashes to pull.
func (r *Registry) Manifest() []ModelMeta {
	r.mu.Lock()
	out := make([]ModelMeta, 0, len(r.store))
	for h, a := range r.store {
		out = append(out, ModelMeta{Kind: a.Kind, Name: a.Name, Version: a.Version, Hash: h})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Version != b.Version {
			return a.Version < b.Version
		}
		return a.Hash < b.Hash
	})
	return out
}

// ArtifactByHash returns the stored canonical artifact for a content hash,
// or nil if the registry has never installed it.
func (r *Registry) ArtifactByHash(hash string) *Artifact {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store[hash]
}

// LoadSummary reports the outcome of one directory scan.
type LoadSummary struct {
	// Installed counts the models swapped in (the newest version per kind).
	Installed int
	// Duplicates counts files whose content hash matched an artifact
	// already seen in this scan — byte-identical copies count once.
	Duplicates int
	// Artifacts lists "file: kind/name/vN hash" for every readable
	// artifact, duplicates included, so the scan log shows exactly which
	// content each file resolved to.
	Artifacts []string
	// Skipped lists "file: reason" for every artifact that could not be
	// read, parsed or installed. Skips never abort the scan — one corrupt
	// file must not take down the SIGHUP reload of every healthy model.
	Skipped []string
}

// LoadDir installs the newest version of every kind found among the
// "*.itm" artifacts under dir. Files are deduped by content hash first —
// byte-identical artifacts under different names count once. Older
// versions may stay in the directory: only the per-kind maximum is
// installed, so a SIGHUP rescan over an unchanged directory is an
// idempotent no-op rather than a downgrade error. Corrupt or unparseable
// files are skipped (and listed in the summary), not fatal; only an
// unreadable directory is an error.
func (r *Registry) LoadDir(dir string) (LoadSummary, error) {
	var sum LoadSummary
	entries, err := os.ReadDir(dir)
	if err != nil {
		return sum, err
	}
	newest := map[string]*Artifact{}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".itm") {
			continue
		}
		a, err := ReadArtifact(filepath.Join(dir, e.Name()))
		if err != nil {
			sum.Skipped = append(sum.Skipped, fmt.Sprintf("%s: %v", e.Name(), err))
			continue
		}
		sum.Artifacts = append(sum.Artifacts,
			fmt.Sprintf("%s: %s %.12s…", e.Name(), lineageKey(a.Kind, a.Name, a.Version), a.Hash))
		if seen[a.Hash] {
			sum.Duplicates++
			continue
		}
		seen[a.Hash] = true
		if best := newest[a.Kind]; best == nil || a.Version > best.Version {
			newest[a.Kind] = a
		}
	}
	// Deterministic install order for logs and error attribution.
	kinds := make([]string, 0, len(newest))
	for k := range newest {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		if _, err := r.Install(newest[k]); err != nil {
			sum.Skipped = append(sum.Skipped, fmt.Sprintf("%s: %v", k, err))
			continue
		}
		sum.Installed++
	}
	return sum, nil
}
