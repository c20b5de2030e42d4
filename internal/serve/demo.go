package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/outlier"
	"repro/internal/wafer"
)

// DemoConfig sizes the built-in demo models (itrserve -demo and the test
// suite train these in-process instead of loading artifact files).
type DemoConfig struct {
	Dim      int   // hypervector dimension (default 2048)
	GridSize int   // wafer grid edge (default 32)
	TrainN   int   // training maps per class (default 12)
	Devices  int   // reference lot size for the outlier screen (default 600)
	Seed     int64 // deterministic seed (default 1)
	// OverkillBudget calibrates the reject threshold (default 0.02); the
	// retest threshold uses 4x the budget, widening the marginal band.
	OverkillBudget float64
}

func (c DemoConfig) withDefaults() DemoConfig {
	if c.Dim <= 0 {
		c.Dim = 2048
	}
	if c.GridSize <= 0 {
		c.GridSize = 32
	}
	if c.TrainN <= 0 {
		c.TrainN = 12
	}
	if c.Devices <= 0 {
		c.Devices = 600
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.OverkillBudget <= 0 {
		c.OverkillBudget = 0.02
	}
	return c
}

// TrainWaferArtifact trains an HDC wafer classifier on a synthesized
// dataset and wraps it as a versioned artifact.
func TrainWaferArtifact(cfg DemoConfig, version int) (*Artifact, error) {
	cfg = cfg.withDefaults()
	wcfg := wafer.DefaultConfig()
	wcfg.Size = cfg.GridSize
	train := wafer.GenerateDataset(cfg.TrainN, wcfg, cfg.Seed)
	cls := core.NewHDCWaferClassifier(cfg.Dim, cfg.GridSize, 20, cfg.Seed)
	if err := cls.Fit(train); err != nil {
		return nil, fmt.Errorf("serve: train demo wafer model: %w", err)
	}
	payload, err := cls.AppendBinary(nil)
	if err != nil {
		return nil, err
	}
	return NewArtifact(KindWaferHDC, "demo-wafer-hdc", version, payload)
}

// TrainOutlierArtifact fits a Mahalanobis screen on a synthesized healthy
// reference lot and calibrates its stop/retest thresholds with the F3
// tradeoff machinery (stop at the overkill budget, retest at 4x).
func TrainOutlierArtifact(cfg DemoConfig, version int) (*Artifact, error) {
	cfg = cfg.withDefaults()
	lcfg := outlier.DefaultLotConfig()
	lcfg.Devices = cfg.Devices
	lot := outlier.Synthesize(lcfg, cfg.Seed)
	var ref [][]float64
	for i, def := range lot.Defective {
		if !def {
			ref = append(ref, lot.X[i])
		}
	}
	s := &outlier.Mahalanobis{}
	if err := s.Fit(ref); err != nil {
		return nil, fmt.Errorf("serve: fit demo outlier screen: %w", err)
	}
	refScores := outlier.ScoreAll(s, ref)
	reject, err := core.CalibrateThreshold(refScores, cfg.OverkillBudget)
	if err != nil {
		return nil, err
	}
	retestBudget := 4 * cfg.OverkillBudget
	if retestBudget >= 1 {
		retestBudget = 0.5
	}
	retest, err := core.CalibrateThreshold(refScores, retestBudget)
	if err != nil {
		return nil, err
	}
	if retest > reject {
		retest = reject
	}
	payload, err := appendScreenPayload(nil, outlier.MethodMahalanobis, lcfg.Tests, s, reject, retest)
	if err != nil {
		return nil, err
	}
	return NewArtifact(KindOutlierScreen, "demo-mahalanobis", version, payload)
}

// InstallDemoModels trains and installs both demo models.
func InstallDemoModels(r *Registry, cfg DemoConfig) error {
	wa, err := TrainWaferArtifact(cfg, 1)
	if err != nil {
		return err
	}
	if _, err := r.Install(wa); err != nil {
		return err
	}
	oa, err := TrainOutlierArtifact(cfg, 1)
	if err != nil {
		return err
	}
	_, err = r.Install(oa)
	return err
}
