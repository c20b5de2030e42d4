package atpg

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// The Williams–Brown shipped-quality model lives here because nothing
// outside the tests reads it: it turns a fault coverage into the expected
// fraction of defective shipped parts,
//
//	DL = 1 - Y^(1-FC)
//
// (95% coverage at 50% yield ships about 3.4% defective parts).

// defectLevel returns the Williams–Brown defect level at the given process
// yield and fault coverage.
func defectLevel(yield, coverage float64) (float64, error) {
	if yield <= 0 || yield > 1 {
		return 0, fmt.Errorf("atpg: yield %g outside (0,1]", yield)
	}
	if coverage < 0 || coverage > 1 {
		return 0, fmt.Errorf("atpg: coverage %g outside [0,1]", coverage)
	}
	return 1 - math.Pow(yield, 1-coverage), nil
}

// dppm converts a defect level to defective parts per million.
func dppm(defectLevel float64) float64 { return defectLevel * 1e6 }

// requiredCoverage inverts the model: the fault coverage needed to reach a
// target defect level at a given yield.
func requiredCoverage(yield, targetDL float64) (float64, error) {
	if yield <= 0 || yield >= 1 {
		return 0, fmt.Errorf("atpg: yield %g outside (0,1)", yield)
	}
	if targetDL <= 0 || targetDL >= 1 {
		return 0, fmt.Errorf("atpg: target defect level %g outside (0,1)", targetDL)
	}
	// 1 - Y^(1-FC) = DL  =>  FC = 1 - ln(1-DL)/ln(Y)
	fc := 1 - math.Log(1-targetDL)/math.Log(yield)
	if fc < 0 {
		fc = 0 // yield alone already meets the target
	}
	return fc, nil
}

// qualityReport summarizes an ATPG result in shipped-quality terms.
func qualityReport(r *Result, yield float64) (string, error) {
	dl, err := defectLevel(yield, r.Coverage)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s: coverage %.2f%% at yield %.0f%% → defect level %.4f%% (%.0f DPPM)",
		r.Circuit, r.Coverage*100, yield*100, dl*100, dppm(dl)), nil
}

func TestDefectLevelKnownPoints(t *testing.T) {
	// Full coverage ships zero defects regardless of yield.
	if dl, err := defectLevel(0.5, 1.0); err != nil || dl != 0 {
		t.Errorf("DL(0.5, 1) = %g, %v", dl, err)
	}
	// Zero coverage ships 1-Y defective parts.
	if dl, _ := defectLevel(0.5, 0); math.Abs(dl-0.5) > 1e-12 {
		t.Errorf("DL(0.5, 0) = %g", dl)
	}
	// Textbook example: Y=0.5, FC=0.95 → DL ≈ 3.4%, 34064 DPPM.
	dl, _ := defectLevel(0.5, 0.95)
	if math.Abs(dl-0.0341) > 0.001 {
		t.Errorf("DL(0.5, 0.95) = %g, want ~0.034", dl)
	}
	if got := fmt.Sprintf("%.0f", dppm(dl)); got != "34064" {
		t.Errorf("DPPM(0.5, 0.95) = %s, want 34064", got)
	}
}

func TestDefectLevelMonotone(t *testing.T) {
	prev := 1.0
	for fc := 0.0; fc <= 1.0001; fc += 0.05 {
		dl, err := defectLevel(0.6, math.Min(fc, 1))
		if err != nil {
			t.Fatal(err)
		}
		if dl > prev+1e-12 {
			t.Fatalf("defect level not decreasing in coverage at %f", fc)
		}
		prev = dl
	}
}

func TestDefectLevelValidation(t *testing.T) {
	if _, err := defectLevel(0, 0.5); err == nil {
		t.Error("zero yield must fail")
	}
	if _, err := defectLevel(0.5, 1.5); err == nil {
		t.Error("coverage > 1 must fail")
	}
}

func TestRequiredCoverageRoundTrip(t *testing.T) {
	for _, y := range []float64{0.3, 0.5, 0.8} {
		for _, dl := range []float64{0.001, 0.01, 0.05} {
			fc, err := requiredCoverage(y, dl)
			if err != nil {
				t.Fatal(err)
			}
			if fc > 0 {
				back, _ := defectLevel(y, fc)
				if math.Abs(back-dl) > 1e-9 {
					t.Errorf("round trip Y=%g DL=%g: got %g", y, dl, back)
				}
			}
		}
	}
	if _, err := requiredCoverage(1.0, 0.01); err == nil {
		t.Error("yield 1.0 must fail (log singularity)")
	}
}

func TestQualityReport(t *testing.T) {
	res, err := Run(circuit.MustC17(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := qualityReport(res, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "DPPM") || !strings.Contains(s, "c17") {
		t.Errorf("report = %q", s)
	}
	// c17 at full coverage: 0 DPPM.
	if !strings.Contains(s, "0 DPPM") {
		t.Errorf("full-coverage report should show 0 DPPM: %q", s)
	}
}
