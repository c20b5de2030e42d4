package liberty

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/spice"
)

// TestCharacterizeDeterministicAcrossWorkers is the contract the parallel
// characterization must satisfy: the library is bit-identical for any
// worker count, including the cost accounting.
func TestCharacterizeDeterministicAcrossWorkers(t *testing.T) {
	cells := AllCells()
	p := spice.Default(300)
	grid := CoarseGrid()
	ref, err := Characterize("det", cells, p, grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		lib, err := Characterize("det", cells, p, grid, workers)
		if err != nil {
			t.Fatal(err)
		}
		if lib.SpiceRuns != ref.SpiceRuns || lib.SpiceSteps != ref.SpiceSteps {
			t.Errorf("workers=%d: cost accounting %d/%d != serial %d/%d",
				workers, lib.SpiceRuns, lib.SpiceSteps, ref.SpiceRuns, ref.SpiceSteps)
		}
		if !reflect.DeepEqual(lib.Cells, ref.Cells) {
			t.Fatalf("workers=%d: characterized cells differ from serial run", workers)
		}
		// Byte-identical serialized tables, not just numerically close.
		if !bytes.Equal(dumpTables(t, lib), dumpTables(t, ref)) {
			t.Fatalf("workers=%d: serialized library differs from serial run", workers)
		}
	}
}

func dumpTables(t *testing.T, lib *Library) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lib.WriteLib(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
